"""Minimal ctypes bindings for the Linux ptrace and seccomp facilities
(x86_64).

Only what the trace engine needs: a seccomp filter that stops the tracee
for its tracer at chosen syscalls, resumption, register read/write,
child-follow, exec and seccomp notification options, event message
retrieval, and a parent-death signal.  The tracer must be the process
(thread) that attached.
"""

from __future__ import annotations

import ctypes
import os
from typing import Iterable

_libc = ctypes.CDLL("libc.so.6", use_errno=True)
_libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
_libc.ptrace.restype = ctypes.c_long

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SETREGS = 13
PTRACE_SETOPTIONS = 0x4200
PTRACE_GETEVENTMSG = 0x4201

PTRACE_O_TRACEFORK = 0x2
PTRACE_O_TRACEVFORK = 0x4
PTRACE_O_TRACECLONE = 0x8
PTRACE_O_TRACEEXEC = 0x10
PTRACE_O_TRACESECCOMP = 0x80
PTRACE_O_EXITKILL = 0x100000

PTRACE_EVENT_FORK = 1
PTRACE_EVENT_VFORK = 2
PTRACE_EVENT_CLONE = 3
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_SECCOMP = 7

# waitpid option: wait for all children, including clones.
WALL = 0x40000000


class UserRegs(ctypes.Structure):
    """x86_64 user_regs_struct."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in (
            "r15", "r14", "r13", "r12", "rbp", "rbx", "r11", "r10",
            "r9", "r8", "rax", "rcx", "rdx", "rsi", "rdi", "orig_rax",
            "rip", "cs", "eflags", "rsp", "ss", "fs_base", "gs_base",
            "ds", "es", "fs", "gs",
        )
    ]

    def syscall_args(self) -> tuple[int, int, int, int, int, int]:
        return (self.rdi, self.rsi, self.rdx, self.r10, self.r8, self.r9)


class PtraceError(OSError):
    pass


def _check(ret: int, what: str, pid: int) -> int:
    if ret == -1:
        err = ctypes.get_errno()
        raise PtraceError(err, f"ptrace {what} pid={pid}: {os.strerror(err)}")
    return ret


def traceme() -> None:
    _check(_libc.ptrace(PTRACE_TRACEME, 0, None, None), "TRACEME", 0)


def setoptions(pid: int, options: int) -> None:
    _check(_libc.ptrace(PTRACE_SETOPTIONS, pid, None, ctypes.c_void_p(options)),
           "SETOPTIONS", pid)


def getregs(pid: int, regs: UserRegs) -> None:
    _check(_libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)),
           "GETREGS", pid)


def setregs(pid: int, regs: UserRegs) -> None:
    _check(_libc.ptrace(PTRACE_SETREGS, pid, None, ctypes.byref(regs)),
           "SETREGS", pid)


def geteventmsg(pid: int) -> int:
    msg = ctypes.c_ulong()
    _check(_libc.ptrace(PTRACE_GETEVENTMSG, pid, None, ctypes.byref(msg)),
           "GETEVENTMSG", pid)
    return msg.value


def resume_cont(pid: int, sig: int = 0) -> None:
    _check(_libc.ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(sig)),
           "CONT", pid)


# -- seccomp (see seccomp(2)): a classic-BPF program over struct seccomp_data,
# whose ``nr`` is at offset 0 and ``arch`` at offset 4.

_libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                        ctypes.c_ulong, ctypes.c_ulong]
_libc.prctl.restype = ctypes.c_int

PR_SET_PDEATHSIG = 1
PR_SET_SECCOMP = 22
PR_SET_NO_NEW_PRIVS = 38
SECCOMP_MODE_FILTER = 2
SECCOMP_RET_TRACE = 0x7FF00000
SECCOMP_RET_ALLOW = 0x7FFF0000
AUDIT_ARCH_X86_64 = 0xC000003E

_BPF_LD_W_ABS = 0x20
_BPF_JEQ_K = 0x15
_BPF_RET_K = 0x06


class SockFilter(ctypes.Structure):
    _fields_ = [("code", ctypes.c_uint16), ("jt", ctypes.c_uint8),
                ("jf", ctypes.c_uint8), ("k", ctypes.c_uint32)]


class SockFprog(ctypes.Structure):
    _fields_ = [("len", ctypes.c_ushort), ("filter", ctypes.POINTER(SockFilter))]


def seccomp_filter(trapped: Iterable[int] | None) -> SockFprog:
    """A filter that stops the caller for its tracer (SECCOMP_RET_TRACE) at
    each x86_64 syscall number in ``trapped``, or at every syscall when
    ``trapped`` is None, and lets every other x86_64 syscall run.  Calls
    made under another architecture always stop."""
    trace = SockFilter(_BPF_RET_K, 0, 0, SECCOMP_RET_TRACE)
    code = [trace]
    if trapped is not None:
        code = [SockFilter(_BPF_LD_W_ABS, 0, 0, 4),
                SockFilter(_BPF_JEQ_K, 1, 0, AUDIT_ARCH_X86_64),
                trace,
                SockFilter(_BPF_LD_W_ABS, 0, 0, 0)]
        for nr in sorted(set(trapped)):
            # Equal: fall through to the stop; else skip over it.
            code += [SockFilter(_BPF_JEQ_K, 0, 1, nr & 0xFFFFFFFF), trace]
        code.append(SockFilter(_BPF_RET_K, 0, 0, SECCOMP_RET_ALLOW))
    insns = (SockFilter * len(code))(*code)
    prog = SockFprog(len(code), insns)
    prog.insns = insns  # the program must outlive its pointer's use
    return prog


def install_seccomp(prog: SockFprog) -> None:
    """Set no_new_privs, then install ``prog`` on the calling thread; both
    are inherited by its children and kept across execve.

    Raises OSError naming the prctl that failed.
    """
    for what, args in (("PR_SET_NO_NEW_PRIVS", (PR_SET_NO_NEW_PRIVS, 1, 0)),
                       ("PR_SET_SECCOMP", (PR_SET_SECCOMP, SECCOMP_MODE_FILTER,
                                           ctypes.addressof(prog)))):
        if _libc.prctl(*args, 0, 0) != 0:
            err = ctypes.get_errno()
            raise OSError(err, f"prctl({what}): {os.strerror(err)}")


def set_pdeathsig(sig: int) -> None:
    """Have the kernel send ``sig`` to the calling process when the thread
    that forked it exits.  Kept across execve, not inherited by children."""
    if _libc.prctl(PR_SET_PDEATHSIG, sig, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_PDEATHSIG): {os.strerror(err)}")


def to_signed(value: int) -> int:
    """Interpret a 64-bit register value as a signed integer."""
    return ctypes.c_long(value).value


def to_unsigned(value: int) -> int:
    """Encode a (possibly negative) integer as a 64-bit register value."""
    return value & 0xFFFFFFFFFFFFFFFF


def read_tracee_string(pid: int, addr: int, limit: int = 4096) -> str:
    """Read a NUL-terminated string from a stopped tracee's memory.

    Raises OSError when the address is unreadable.
    """
    if addr == 0:
        raise OSError("NULL pointer")
    chunks = []
    remaining = limit
    with open(f"/proc/{pid}/mem", "rb", buffering=0) as mem:
        while remaining > 0:
            mem.seek(addr)
            chunk = mem.read(min(256, remaining))
            if not chunk:
                raise OSError("short read from tracee memory")
            nul = chunk.find(b"\0")
            if nul >= 0:
                chunks.append(chunk[:nul])
                return b"".join(chunks).decode("utf-8", errors="replace")
            chunks.append(chunk)
            addr += len(chunk)
            remaining -= len(chunk)
    return b"".join(chunks).decode("utf-8", errors="replace")
