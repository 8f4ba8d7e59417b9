"""Independent syscall-set oracle for cross-checking the trace engine.

Deliberately shares no code or technique details with the package engine:
it is a plain PTRACE_SYSCALL stepper over a single process that collects
the set of syscall numbers via PTRACE_PEEKUSER of ORIG_RAX (the engine
stops at seccomp events and reads GETREGS).  Because entries and exits
report the same number, collecting a set needs no entry/exit bookkeeping.

The reported set covers everything from PTRACE_TRACEME onward, so it
includes the launch plumbing the engine deliberately excludes: the
execve of the image itself and the kill(self, SIGSTOP) handshake.
Callers subtract those.
"""

import ctypes
import os
import signal

_libc = ctypes.CDLL("libc.so.6", use_errno=True)
_libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long,
                         ctypes.c_void_p, ctypes.c_void_p]
_libc.ptrace.restype = ctypes.c_long

_TRACEME = 0
_PEEKUSER = 3
_SYSCALL = 24
_SETOPTIONS = 0x4200
_O_TRACESYSGOOD = 1
_ORIG_RAX_OFFSET = 15 * 8

LAUNCH_SYSCALLS = frozenset({59, 62})  # execve, kill (the SIGSTOP handshake)


def traced_syscall_set(argv: list[str], timeout_stops: int = 1_000_000) -> set[int]:
    """Run a single-process command and return the set of syscall numbers."""
    pid = os.fork()
    if pid == 0:
        _libc.ptrace(_TRACEME, 0, None, None)
        os.kill(os.getpid(), signal.SIGSTOP)
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)

    os.waitpid(pid, 0)
    _libc.ptrace(_SETOPTIONS, pid, None, ctypes.c_void_p(_O_TRACESYSGOOD))
    seen: set[int] = set()
    for _ in range(timeout_stops):
        _libc.ptrace(_SYSCALL, pid, None, None)
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return seen
        if os.WIFSTOPPED(status) and (status >> 8) == (signal.SIGTRAP | 0x80):
            ctypes.set_errno(0)
            nr = _libc.ptrace(_PEEKUSER, pid, ctypes.c_void_p(_ORIG_RAX_OFFSET), None)
            if nr != -1 or ctypes.get_errno() == 0:
                seen.add(ctypes.c_long(nr).value)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise RuntimeError("reference tracer exceeded its stop budget")
