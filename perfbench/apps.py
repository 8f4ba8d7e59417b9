"""Generated freestanding apps for the analyze-* workloads, and their oracle.

Every app is C source written here from a seed and built with
``-nostdlib -static -ffreestanding -mstackrealign``, so its syscall
footprint is exactly the calls it makes.  The generator decides how the
app checks each result, and that decision fixes the class the analysis
must report:

    real result checked (must be > 0)    -> required
    -ENOSYS accepted as well             -> stub_only
    0 accepted as well                   -> fake_only
    result ignored                       -> any

Only syscalls whose real result is > 0 are generated, so a faked call
(which returns 0) is always told apart from the real one.  The fixed
scaffolding calls (openat, write, close, exit_group, fork, execve, wait4,
clock_gettime) have classes stated next to the code that makes them.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from slens import AppSpec, FeatureId, Readiness, Whitelist, syscalls
from slens.orchestrator import CLASS_ANY, CLASS_FAKE_ONLY, CLASS_REQUIRED, CLASS_STUB_ONLY

HERE = Path(__file__).resolve().parent
C_DIR = HERE / "c"
SCRIPT_DIR = HERE / "scripts"

CFLAGS = ["-nostdlib", "-nostartfiles", "-static", "-O2",
          "-ffreestanding", "-mstackrealign"]

# Syscalls with a real result > 0 and no lasting effect, and how to call
# them.  ``scratch`` is a static buffer in every generated app.  getsid,
# getpgid and getpgrp are left out: they return 0 when the session or group
# leader lies outside the caller's pid namespace, as it can when the
# benchmark runs inside a container.
POOL = {
    "getpid": "sys0({nr})",
    "getppid": "sys0({nr})",
    "gettid": "sys0({nr})",
    "sched_get_priority_max": "sys1({nr}, 1)",
    "sched_get_priority_min": "sys1({nr}, 1)",
    "getpriority": "sys2({nr}, 0, 0)",
    "time": "sys1({nr}, 0)",
    "brk": "sys1({nr}, 0)",
    "times": "sys1({nr}, scratch)",
    "getcwd": "sys2({nr}, scratch, sizeof(scratch))",
    "getrandom": "sys3({nr}, scratch, 8, 0)",
    "sched_getaffinity": "sys3({nr}, 0, 128, scratch)",
    "readlink": 'sys3({nr}, "/proc/self/exe", scratch, sizeof(scratch))',
    "membarrier": "sys3({nr}, 0, 0, 0)",
}
# The cheapest of the pool, for the hot loop.
HOT_POOL = tuple(list(POOL)[:8])

# The hot app's classes: a fixed mix, so every seed breaks the same number
# of probes and costs the same number of runs.
HOT_CLASSES = (CLASS_REQUIRED, CLASS_STUB_ONLY, CLASS_FAKE_ONLY,
               CLASS_ANY, CLASS_ANY, CLASS_ANY)
HOT_ITERATIONS = 150

# Fleet shape: generated-feature counts of the plain apps, plus one forking
# app and one interacting pair.  Totals are fixed, only the draw varies.
FLEET_PLAIN_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
FLEET_FORKER_SIZE = 3
FLEET_PAIR_EXTRA = 3


def nr(name: str) -> int:
    return syscalls.name_to_nr(name)


def feature(name: str) -> FeatureId:
    return FeatureId(nr(name))


# Scaffolding classes, fixed by the code in common.h and below.
WRITE_FILE_CLASSES = {"openat": CLASS_REQUIRED, "write": CLASS_REQUIRED,
                      "close": CLASS_ANY}
EXIT_CLASSES = {"exit_group": CLASS_REQUIRED}


@dataclass
class App:
    """A built app, the spec that drives it, and what the analysis must say."""

    spec: AppSpec
    expected: dict[FeatureId, str]
    confirmed: bool = True


def _classes_for(size: int) -> list[str]:
    """Mostly any, with a few that break; fixed by the size alone."""
    req, stub, fk = size // 4, size // 6, size // 6
    return ([CLASS_REQUIRED] * req + [CLASS_STUB_ONLY] * stub
            + [CLASS_FAKE_ONLY] * fk + [CLASS_ANY] * (size - req - stub - fk))


def _check(name: str, cls: str) -> str:
    call = POOL[name].format(nr=nr(name))
    if cls == CLASS_REQUIRED:
        return f"if ({call} <= 0) finish(CHECK_FAILED);"
    if cls == CLASS_STUB_ONLY:
        return f"r = {call}; if (r <= 0 && r != -ENOSYS) finish(CHECK_FAILED);"
    if cls == CLASS_FAKE_ONLY:
        return f"if ({call} < 0) finish(CHECK_FAILED);"
    return f"{call};"


def _checks(draw: Mapping[str, str], indent: str) -> str:
    return "\n".join(indent + _check(n, c) for n, c in draw.items())


def _draw(rng: random.Random, pool, classes: list[str]) -> dict[str, str]:
    names = rng.sample(list(pool), len(classes))
    shuffled = list(classes)
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


_HEADER = '#include "common.h"\n\nstatic char scratch[4096];\n\n'


def plain_source(draw: Mapping[str, str]) -> str:
    return _HEADER + f"""void _start(void)
{{
    long r = 0;
{_checks(draw, "    ")}
    (void)r;
    write_file("out.txt", "OK");
    finish(0);
}}
"""


def forker_source(draw: Mapping[str, str]) -> str:
    # fork: stubbed fails; faked, the root takes the child branch itself and
    # still writes out.txt, so fork is fake_only.  wait4 must return the pid.
    return _HEADER + f"""void _start(void)
{{
    long r = 0, pid;
    int st = -1;
    pid = sys0(SYS_fork);
    if (pid < 0)
        finish(CHECK_FAILED);
    if (pid == 0) {{
{_checks(draw, "        ")}
        (void)r;
        write_file("out.txt", "OK");
        finish(0);
    }}
    r = sys4(SYS_wait4, pid, &st, 0, 0);
    if (r != pid || st != 0)
        finish(CHECK_FAILED);
    finish(0);
}}
"""


def pair_source(a: str, b: str, draw: Mapping[str, str]) -> str:
    # Either source alone tolerates stub and fake; the pair stubbed does not.
    return _HEADER + f"""void _start(void)
{{
    long r = 0;
    long v1 = {POOL[a].format(nr=nr(a))};
    long v2 = {POOL[b].format(nr=nr(b))};
    if ((v1 >= 0 ? v1 : v2) < 0)
        finish(CHECK_FAILED);
{_checks(draw, "    ")}
    (void)r;
    write_file("out.txt", "OK");
    finish(0);
}}
"""


def hot_source(draw: Mapping[str, str], helper: str) -> str:
    # fork and execve fail both ways (a faked fork execs the helper in the
    # root, which then never writes metric.txt); wait4 must return the pid;
    # clock_gettime's result is ignored.
    return _HEADER + f"""void _start(void)
{{
    long i, r = 0, pid;
    int st = -1;
    unsigned long t0, t1;
    char buf[32];
    char *argv[2];
    char *envp[1];

    t0 = clock_ns();
    for (i = 0; i < {HOT_ITERATIONS}; i++) {{
{_checks(draw, "        ")}
    }}
    t1 = clock_ns();
    (void)r;
    pid = sys0(SYS_fork);
    if (pid < 0)
        finish(CHECK_FAILED);
    if (pid == 0) {{
        argv[0] = "{helper}";
        argv[1] = 0;
        envp[0] = 0;
        sys3(SYS_execve, argv[0], argv, envp);
        finish(99);
    }}
    r = sys4(SYS_wait4, pid, &st, 0, 0);
    if (r != pid || st != 0)
        finish(CHECK_FAILED);
    write_file("metric.txt",
               fmt_ulong(buf, sizeof(buf), (t1 - t0) / ({HOT_ITERATIONS} * {len(draw)})));
    finish(0);
}}
"""


def helper_source(draw: Mapping[str, str]) -> str:
    return _HEADER + f"""void _start(void)
{{
    long i, r = 0;
    for (i = 0; i < {HOT_ITERATIONS}; i++) {{
{_checks(draw, "        ")}
    }}
    (void)r;
    finish(0);
}}
"""


# ---------------------------------------------------------------------------
# Building and native checks


class SetupError(Exception):
    """An app did not build or did not behave natively as generated."""


def compile_c(source: str, out: Path, defines: Mapping[str, int] = {}) -> Path:
    src = out.with_suffix(".c")
    src.write_text(source)
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise SetupError("no C compiler found")
    flags = [f"-D{k}={v}" for k, v in defines.items()]
    proc = subprocess.run([cc, *CFLAGS, *flags, "-I", str(C_DIR), "-o", str(out), str(src)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SetupError(f"compiling {src.name} failed:\n{proc.stderr}")
    return out


def copy_scripts(dest: Path) -> dict[str, str]:
    out = {}
    for script in SCRIPT_DIR.iterdir():
        target = dest / script.name
        shutil.copyfile(script, target)
        os.chmod(target, 0o755)
        out[script.name] = str(target)
    return out


def run_native(argv: list[str], cwd: Path) -> str:
    """Run a built app outside the tracer; it must exit 0.  Returns stdout."""
    cwd.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=30)
    if proc.returncode != 0:
        raise SetupError(f"{argv[0]} exited {proc.returncode} natively, expected 0")
    return proc.stdout.decode()


def _expect_file(path: Path, check) -> None:
    text = path.read_text() if path.exists() else ""
    if not check(text):
        raise SetupError(f"{path.name} has unexpected content {text!r}")


def _batch_spec(name: str, binary: Path, script: str) -> AppSpec:
    return AppSpec(name=name, app_command=(str(binary),), test_script=script,
                   whitelist=Whitelist.of_paths([str(binary)]))


def _expected(draw: Mapping[str, str], *scaffolding: Mapping[str, str]) -> dict[FeatureId, str]:
    out = {feature(n): c for n, c in draw.items()}
    for part in scaffolding:
        out.update({feature(n): c for n, c in part.items()})
    return out


def build_fleet(rng: random.Random, d: Path, scripts: Mapping[str, str]) -> list[App]:
    kinds = [("plain", s) for s in FLEET_PLAIN_SIZES]
    kinds += [("forker", FLEET_FORKER_SIZE), ("pair", FLEET_PAIR_EXTRA)]
    rng.shuffle(kinds)
    apps = []
    for i, (kind, size) in enumerate(kinds):
        name = f"fleet{i:02d}"
        binary = d / name
        confirmed = True
        if kind == "plain":
            draw = _draw(rng, POOL, _classes_for(size))
            source = plain_source(draw)
            expected = _expected(draw, WRITE_FILE_CLASSES, EXIT_CLASSES)
        elif kind == "forker":
            draw = _draw(rng, POOL, _classes_for(size))
            source = forker_source(draw)
            expected = _expected(draw, WRITE_FILE_CLASSES, EXIT_CLASSES,
                                 {"fork": CLASS_FAKE_ONLY, "wait4": CLASS_REQUIRED})
        else:
            a, b, *rest = rng.sample(list(POOL), 2 + size)
            draw = _draw(rng, rest, _classes_for(size))
            source = pair_source(a, b, draw)
            expected = _expected(draw, WRITE_FILE_CLASSES, EXIT_CLASSES,
                                 {a: CLASS_ANY, b: CLASS_ANY})
            confirmed = False
        compile_c(source, binary)
        native = d / f"native-{name}"
        run_native([str(binary)], native)
        _expect_file(native / "out.txt", lambda t: t == "OK")
        apps.append(App(_batch_spec(name, binary, scripts["check_out.sh"]),
                        expected, confirmed))
    return apps


def build_hot(rng: random.Random, d: Path, scripts: Mapping[str, str]) -> App:
    draw = _draw(rng, HOT_POOL, list(HOT_CLASSES))
    helper = compile_c(helper_source(draw), d / "hot_helper")
    binary = compile_c(hot_source(draw, str(helper)), d / "hot")
    run_native([str(helper)], d / "native-helper")
    native = d / "native-hot"
    run_native([str(binary)], native)
    _expect_file(native / "metric.txt", str.isdigit)
    expected = _expected(draw, WRITE_FILE_CLASSES, EXIT_CLASSES, {
        "fork": CLASS_REQUIRED, "execve": CLASS_REQUIRED, "wait4": CLASS_REQUIRED,
        "clock_gettime": CLASS_ANY})
    return App(_batch_spec("hot", binary, scripts["check_metric.sh"]), expected)


SERVER_CLASSES = {
    "socket": CLASS_REQUIRED, "setsockopt": CLASS_ANY, "bind": CLASS_REQUIRED,
    "listen": CLASS_REQUIRED, "accept": CLASS_REQUIRED, "read": CLASS_REQUIRED,
    "write": CLASS_REQUIRED, "close": CLASS_ANY,
}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _native_echo(binary: Path, token: str) -> None:
    """Start the server natively, echo the token once, stop it with SIGTERM."""
    port = _free_port()
    proc = subprocess.Popen([str(binary), str(port)], stdin=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 10
        while True:
            try:
                conn = socket.create_connection(("127.0.0.1", port), timeout=5)
                break
            except OSError:
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise SetupError("echo server did not come up natively") from None
                time.sleep(0.01)
        with conn:
            conn.sendall(token.encode())
            reply = conn.recv(len(token))
        if reply != token.encode():
            raise SetupError(f"echo server replied {reply!r}")
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    if proc.returncode != -15:
        raise SetupError(f"echo server ended with {proc.returncode}, expected SIGTERM")


def build_server(rng: random.Random, d: Path, scripts: Mapping[str, str]) -> App:
    binary = compile_c((C_DIR / "server.c").read_text(), d / "server")
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    token = "".join(rng.choice(alphabet) for _ in range(rng.randint(8, 24)))
    template = d / "server-template"
    template.mkdir()
    (template / "token.txt").write_text(token + "\n")
    _native_echo(binary, token)
    spec = AppSpec(name="server", app_command=(str(binary), "{port}"),
                   test_script=scripts["echo_client.sh"],
                   readiness=Readiness(port=0),
                   whitelist=Whitelist.of_paths([str(binary)]),
                   workdir_template=str(template))
    return App(spec, {feature(n): c for n, c in SERVER_CLASSES.items()})


# The loop app behind interposer.us_per_syscall.*: enough calls that the
# per-call cost dwarfs launch noise.
LOOP_CALLS = 10000


@dataclass
class MicroApps:
    """Apps for the direct per-layer measurements of the traced run."""

    noop: Path
    loop: Path
    pass_script: str


def build_micro(d: Path, scripts: Mapping[str, str]) -> MicroApps:
    noop = compile_c((C_DIR / "noop.c").read_text(), d / "noop")
    loop = compile_c((C_DIR / "loop.c").read_text(), d / "loop",
                     {"LOOP_CALLS": LOOP_CALLS})
    run_native([str(noop)], d / "native-noop")
    if not run_native([str(loop)], d / "native-loop").isdigit():
        raise SetupError("loop app did not report its ns per call")
    return MicroApps(noop, loop, scripts["pass.sh"])
