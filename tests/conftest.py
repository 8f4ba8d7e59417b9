"""Test setup: compile the freestanding C fixtures once per session.

Fixtures are tiny static binaries built with -nostdlib so their syscall
footprint is exactly the calls they make; tests rely on those exact
footprints as oracles.  The compile flags (``CFLAGS``) are:

- ``-nostdlib -nostartfiles -static``: no libc and no start-up object, so
  nothing but the fixture's own raw syscalls runs;
- ``-O2``;
- ``-ffreestanding``: gcc may not assume a hosted libc, so it does not turn
  loops such as ``cstrlen`` into calls to ``strlen``, which nothing defines;
- ``-mstackrealign``: the kernel enters ``_start`` with ``rsp`` 16-byte
  aligned, not 8 bytes off as after a ``call``, so each function realigns
  its own stack and gcc's aligned ``movaps`` spills do not fault.

Every ``fixtures/*.c`` is built and every ``fixtures/*.sh`` copied, so a
new fixture cannot be left out.  A fixture that fails to build fails the
session with gcc's stderr.
"""

import os
import platform
import shutil
import subprocess
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures"

CFLAGS = ["-nostdlib", "-nostartfiles", "-static", "-O2",
          "-ffreestanding", "-mstackrealign"]


def pytest_collection_modifyitems(config, items):
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        skip = pytest.mark.skip(reason="trace engine requires Linux on x86_64")
        for item in items:
            item.add_marker(skip)


class FixtureSet:
    """Compiled fixture binaries and executable scripts, by name."""

    def __init__(self, bindir: Path):
        self.bindir = bindir

    def binary(self, name: str) -> str:
        return str(self.bindir / name)

    def script(self, name: str) -> str:
        return str(self.bindir / name)

    def running(self, name: str) -> list[int]:
        """Pids of the live processes executing fixture binary ``name``."""
        alive = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                if os.readlink(f"/proc/{pid}/exe") == self.binary(name):
                    alive.append(int(pid))
            except OSError:
                continue
        return alive


@pytest.fixture(scope="session")
def fixtures(tmp_path_factory) -> FixtureSet:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler available to build test fixtures")
    bindir = tmp_path_factory.mktemp("fixture-bin")
    for src in sorted(FIXTURE_DIR.glob("*.c")):
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", str(bindir / src.stem), str(src)],
            cwd=FIXTURE_DIR, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            pytest.fail(f"building fixture {src.stem} failed:\n{proc.stderr}",
                        pytrace=False)
    for src in sorted(FIXTURE_DIR.glob("*.sh")):
        dst = bindir / src.name
        shutil.copy2(src, dst)
        os.chmod(dst, 0o755)
    return FixtureSet(bindir)


@pytest.fixture()
def app_spec_factory(fixtures):
    """Build AppSpecs over compiled fixtures with sensible defaults."""
    from slens import AppSpec, Readiness, Whitelist

    def make(binary: str, script: str = "check_out.sh", *,
             name: str | None = None, whitelist: list[str] | None = None,
             argv_extra: tuple[str, ...] = (), readiness: Readiness = Readiness(),
             command: tuple[str, ...] | None = None) -> AppSpec:
        cmd = command if command is not None else (fixtures.binary(binary), *argv_extra)
        wl = whitelist if whitelist is not None else [fixtures.binary(binary)]
        return AppSpec(
            name=name or binary,
            app_command=cmd,
            test_script=fixtures.script(script),
            readiness=readiness,
            whitelist=Whitelist.of_paths(wl),
        )

    return make
