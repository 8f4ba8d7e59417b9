"""Tool configuration: sub-feature selectors, fake values, pseudo-file prefixes.

The configuration file is JSON with three documented keys, all optional:

    {
      "subfeature_selectors": {"ioctl": 1, "fcntl": 1},
      "fake_values": {"pipe2": 0},
      "pseudo_prefixes": ["/proc", "/dev", "/sys"]
    }

``subfeature_selectors`` maps a vectored syscall to the 0-based index of the
argument that selects the sub-feature.  ``fake_values`` overrides the value
injected when a syscall is faked (default 0).  Keys may be syscall names or
decimal numbers.  Values given in a config file replace the built-in default
for that key entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping

from . import SlensError
from . import syscalls


class ConfigError(SlensError):
    """The configuration file could not be parsed or references unknown names."""


# Argument index carrying the sub-feature selector, for vectored syscalls.
_DEFAULT_SELECTORS = {
    "ioctl": 1,
    "fcntl": 1,
    "prctl": 0,
    "arch_prctl": 0,
    "madvise": 2,
    "futex": 1,
    "setsockopt": 2,
}

# Syscalls whose first path argument may name a pseudo-file, and the index
# of that argument.
_DEFAULT_OPEN_FAMILY = {
    "open": 0,
    "creat": 0,
    "openat": 1,
    "openat2": 1,
}

DEFAULT_PSEUDO_PREFIXES = ("/proc", "/dev", "/sys")


def _by_nr(names: Mapping[str, int]) -> dict[int, int]:
    return {syscalls.name_to_nr(name): v for name, v in names.items()}


@dataclass(frozen=True)
class InterposerTables:
    """Classification and injection tables consumed by the trace engine.

    All syscall keys are numbers for the reference architecture.
    """

    subfeature_selectors: Mapping[int, int] = field(
        default_factory=lambda: _by_nr(_DEFAULT_SELECTORS)
    )
    fake_values: Mapping[int, int] = field(default_factory=dict)
    pseudo_prefixes: tuple[str, ...] = DEFAULT_PSEUDO_PREFIXES
    open_family: Mapping[int, int] = field(
        default_factory=lambda: _by_nr(_DEFAULT_OPEN_FAMILY)
    )

    def fake_value_for(self, syscall_nr: int) -> int:
        return self.fake_values.get(syscall_nr, 0)

    def restricted(self, *, subfeatures: bool, pseudofiles: bool) -> "InterposerTables":
        """Return a copy with sub-feature or pseudo-file classification disabled."""
        t = self
        if not subfeatures:
            t = replace(t, subfeature_selectors={})
        if not pseudofiles:
            t = replace(t, pseudo_prefixes=())
        return t


DEFAULT_TABLES = InterposerTables()


def _parse_syscall_key(key: str, where: str) -> int:
    if key.isdigit():
        return int(key)
    try:
        return syscalls.name_to_nr(key)
    except KeyError:
        raise ConfigError(f"{where}: unknown syscall name {key!r}") from None


def _int_table(raw: dict, key: str) -> dict[int, int]:
    """The ``{syscall: integer}`` table under ``key``, keyed by number."""
    try:
        return {_parse_syscall_key(k, key): int(v) for k, v in raw[key].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected an object of integers: {exc}") from None


def load_tables(path: str) -> InterposerTables:
    """Load InterposerTables from a JSON config file, merged over defaults;
    raises ConfigError for an unreadable file or a malformed value."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top-level value must be an object")

    tables = InterposerTables()
    if "subfeature_selectors" in raw:
        tables = replace(tables,
                         subfeature_selectors=_int_table(raw, "subfeature_selectors"))
    if "fake_values" in raw:
        tables = replace(tables, fake_values=_int_table(raw, "fake_values"))
    if "pseudo_prefixes" in raw:
        prefixes = tuple(str(p) for p in raw["pseudo_prefixes"])
        for p in prefixes:
            if not p.startswith("/"):
                raise ConfigError(f"pseudo_prefixes: {p!r} is not an absolute path")
        tables = replace(tables, pseudo_prefixes=prefixes)
    return tables
