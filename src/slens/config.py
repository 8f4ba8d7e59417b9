"""Tool configuration: sub-feature selectors, fake values, pseudo-file prefixes.

The configuration file is JSON with three documented keys, all optional:

    {
      "subfeature_selectors": {"ioctl": 1, "fcntl": 1},
      "fake_values": {"pipe2": 0},
      "pseudo_prefixes": ["/proc", "/dev", "/sys"]
    }

``subfeature_selectors`` maps a vectored syscall to the 0-based index of the
argument that selects the sub-feature, 0 to 5 (a syscall has six argument
registers).  ``fake_values`` overrides the value injected when a syscall
is faked (default 0); a value must fit a 64-bit register, -2**63 to
2**64 - 1.  Values in both tables are JSON integers: a float, a bool or a
string is refused, not coerced.  Keys are read as the OS support CSV reads
a syscall (``syscalls.parse_nr``): a decimal number or a lowercase name.
Values given in a config file replace the built-in default for that key
entirely.

This module also holds ``read_input``, the one way a file the user names
(config, policy, OS support CSV, app ordering) or a stored database file
becomes data: every fault in reading, decoding or parsing it is a
``ParseError`` that names the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping

from . import SlensError
from . import syscalls


class ParseError(SlensError):
    """An input file that cannot be read, decoded or parsed; ``line`` and
    ``column`` are None when the fault is not at one place (an unreadable
    file, a stored profile of the wrong shape)."""

    def __init__(self, path: str, line: int | None, column: int | None, message: str):
        where = path if line is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.column = column
        self.reason = message


def read_input(path: str, parse):
    """``parse`` of the UTF-8 text of the file at ``path``.

    A file that cannot be read or decoded, JSON that does not parse, and a
    ValueError, KeyError, TypeError or AttributeError from ``parse`` raise
    ParseError naming ``path``; a ParseError from ``parse`` passes as is."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except OSError as exc:
        raise ParseError(path, None, None, f"cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, exc.msg) from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(path, None, None,
                         f"malformed content ({type(exc).__name__}: {exc})") from None


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

DEFAULT_PSEUDO_PREFIXES = ("/proc", "/dev", "/sys")


def _by_nr(names: Mapping[str, int]) -> dict[int, int]:
    return {syscalls.name_to_nr(name): v for name, v in names.items()}


# Syscalls whose first path argument may name a pseudo-file, by number, and
# the index of that argument.
OPEN_FAMILY = _by_nr({"open": 0, "creat": 0, "openat": 1, "openat2": 1})


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


def check_register(value: int, what: str) -> None:
    """Raise ValueError naming ``what`` unless ``value`` fits a 64-bit
    register, -2**63 to 2**64 - 1."""
    if not -2**63 <= value < 2**64:
        raise ValueError(f"{what}: {value} does not fit a 64-bit register")


def check_int(value, what: str) -> int:
    """``value`` if it is an integer; a float, a bool or a string raises
    ValueError naming ``what`` rather than being coerced."""
    if type(value) is not int:
        raise ValueError(f"{what}: {value!r} is not an integer")
    return value


def _int_table(raw: dict, key: str) -> dict[int, int]:
    """The ``{syscall: integer}`` table under ``key``, keyed by number."""
    try:
        return {syscalls.parse_nr(k): check_int(v, k) for k, v in raw[key].items()}
    except KeyError as exc:
        raise ValueError(f"{key}: unknown syscall name {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: expected an object of integers: {exc}") from None


def load_tables(path: str) -> InterposerTables:
    """Load InterposerTables from a JSON config file, merged over defaults;
    raises ParseError for an unreadable file or a malformed value."""
    return read_input(path, lambda text: _tables_of(json.loads(text)))


def _tables_of(raw) -> InterposerTables:
    if not isinstance(raw, dict):
        raise TypeError("top-level value must be an object")
    tables = InterposerTables()
    if "subfeature_selectors" in raw:
        selectors = _int_table(raw, "subfeature_selectors")
        for nr, index in selectors.items():
            if not 0 <= index <= 5:
                name = syscalls.nr_to_name(nr) or nr
                raise ValueError(f"subfeature_selectors: {name}: argument index {index} "
                                 "is not in 0..5")
        tables = replace(tables, subfeature_selectors=selectors)
    if "fake_values" in raw:
        values = _int_table(raw, "fake_values")
        for nr, value in values.items():
            check_register(value, f"fake_values: {syscalls.nr_to_name(nr) or nr}")
        tables = replace(tables, fake_values=values)
    if "pseudo_prefixes" in raw:
        prefixes = tuple(str(p) for p in raw["pseudo_prefixes"])
        for p in prefixes:
            if not p.startswith("/"):
                raise ValueError(f"pseudo_prefixes: {p!r} is not an absolute path")
        tables = replace(tables, pseudo_prefixes=prefixes)
    return tables
