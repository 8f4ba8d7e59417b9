"""Syscall name <-> number mapping for x86_64, the architecture the trace
engine supports.  The table ships as a data file."""

from __future__ import annotations

import functools
from importlib import resources


@functools.lru_cache(maxsize=None)
def _load() -> tuple[dict[str, int], dict[int, str]]:
    text = resources.files("slens.data").joinpath("syscalls_x86_64.tsv").read_text()
    by_name: dict[str, int] = {}
    by_nr: dict[int, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        nr_s, name = line.split("\t")
        nr = int(nr_s)
        by_name[name] = nr
        by_nr[nr] = name
    return by_name, by_nr


def name_to_nr(name: str) -> int:
    """Return the syscall number for a lowercase syscall name.

    Raises KeyError for unknown names.
    """
    return _load()[0][name]


def nr_to_name(nr: int) -> str | None:
    """Return the syscall name for a number, or None if unknown."""
    return _load()[1].get(nr)


def known_names() -> frozenset[str]:
    return frozenset(_load()[0])
