"""Measurement database: persist, load, and export app profiles.

Layout under a database root directory, one record per entry:

    <db_root>/<app>/<workload-hash>/<provenance-fp>/profile.json

(app, workload-hash) is the primary key; the provenance fingerprint, a hash
of the kernel and tool version in the profile's own ``metadata``, lets
measurements of the same workload coexist across environments, which the
key rules allow.  Writes are atomic (temp file + rename) under an exclusive
lock on the entry directory's ``.lock`` file.  The database root is the
sharing unit: it is plain files, friendly to rsync or git.  Each profile
is one line of compact JSON with sorted keys (``canonical_json``); files
written indented by earlier versions load the same, and re-saving the same
verdicts leaves them as they are.

Earlier versions also wrote ``meta.json`` beside each profile, a copy of
its metadata's kernel, tool version and date.  Here it is ignored, and a
re-save leaves it in place; an entry written by ``slens analyze`` keeps its
directory, since its fingerprint came from that same copy.  Those versions
load this layout too: they read a missing ``meta.json`` as an empty
provenance, which none of their callers reads.

A profile file (``AppProfile.to_json``, schema 2) lists each observed
feature once, with its class, in the ``classes`` list, sorted.  Loading
gives ``AppProfile`` only ``classes``, so ``observed`` comes from it (its
features, in its order) unless a caller gives it.  Schema-1 files, which
listed every feature once more under ``observed``, still load: their own
list is given, and a file whose two lists disagree is refused.  Re-saving a schema-1 profile
with the same verdicts does not rewrite it, so no migration is needed.
slens versions before schema 2 refuse a schema-2 file ("unsupported
profile schema", exit 4).

Loading shares features: ``FeatureId.from_json`` returns one object for
each distinct feature, up to a fixed number of distinct values, so a
database whose apps repeat the same few hundred features builds and checks
each of them once, and its profiles hold the same objects.  A syscall
number or sub-feature that is not an integer (a float, a bool or a string
is not coerced), a pseudo-file that is not a string, or a feature with
both, is a ParseError naming the file.

OS support CSV (input): one syscall per line, ``syscall[,status]``;
syscall is a decimal number or a lowercase name
(``syscalls.parse_nr``); status is one of implemented (default), stubbed,
faked; ``#`` starts a comment, which runs to the end of the line.  There
are no directives: a comment such as ``# os: <name>`` is only a comment.

Profile export CSV (output) uses the frozen header:

    syscall_nr,name,subfeature,pseudofile,class,stub_perf_delta,fake_perf_delta,stub_rss_delta,fake_rss_delta,stub_fds_delta,fake_fds_delta

``stub_perf_delta`` and ``fake_perf_delta`` are always empty: regression
flags no longer compare the perf metric (see ``slens.orchestrator``).  The
two columns are kept only because the header is frozen.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import SlensError
from . import syscalls
from .config import ParseError, read_input
from .interposer import FeatureId
from .orchestrator import AppProfile, feature_label

EXPORT_CSV_HEADER = (
    "syscall_nr,name,subfeature,pseudofile,class,"
    "stub_perf_delta,fake_perf_delta,stub_rss_delta,fake_rss_delta,"
    "stub_fds_delta,fake_fds_delta"
)

_STATUSES = ("implemented", "stubbed", "faked")

# Export statuses are the terse forms of the classification names.
_EXPORT_CLASS = {
    "required": "required",
    "stub_only": "stub",
    "fake_only": "fake",
    "any": "any",
}


class DuplicateKey(SlensError):
    """Same key and provenance with differing content; refused."""


class UnknownSyscallName(ParseError):
    pass


@dataclass(frozen=True)
class OsSupportSet:
    """Which syscalls an OS under development implements, stubs, or fakes."""

    implemented: frozenset[int] = frozenset()
    declared_stubs: frozenset[int] = frozenset()
    declared_fakes: frozenset[int] = frozenset()

    def __post_init__(self):
        overlap = (self.implemented & self.declared_stubs
                   | self.implemented & self.declared_fakes
                   | self.declared_stubs & self.declared_fakes)
        if overlap:
            raise ValueError(f"support sets overlap on syscalls {sorted(overlap)}")

    def with_additions(self, implement: Iterable[int] = (), stub: Iterable[int] = (),
                       fake: Iterable[int] = ()) -> "OsSupportSet":
        """This state plus the given syscalls; implementing a declared
        syscall removes it from its declared set."""
        implemented = self.implemented | frozenset(implement)
        return OsSupportSet(
            implemented=implemented,
            declared_stubs=(self.declared_stubs - implemented) | frozenset(stub),
            declared_fakes=(self.declared_fakes - implemented) | frozenset(fake),
        )


@dataclass(frozen=True)
class DbEntry:
    """A stored profile; its metadata says where and with what it was
    measured.  Nothing reads ``provenance``: it stays a field only because
    perfbench/dbgen.py passes it."""

    profile: AppProfile
    provenance: Mapping[str, str] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.profile.app, self.profile.workload_hash)

    def provenance_fingerprint(self) -> str:
        metadata = self.profile.metadata
        ident = f"{metadata.get('kernel', '')}\0{metadata.get('tool_version', '')}"
        return hashlib.sha256(ident.encode()).hexdigest()[:12]


def canonical_json(obj: dict) -> str:
    """Stable serialization used for storage: compact, one line, keys
    sorted.  Without ``indent`` CPython encodes in C, several times faster."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _safe_component(name: str) -> str:
    """``name`` as one directory name; one of only dots (``..``) or none at
    all would not stay under its parent, so it gains a leading ``_``."""
    out = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return out if out.strip(".") else "_" + out


def _entry_dir(db_root: str, entry: DbEntry) -> str:
    app, whash = entry.key
    return os.path.join(db_root, _safe_component(app), whash,
                        entry.provenance_fingerprint())


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.rename(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _profile_diff(old: AppProfile, new: AppProfile) -> str:
    lines = []
    for f in sorted(set(old.classes) | set(new.classes), key=FeatureId.sort_key):
        a = old.classes.get(f, "<absent>")
        b = new.classes.get(f, "<absent>")
        if a != b:
            lines.append(f"  {feature_label(f)}: {a} -> {b}")
    if old.confirmed != new.confirmed:
        lines.append(f"  confirmed: {old.confirmed} -> {new.confirmed}")
    return "\n".join(lines)


def _read_profile(path: str) -> AppProfile:
    return read_input(path, lambda text: AppProfile.from_json(json.loads(text)))


def save_profile(db_root: str, entry: DbEntry) -> str:
    """Persist a DbEntry as its one file, ``profile.json``; returns its path.

    For the same key and the same kernel and tool version in the profile's
    metadata, a profile with the stored one's verdicts (observed features,
    their classes, confirmation) keeps the stored profile; metadata such as
    the date, and regression flags, may differ.  Differing verdicts are
    refused with a diff report.
    """
    entry_dir = _entry_dir(db_root, entry)
    os.makedirs(entry_dir, exist_ok=True)
    profile_path = os.path.join(entry_dir, "profile.json")
    profile_data = canonical_json(entry.profile.to_json())

    # The exclusive flock ends when the lock file closes.
    with open(os.path.join(entry_dir, ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(profile_path):
            old = _read_profile(profile_path)
            # A profile's classes are keyed by exactly its observed features.
            new = entry.profile
            if (old.classes, old.confirmed) == (new.classes, new.confirmed):
                return profile_path
            raise DuplicateKey(
                f"profile for {entry.key} already stored with different verdicts:\n"
                + _profile_diff(old, entry.profile))
        _atomic_write(profile_path, profile_data)
    return profile_path


def load_db(db_root: str) -> list[DbEntry]:
    """Load every entry under a database root, in a stable order.

    A malformed stored file raises ParseError naming it."""
    entries = []
    if not os.path.isdir(db_root):
        return entries
    for dirpath, _dirnames, filenames in os.walk(db_root):
        if "profile.json" in filenames:
            entries.append(DbEntry(_read_profile(os.path.join(dirpath, "profile.json"))))
    entries.sort(key=lambda e: (e.key, e.provenance_fingerprint()))
    return entries


def import_os_csv(path: str) -> OsSupportSet:
    """Parse an OS support CSV into an OsSupportSet."""
    return read_input(path, lambda text: _parse_os_csv(path, text))


def _parse_os_csv(path: str, text: str) -> OsSupportSet:
    status_sets = {status: set() for status in _STATUSES}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0]
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) > 2:
            col = len(fields[0]) + len(fields[1]) + 3
            raise ParseError(path, lineno, col, "expected 'syscall[,status]'")
        token = fields[0].strip()
        if not token:
            raise ParseError(path, lineno, 1, "missing syscall field")
        col = line.index(token) + 1
        try:
            nr = syscalls.parse_nr(token)
        except KeyError:
            raise UnknownSyscallName(
                path, lineno, col, f"unknown syscall name {token!r}") from None
        status = "implemented"
        if len(fields) == 2:
            status = fields[1].strip().lower()
            if status not in _STATUSES:
                raise ParseError(
                    path, lineno, len(fields[0]) + 2,
                    f"unknown status {status!r} (expected one of {', '.join(_STATUSES)})")
        for other, bucket in status_sets.items():
            if other != status and nr in bucket:
                raise ParseError(
                    path, lineno, col,
                    f"syscall {token} already listed with status {other!r}")
        status_sets[status].add(nr)
    return OsSupportSet(implemented=frozenset(status_sets["implemented"]),
                        declared_stubs=frozenset(status_sets["stubbed"]),
                        declared_fakes=frozenset(status_sets["faked"]))


def export_profile_csv(profile: AppProfile) -> str:
    """Render a profile as CSV under the frozen export header."""
    out = io.StringIO()
    out.write(EXPORT_CSV_HEADER + "\n")

    def delta(feature: FeatureId, mode: str, metric: str) -> str:
        flags = profile.regressions.get((feature, mode))
        if flags is None or metric not in flags:
            return ""
        return f"{flags[metric]:+.4f}"

    for f in sorted(profile.observed, key=FeatureId.sort_key):
        name = syscalls.nr_to_name(f.syscall_nr) or ""
        sub = "" if f.subfeature is None else f"{f.subfeature:#x}"
        pseudo = f.pseudofile or ""
        row = [
            str(f.syscall_nr), name, sub, pseudo, _EXPORT_CLASS[profile.classes[f]],
            delta(f, "stub", "perf"), delta(f, "fake", "perf"),
            delta(f, "stub", "rss"), delta(f, "fake", "rss"),
            delta(f, "stub", "fds"), delta(f, "fake", "fds"),
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()
