"""Measurement database: persist, load, and export app profiles.

Layout under a database root directory:

    <db_root>/<app>/<workload-hash>/<provenance-fp>/profile.json
    <db_root>/<app>/<workload-hash>/<provenance-fp>/meta.json

(app, workload-hash) is the primary key; the provenance fingerprint (a hash
of kernel + tool version) lets measurements of the same workload coexist
across environments, which the key rules allow.  Writes are atomic (temp
file + rename) under an exclusive per-key file lock.  The database root is
the sharing unit: it is plain files, friendly to rsync or git.

OS support CSV (input): one syscall per line, ``syscall[,status]``;
syscall is a decimal number or lowercase name; status is one of
implemented (default), stubbed, faked; ``#`` starts a comment.  The
directives ``# os: <name>`` and ``# revision: <rev>`` set the metadata.

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


class ParseError(SlensError):
    """A malformed input file; ``line`` and ``column`` are None when the
    fault is not at one place (a stored profile of the wrong shape)."""

    def __init__(self, path: str, line: int | None, column: int | None, message: str):
        where = path if line is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.column = column
        self.reason = message


class UnknownSyscallName(ParseError):
    pass


@dataclass(frozen=True)
class OsSupportSet:
    """Which syscalls an OS under development implements, stubs, or fakes."""

    implemented: frozenset[int] = frozenset()
    declared_stubs: frozenset[int] = frozenset()
    declared_fakes: frozenset[int] = frozenset()
    os_name: str = ""
    revision: str = ""

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
            os_name=self.os_name,
            revision=self.revision,
        )


@dataclass(frozen=True)
class DbEntry:
    """A stored profile plus who measured it and with what."""

    profile: AppProfile
    provenance: Mapping[str, str] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.profile.app, self.profile.workload_hash)

    def provenance_fingerprint(self) -> str:
        ident = (self.provenance.get("kernel", "") + "\0"
                 + self.provenance.get("tool_version", ""))
        return hashlib.sha256(ident.encode()).hexdigest()[:12]


def canonical_json(obj: dict) -> str:
    """Stable serialization used for storage and content comparison."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _safe_component(name: str) -> str:
    out = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return out or "_"


def _entry_dir(db_root: str, entry: DbEntry) -> str:
    app, whash = entry.key
    return os.path.join(db_root, _safe_component(app), whash,
                        entry.provenance_fingerprint())


class _Locked:
    """Exclusive advisory lock on a file, for the duration of a with-block."""

    def __init__(self, path: str):
        self.path = path
        self.fd = -1

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(self.fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.fd, fcntl.LOCK_UN)
        os.close(self.fd)


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


def _read_json(path: str, parse):
    """``parse`` of the JSON document at ``path``; ParseError if either fails."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, exc.msg) from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(path, None, None,
                         f"malformed content ({type(exc).__name__}: {exc})") from None


def save_profile(db_root: str, entry: DbEntry) -> str:
    """Persist a DbEntry; returns the path of the stored profile.

    For the same key and same kernel/tool version, a profile with the
    stored one's verdicts (observed features, their classes, confirmation)
    keeps the stored profile; metadata such as the date, and regression
    flags, may differ.  Differing verdicts are refused with a diff report.
    """
    entry_dir = _entry_dir(db_root, entry)
    os.makedirs(entry_dir, exist_ok=True)
    profile_path = os.path.join(entry_dir, "profile.json")
    meta_path = os.path.join(entry_dir, "meta.json")
    profile_data = canonical_json(entry.profile.to_json())
    meta_data = canonical_json(dict(entry.provenance))

    with _Locked(os.path.join(entry_dir, ".lock")):
        if os.path.exists(profile_path):
            old = _read_json(profile_path, AppProfile.from_json)
            # A profile's classes are keyed by exactly its observed features.
            new = entry.profile
            if (old.classes, old.confirmed) == (new.classes, new.confirmed):
                return profile_path
            raise DuplicateKey(
                f"profile for {entry.key} already stored with different verdicts:\n"
                + _profile_diff(old, entry.profile))
        _atomic_write(profile_path, profile_data)
        _atomic_write(meta_path, meta_data)
    return profile_path


def load_db(db_root: str) -> list[DbEntry]:
    """Load every entry under a database root, in a stable order.

    A malformed stored file raises ParseError naming it."""
    entries = []
    if not os.path.isdir(db_root):
        return entries
    for dirpath, _dirnames, filenames in os.walk(db_root):
        if "profile.json" not in filenames:
            continue
        profile = _read_json(os.path.join(dirpath, "profile.json"), AppProfile.from_json)
        provenance: dict[str, str] = {}
        meta_path = os.path.join(dirpath, "meta.json")
        if os.path.exists(meta_path):
            provenance = _read_json(meta_path, dict)
        entries.append(DbEntry(profile=profile, provenance=provenance))
    entries.sort(key=lambda e: (e.key, e.provenance_fingerprint()))
    return entries


def import_os_csv(path: str) -> OsSupportSet:
    """Parse an OS support CSV into an OsSupportSet."""
    implemented: set[int] = set()
    stubs: set[int] = set()
    fakes: set[int] = set()
    os_name = ""
    revision = ""
    status_sets = {"implemented": implemented, "stubbed": stubs, "faked": fakes}

    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if body.startswith("os:"):
                    os_name = body[3:].strip()
                elif body.startswith("revision:"):
                    revision = body[9:].strip()
                continue
            if "#" in line:
                line = line[: line.index("#")]
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) > 2:
                col = len(fields[0]) + len(fields[1]) + 3
                raise ParseError(path, lineno, col, "expected 'syscall[,status]'")
            token = fields[0].strip()
            col = line.index(token) + 1 if token else 1
            if not token:
                raise ParseError(path, lineno, 1, "missing syscall field")
            if token.isdigit():
                nr = int(token)
            else:
                try:
                    nr = syscalls.name_to_nr(token)
                except KeyError:
                    raise UnknownSyscallName(
                        path, lineno, col, f"unknown syscall name {token!r}") from None
            status = "implemented"
            if len(fields) == 2:
                status = fields[1].strip().lower()
                scol = line.index(fields[1]) + 1
                if status not in _STATUSES:
                    raise ParseError(
                        path, lineno, scol,
                        f"unknown status {status!r} (expected one of {', '.join(_STATUSES)})")
            for other, bucket in status_sets.items():
                if other != status and nr in bucket:
                    raise ParseError(
                        path, lineno, col,
                        f"syscall {token} already listed with status {other!r}")
            status_sets[status].add(nr)

    return OsSupportSet(
        implemented=frozenset(implemented),
        declared_stubs=frozenset(stubs),
        declared_fakes=frozenset(fakes),
        os_name=os_name or os.path.basename(path),
        revision=revision,
    )


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
