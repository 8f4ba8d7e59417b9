#!/usr/bin/env python3
"""Print the sha256 of the planner commands' outputs on synthetic databases.

    python3 tools/plan_digests.py CHECKOUT [--apps N] [--seeds 1-3]

Imports slens from ``CHECKOUT/src`` and the database generator from
``CHECKOUT/perfbench/dbgen.py``.  For each seed it builds a database of N
apps (default: dbgen's own size) with ``dbgen.generate(random.Random(seed),
...)`` in a temporary directory, and runs ``plan``, ``compare --order`` and
``importance``, each with and without ``--json``, in this process.  It
prints one JSON line: the sha256 of each command's stdout, per seed.  Two
checkouts whose planner outputs are byte-identical print the same line.
Nothing is written under the checkout: no ``__pycache__`` either.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--apps", type=int, help="apps per database (at least 2)")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-3"), help="N or N-M")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(args.checkout / "src"), str(args.checkout / "perfbench")]
    import dbgen
    import slens.cli

    if args.apps is not None:
        dbgen.APPS = args.apps
    digests = {}
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as d:
            db = dbgen.generate(random.Random(seed), Path(d))
            base = ["--db", str(db.root)]
            targets = [*base, "--os-support", str(db.os_csv)]
            commands = {"plan": ["plan", *targets],
                        "compare --order": ["compare", *targets, "--order", str(db.order)],
                        "importance": ["importance", *base]}
            digests[seed] = {}
            for name, command in commands.items():
                for flags in ([], ["--json"]):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = slens.cli.main(command + flags)
                    if code != 0:
                        raise SystemExit(f"error: {name} {flags} on seed {seed} "
                                         f"exited {code}")
                    key = " ".join([name, *flags])
                    digests[seed][key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(json.dumps({"apps": dbgen.APPS, "digests": digests}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
