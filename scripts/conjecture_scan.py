#!/usr/bin/env python3
"""Hunt for companion matrices with no commuting potent + square-zero split.

Sweeps every canonical field up to a size bound at a fixed dimension and
prints the companions (if any) with no commuting split, that is, whose
polynomial is not cube-free.  An empty last line means the sweep found no
obstruction at this scale.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from weakper.cli import _at_least, _dimension
from weakper.errors import EnumerationTooLarge
from weakper.gf import build_field, is_prime
from weakper.search import conjecture_scan


def canonical_fields(max_order):
    """All GF(p^l) with p^l <= max_order, smallest first."""
    specs = []
    for p in range(2, max_order + 1):
        if not is_prime(p):
            continue
        l = 1
        while p ** l <= max_order:
            specs.append(build_field(p, l))
            l += 1
    return sorted(specs, key=lambda s: s.order)


def field_order(text):
    """A bound on the field order, an integer >= 2: a smaller one would
    sweep no field and report no obstruction."""
    return _at_least(text, 2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_dimension, default=2)
    ap.add_argument("--max-order", type=field_order, default=5)
    ap.add_argument("--out", help="optional JSON summary path")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    found = []
    summary = []
    for spec in canonical_fields(args.max_order):
        try:
            scan = conjecture_scan(args.n, spec)
        except EnumerationTooLarge as exc:
            print(f"SKIP {spec.descriptor()}: {exc}")
            continue
        misses = [list(g) for g in scan.non_decomposable]
        summary.append({"field": spec.descriptor(),
                        "n": args.n,
                        "total": scan.report.total,
                        "non_decomposable": misses})
        print(f"{spec.descriptor()} n={args.n}: "
              f"{scan.report.decomposable}/{scan.report.total} commuting, "
              f"missing {misses or 'none'}")
        found.extend((spec.descriptor(), g) for g in misses)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(summary, indent=2) + "\n")
        print(f"summary -> {args.out}")
    print(f"obstructions: {found or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
