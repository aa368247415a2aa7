#!/usr/bin/env python3
"""Hunt for companion matrices with no commuting potent + square-zero split.

Sweeps every canonical field up to a size bound at a fixed dimension and
prints the companions (if any) with no commuting split, that is, whose
polynomial is not cube-free.  An empty last line means the sweep found no
obstruction at this scale.
"""

import argparse
import dataclasses
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from weakper.errors import EnumerationTooLarge
from weakper.gf import build_field, is_prime
from weakper.search import conjecture_scan


@dataclasses.dataclass(frozen=True)
class ScanConfig:
    n: int
    max_order: int
    out: pathlib.Path | None = None


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


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--max-order", type=int, default=5)
    ap.add_argument("--out", default=None, help="optional JSON summary path")
    args = ap.parse_args(argv)
    return ScanConfig(
        n=args.n,
        max_order=args.max_order,
        out=pathlib.Path(args.out) if args.out else None,
    )


def main(argv=None):
    config = parse_args(argv)
    found = []
    summary = []
    for spec in canonical_fields(config.max_order):
        try:
            scan = conjecture_scan(config.n, spec)
        except EnumerationTooLarge as exc:
            print(f"SKIP {spec.descriptor()}: {exc}")
            continue
        misses = [list(g) for g in scan.non_decomposable]
        summary.append({"field": spec.descriptor(),
                        "n": config.n,
                        "total": scan.report.total,
                        "non_decomposable": misses})
        print(f"{spec.descriptor()} n={config.n}: "
              f"{scan.report.decomposable}/{scan.report.total} commuting, "
              f"missing {misses or 'none'}")
        found.extend((spec.descriptor(), g) for g in misses)
    if config.out:
        config.out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"summary -> {config.out}")
    print(f"obstructions: {found or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
