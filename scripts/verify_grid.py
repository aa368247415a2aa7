#!/usr/bin/env python3
"""Run one decomposition mode over a grid of (field, dimension) cells.

Writes each cell's report as `weakper verify --out` writes it and prints a
one-line summary each, so sweeps can be resumed or diffed cheaply.  Cells
whose search space exceeds the caps are skipped, not fatal.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from weakper.cli import _cap
from weakper.companion import DEFAULT_ENUM_BOUND
from weakper.errors import FieldTooSmall, SearchSpaceTooLarge, WeakperError
from weakper.gf import parse_field
from weakper.search import DEFAULT_BRUTE_CAP, MODES, verify_field


def dimensions(text):
    """Comma-separated matrix dimensions, each an integer >= 1."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"must be integers >= 1, got {text!r}")
    return values


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", default="2,3,2^2,5,7,2^3,3^2",
                    help="comma-separated field descriptors")
    ap.add_argument("--n", default="2,3", type=dimensions,
                    help="comma-separated matrix dimensions")
    ap.add_argument("--mode", default="constructive", choices=MODES)
    ap.add_argument("--out-dir", default="grid_reports", type=pathlib.Path)
    ap.add_argument("--enum-cap", type=_cap, default=DEFAULT_ENUM_BOUND)
    ap.add_argument("--brute-cap", type=_cap, default=DEFAULT_BRUTE_CAP)
    return ap.parse_args(argv)


def run_grid(args):
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    total_failed = 0
    for descriptor in fields:
        try:
            spec = parse_field(descriptor)
        except WeakperError as exc:
            print(f"ERROR {descriptor}: {exc}")
            total_failed += 1
            continue
        for n in args.n:
            tag = f"{spec.descriptor().replace('/', '_')}_n{n}_{args.mode}"
            try:
                report = verify_field(n, spec, args.mode, args.enum_cap,
                                      args.brute_cap)
            except (FieldTooSmall, SearchSpaceTooLarge) as exc:
                print(f"SKIP {tag}: {exc}")
                continue
            except WeakperError as exc:
                print(f"ERROR {tag}: {exc}")
                total_failed += 1
                continue
            path = args.out_dir / f"{tag}.json"
            path.write_bytes(report.to_json())
            total_failed += report.failed
            print(f"{'OK  ' if not report.failed else 'FAIL'} {tag}: "
                  f"{report.decomposable}/{report.total} decomposable "
                  f"-> {path}")
    return total_failed


def main(argv=None):
    failed = run_grid(parse_args(argv))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
