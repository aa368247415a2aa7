"""Command-line front end.

Subcommands: field-info, decompose, verify, sets, conjecture, lemmas.
Reports are JSON by default (deterministic: sorted keys, fixed layout);
CSV carries summaries only, text is a terse human rendering.  Exit codes:
0 success, 1 a checked lemma or construction failed, 2 invalid input,
3 a resource bound was exceeded, 141 stdout was closed before the report
was written.
"""

import argparse
import gc
import io
import itertools
import os
import random
import sys
import tempfile

from .companion import (
    DEFAULT_ENUM_BOUND,
    companion_of,
    enumerate_companions,
    potent_trace_set,
)
from .errors import (
    InputError,
    LimitError,
    TraceNotRealizable,
    WeakperError,
)
from .gf import (
    parse_field,
    power_exceeds,
    roots_of_unity,
    subfield_lattice,
)
from .mat import Mat, is_potent, is_potent_iterative
from .poly import parse_poly
from .rosets import (
    DEFAULT_M_MAX,
    containment_report,
    gcd_failures,
    pattern_spectra,
    prime_shift_certificate,
    unity_sum_set,
)
from .search import (
    DEFAULT_BRUTE_CAP,
    MODES,
    TOOL_VERSION,
    _dumps,
    cached_summary,
    conjecture_scan,
    count_decompositions,
    decompose,
    verify_field,
)

DEFAULT_SEED = 1729
# stdout was closed before the report was written; the shell reports a
# process that SIGPIPE killed with the same code
EXIT_BROKEN_PIPE = 141


def _csv_text(summary):
    # imported where used: every run pays for a module-level import, and
    # only --format csv needs this one
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    keys = list(summary)
    writer.writerow(keys)
    writer.writerow([summary[k] for k in keys])
    return buf.getvalue()


def _atomic_write(path, data):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".weakper-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(args, payload_bytes, summary, text_lines):
    if args.format == "json":
        data = payload_bytes
    elif args.format == "csv":
        data = _csv_text(summary).encode("utf-8")
    else:
        data = ("\n".join(text_lines) + "\n").encode("utf-8")
    if args.out:
        try:
            _atomic_write(args.out, data)
        except OSError as exc:
            # a path that cannot be written is bad input, not a failed
            # check (exit 1) or a traceback
            raise InputError(
                f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(data.decode("utf-8"))


def _cache_dir(args):
    return os.environ.get("WEAKPER_CACHE") or args.cache


def _cache_path(cache_dir, key):
    return os.path.join(cache_dir, key + ".json")


def _cache_load(cache_dir, key):
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _cache_store(cache_dir, key, data):
    try:
        _atomic_write(_cache_path(cache_dir, key), data)
    except OSError as exc:
        print(f"warning: could not write cache: {exc}", file=sys.stderr)


def _cmd_field_info(args):
    spec = parse_field(args.field)
    roots = {
        str(i): sorted(roots_of_unity(spec, i))
        for i in range(1, min(24, spec.order - 1) + 1)
    }
    payload = {
        "field": spec.descriptor(),
        "p": spec.p,
        "l": spec.l,
        "order": spec.order,
        "modulus": list(spec.modulus),
        "generator": spec.generator(),
        "subfields": [s.descriptor() for s in subfield_lattice(spec)],
        "roots_of_unity": roots,
    }
    summary = {
        "field": payload["field"],
        "order": payload["order"],
        "generator": payload["generator"],
        "subfields": len(payload["subfields"]),
    }
    text = [
        f"field {payload['field']}",
        f"order {payload['order']}",
        f"generator {payload['generator']}",
        "subfields " + " ".join(payload["subfields"]),
    ]
    text.extend(f"roots_of_unity[{i}] = "
                + ",".join(str(x) for x in roots[i])
                for i in sorted(roots, key=int))
    _emit(args, _dumps(payload).encode("utf-8"), summary, text)
    return 0


def _cmd_decompose(args):
    spec = parse_field(args.field)
    form = companion_of(parse_poly(spec, args.poly))
    witness = None
    reason = None
    try:
        witness = decompose(form, args.mode, args.brute_cap)
    except TraceNotRealizable as exc:
        reason = str(exc)
    payload = {
        "field": spec.descriptor(),
        "n": form.n,
        "g": list(form.low_coeffs),
        "mode": args.mode,
        "status": "decomposable" if witness else "not_decomposable",
    }
    if witness is not None:
        payload["witness"] = witness.serialize(form)
    if reason is not None:
        payload["reason"] = reason
    if args.count_witnesses:
        payload["witness_counts"] = count_decompositions(
            form.matrix, args.brute_cap)
    summary = {
        "field": payload["field"],
        "n": payload["n"],
        "mode": args.mode,
        "status": payload["status"],
    }
    text = [f"field {payload['field']}",
            f"g {','.join(str(c) for c in payload['g'])},1",
            f"status {payload['status']}"]
    if witness is not None:
        text.extend(witness.text_lines())
    _emit(args, _dumps(payload).encode("utf-8"), summary, text)
    return 0 if witness is not None else 1


def _verify_cache_key(spec, n, mode, enum_cap, brute_cap):
    # the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before) gives
    # the digest hashlib gives without loading OpenSSL, about 5 ms a process
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    # only brute mode reads brute_cap, so only its entries depend on it
    fields = ["verify", spec.descriptor(), str(n), mode, str(enum_cap)]
    if mode == "brute":
        fields.append(str(brute_cap))
    blob = "|".join(fields + [TOOL_VERSION])
    return sha256(blob.encode("utf-8")).hexdigest()


def _cmd_verify(args):
    spec = parse_field(args.field)
    n = args.n
    cache_dir = _cache_dir(args)
    summary = None
    if cache_dir:
        key = _verify_cache_key(spec, n, args.mode, args.enum_cap,
                                args.brute_cap)
        payload_bytes = _cache_load(cache_dir, key)
        if payload_bytes is not None:
            # an entry that cannot answer this request is a miss and gets
            # rewritten: it must neither turn every later run into an
            # error nor change a verdict
            summary = cached_summary(payload_bytes, spec, n, args.mode,
                                     args.brute_cap)
    if summary is None:
        report = verify_field(n, spec, args.mode, args.enum_cap,
                              args.brute_cap)
        payload_bytes = report.to_json()
        if cache_dir:
            _cache_store(cache_dir, key, payload_bytes)
        summary = report.summary
    text = [f"field {summary['field']} n {summary['n']} "
            f"mode {summary['mode']}",
            f"total {summary['total']} decomposable "
            f"{summary['decomposable']} failed {summary['failed']}"]
    _emit(args, payload_bytes, summary, text)
    if args.mode == "constructive" and summary["failed"]:
        return 1
    return 0


def _cmd_sets(args):
    spec = parse_field(args.field)
    n = args.n
    ext = args.ext_bound if args.ext_bound is not None else n
    m_max = args.m_max
    traces = sorted(potent_trace_set(n, spec, args.enum_cap))
    sums = unity_sum_set(n, spec, ext)
    spectra_payload = {}
    for m in range(2, m_max + 1):
        spectra = pattern_spectra(m, n, spec, ext)
        spectra_payload[str(m)] = [
            {"root": root, "field": home.descriptor(),
             "pattern": pattern.serialize()}
            for (root, home), pattern in sorted(
                spectra.items(), key=lambda kv: (kv[0][1].l, kv[0][0]))
        ]
    report = containment_report(n, spec, ext, m_max,
                                enum_bound=args.enum_cap)
    payload = {
        "field": spec.descriptor(),
        "n": n,
        "ext_degree": ext,
        "m_max": m_max,
        "potent_traces": traces,
        "unity_sums": [sums[v].serialize() for v in sorted(sums)],
        "pattern_spectra": spectra_payload,
        "containments": report.serialize(),
    }
    summary = {
        "field": payload["field"],
        "n": n,
        "trace_count": len(traces),
        "unity_sum_count": len(sums),
        "containments_passed": report.passed,
    }
    text = [
        f"field {payload['field']} n {n} ext_degree {ext}",
        "potent_traces " + ",".join(str(t) for t in traces),
        "unity_sums " + ",".join(str(v) for v in sorted(sums)),
        f"containments_passed {report.passed}",
    ]
    _emit(args, _dumps(payload).encode("utf-8"), summary, text)
    return 0 if report.passed else 1


def _cmd_conjecture(args):
    spec = parse_field(args.field)
    n = args.n
    scan = conjecture_scan(n, spec, args.enum_cap)
    summary = {
        "field": scan.report.field,
        "n": scan.report.n,
        "total": scan.report.total,
        "decomposable": scan.report.decomposable,
        "non_decomposable": len(scan.non_decomposable),
    }
    text = [
        f"field {scan.report.field} n {n} mode commuting",
        f"total {scan.report.total} decomposable "
        f"{scan.report.decomposable}",
        "non_decomposable "
        + (";".join(",".join(str(c) for c in g)
                    for g in scan.non_decomposable) or "none"),
    ]
    _emit(args, scan.to_json(), summary, text)
    return 0


def _randrange_draws(rng, bound, start=0):
    """Endless rng.randrange(start, start + bound) draws, drawn as CPython
    draws them: bound.bit_length() bits from rng.getrandbits, drawn again
    while they reach bound.  The values, their order and the state rng is
    left in are those of the randrange calls, without their argument
    checks."""
    getrandbits = rng.getrandbits
    k = bound.bit_length()
    while True:
        r = getrandbits(k)
        if r < bound:
            yield start + r


def _cmd_lemmas(args):
    spec = parse_field(args.field)
    n = args.n
    ext = args.ext_bound if args.ext_bound is not None else n
    rng = random.Random(args.seed)
    results = {}

    report = containment_report(n, spec, ext, args.m_max,
                                enum_bound=args.enum_cap)
    results["trace_set_in_unity_sums"] = (
        not report.trace_violations,
        f"violations {list(report.trace_violations)}"
        + (" (0 exempt: sums are nonempty)" if report.zero_exempt else ""))
    results["unity_sums_in_spectra"] = (
        not report.membership_violations,
        f"violations {list(report.membership_violations)}, "
        f"skipped {list(report.skipped)}")
    results["divisor_count_agreement"] = (
        report.divisor_agreement, "direct enumeration cross-check")

    bad_shift = []
    for m in range(2, args.m_max + 1):
        for (root, home) in pattern_spectra(m, n, spec, ext):
            if prime_shift_certificate(root, home, m) is None:
                bad_shift.append((m, root, home.descriptor()))
    results["spectra_shift_certificates"] = (
        not bad_shift, f"missing {bad_shift}")

    # (a, b, c) are three consecutive draws from 1..10^6
    draws = _randrange_draws(rng, 10 ** 6, 1)
    bad_gcd = gcd_failures(itertools.islice(zip(draws, draws, draws), 10000))
    results["gcd_product_divisibility"] = (
        bad_gcd == 0, f"{bad_gcd} failures in 10000 seeded triples")

    if not power_exceeds(spec.order, n, 64):
        forms = list(enumerate_companions(n, spec, args.enum_cap))
        law_ok = True
        for f1 in forms:
            for f2 in forms:
                diff = f1.matrix - f2.matrix
                same_trace = f1.trace() == f2.trace()
                if ((diff * diff).is_zero()) != same_trace:
                    law_ok = False
        results["same_trace_difference_square_zero"] = (
            law_ok, f"all {len(forms) ** 2} companion pairs")
    else:
        results["same_trace_difference_square_zero"] = (
            True, f"skipped (q^n = {spec.order ** n} > 64)")

    entries = _randrange_draws(rng, spec.order)
    mismatch = 0
    for _ in range(200):
        M = Mat._raw(spec, n, tuple(itertools.islice(entries, n * n)))
        if is_potent(M) != is_potent_iterative(M):
            mismatch += 1
    results["potency_route_agreement"] = (
        mismatch == 0, f"{mismatch} disagreements in 200 seeded samples")

    all_passed = all(ok for ok, _ in results.values())
    payload = {
        "field": spec.descriptor(),
        "n": n,
        "ext_degree": ext,
        "m_max": args.m_max,
        "seed": args.seed,
        "results": {name: {"passed": ok, "detail": detail}
                    for name, (ok, detail) in results.items()},
        "passed": all_passed,
    }
    if args.out:
        summary = {"field": payload["field"], "n": n,
                   "passed": all_passed}
        text = [f"{'PASS' if ok else 'FAIL'} {name}"
                for name, (ok, _) in results.items()]
        _emit(args, _dumps(payload).encode("utf-8"), summary, text)
    # after --out is written, so that a closed stdout cannot lose the file
    for name, (ok, detail) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_passed else 1


def _at_least(text, low):
    message = f"must be an integer >= {low}, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < low:
        raise argparse.ArgumentTypeError(message)
    return value


def _cap(text):
    """A search bound counts candidates, so a negative one is a usage
    error; 0 is a bound that every search exceeds."""
    return _at_least(text, 0)


def _dimension(text):
    """A matrix dimension or an extension degree: an integer >= 1."""
    return _at_least(text, 1)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", required=True,
                        help="field descriptor, e.g. 3, 2^4, or 2^2/1,1,1")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")

    # read by the subcommands that enumerate all q^n companions
    companions = argparse.ArgumentParser(add_help=False)
    companions.add_argument("--n", type=_dimension, required=True)
    companions.add_argument("--enum-cap", type=_cap,
                            default=DEFAULT_ENUM_BOUND)

    # read by the subcommands that run a brute search
    brute_cap = argparse.ArgumentParser(add_help=False)
    brute_cap.add_argument("--brute-cap", type=_cap,
                           default=DEFAULT_BRUTE_CAP)

    # read by sets and lemmas only
    spectra = argparse.ArgumentParser(add_help=False)
    spectra.add_argument("--ext-bound", type=_dimension, default=None,
                         help="max extension degree (default: n)")
    # no cycle is shorter than 2
    spectra.add_argument("--m-max", type=lambda text: _at_least(text, 2),
                         default=DEFAULT_M_MAX)

    parser = argparse.ArgumentParser(
        prog="weakper",
        description="Weakly-periodic decompositions of companion matrices "
                    "over finite fields, with verification reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("field-info", parents=[common],
                   help="field structure: modulus, generator, subfields, "
                        "roots of unity")

    p_dec = sub.add_parser("decompose", parents=[common, brute_cap],
                           help="decompose one companion matrix")
    p_dec.add_argument("--poly", required=True,
                       help="monic polynomial a0,a1,...,1 (ascending)")
    p_dec.add_argument("--mode", choices=MODES, default="constructive")
    p_dec.add_argument("--count-witnesses", action="store_true",
                       help="also count every (P, N) pair exhaustively")

    p_ver = sub.add_parser("verify", parents=[common, companions, brute_cap],
                           help="decompose every companion matrix of "
                                "degree n")
    p_ver.add_argument("--cache",
                       help="cache directory (WEAKPER_CACHE overrides)")
    p_ver.add_argument("--mode", choices=MODES, default="constructive")

    p_sets = sub.add_parser("sets", parents=[common, companions, spectra],
                            help="trace set, unity sum set, pattern "
                                 "spectra, containment checks")

    p_conj = sub.add_parser("conjecture", parents=[common, companions],
                            help="commuting-decomposition ground truth "
                                 "scan")

    p_lem = sub.add_parser("lemmas", parents=[common, companions, spectra],
                           help="run the lemma suite and print PASS/FAIL "
                                "lines")
    p_lem.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "field-info": _cmd_field_info,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "sets": _cmd_sets,
        "conjecture": _cmd_conjecture,
        "lemmas": _cmd_lemmas,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WeakperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        # flush here, where a closed stdout can still be caught
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at os.devnull so that the
        # interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    # shutdown would run one more collection over every object the run
    # made, 5-10 ms a process; frozen, they are skipped.  Atexit handlers
    # and the final flushes still run, which os._exit would skip
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
