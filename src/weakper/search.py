"""Exhaustive decomposition search and whole-field verification.

brute_decompose is an exact decision procedure at desk scale: it scans
every square-zero candidate N in encoding order and accepts the first one
making C - N potent.  The candidates are enumerated by structure, not
filtered out of all q^(n^2) matrices: a square-zero N is built from its
image W, a subspace of its own kernel, and a full-rank map onto W from the
functionals vanishing on W, and the list is sorted by entry tuple, which
is encoding order.  The full-rank test runs through mat._reduce, the
package's one elimination loop.  The brute cap still bounds q^(n^2), the
size of the space the candidates come from.  brute_commuting_decompose
needs no search: the potent part of a commuting split is the
Jordan-Chevalley semisimple part of C, a polynomial in C that one Newton
step on the radical of the companion's polynomial gives, and the split
exists exactly when that polynomial is cube-free.  verify_field runs one
of the decomposition routes over all q^n companion matrices and emits a
deterministic report whose witnesses have all been re-verified.
"""

import collections
import functools
import itertools
import math

from .companion import (
    DEFAULT_ENUM_BOUND,
    Witness,
    companion_of,
    enumerate_companions,
    trace_matched_decomposition,
)
from .errors import (
    FieldTooSmall,
    InputError,
    SearchSpaceTooLarge,
    TraceNotRealizable,
    WeakperError,
)
from .gf import parse_field, power_exceeds
from .mat import (
    Mat,
    _basis_row,
    _poly_at,
    _reduce,
    _squarefree,
    min_poly,
    min_poly_exponent,
)
from .poly import (
    Poly,
    _derivative,
    _distinct_degree_parts,
    _divmod_monic,
    _mul,
    _pow_mod,
)

# the interpreter's own JSON string escaper gives what json.dumps gives
# without loading the json package, about 1.5 ms a process
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

TOOL_VERSION = "0.1.0"
DEFAULT_BRUTE_CAP = 1 << 24
MODES = ("constructive", "brute", "commuting")


def _independent_rows(spec, r, m):
    """Every r x m matrix of rank r, as a tuple of r row tuples."""
    vectors = list(itertools.product(range(spec.order), repeat=m))

    def extend(chosen, basis):
        if len(chosen) == r:
            yield tuple(chosen)
            return
        for v in vectors:
            vec = list(v)
            pivot = _reduce(basis, vec, [], spec)
            if pivot is not None:
                yield from extend(chosen + [v], basis + [
                    _basis_row(vec, pivot, [], spec)])

    return tuple(extend([], []))


def _echelon_bases(spec, n, r):
    """Each r-dimensional subspace W of F^n once, as (pivots, rows): the
    reduced row echelon basis of W and its pivot columns."""
    q = spec.order
    for pivots in itertools.combinations(range(n), r):
        free = [(k, j) for k in range(r) for j in range(pivots[k] + 1, n)
                if j not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for k, p in enumerate(pivots):
                rows[k][p] = 1
            for (k, j), v in zip(free, values):
                rows[k][j] = v
            yield pivots, rows


# one command searches one (field, n); tests sweep a few
@functools.lru_cache(maxsize=8)
def _square_zero_entries(spec, n):
    """Entry tuples of every n x n matrix N with N^2 = 0, sorted.

    N^2 = 0 iff im N lies in ker N.  A rank-r such N is, for exactly one
    r-dimensional image W with echelon basis w_1..w_r, the sum of the
    outer products w_k phi_k^T, where phi_1..phi_r are linearly
    independent functionals vanishing on W.  With A a basis a_1..a_(n-r)
    of those functionals, the phi_k are the rows of G.A for a unique
    full-rank r x (n - r) matrix G; r ranges over 0..n//2.  So N is the
    sum of G[k][l] w_k a_l^T, one combination of the r (n - r) outer
    products per G.
    """
    ops = spec._ops()
    size = n * n
    out = []
    for r in range(n // 2 + 1):
        gs = _independent_rows(spec, r, n - r)
        for pivots, rows in _echelon_bases(spec, n, r):
            # A: one functional per non-pivot column j, 1 at j and
            # -w_k[j] at the pivot of row k; they vanish on W
            annihilator = []
            for j in range(n):
                if j not in pivots:
                    phi = [0] * n
                    phi[j] = 1
                    for p, v in zip(pivots, ops.negate([w[j] for w in rows])):
                        phi[p] = v
                    annihilator.append(phi)
            # the flat entries of w_k a_l^T, k major, as G's entries lie
            # in itertools.chain.from_iterable(g)
            outer = [list(itertools.chain.from_iterable(
                ops.scale(c, a) for c in w))
                for w in rows for a in annihilator]
            for g in gs:
                out.append(tuple(ops.combine(
                    itertools.chain.from_iterable(g), outer, size)))
    out.sort()
    return tuple(out)


def _potent_splits(C, brute_cap):
    """Every split (P, N, min_poly(P)) of C with N^2 = 0 and P = C - N
    potent, with N in encoding order: potency is read off the minimal
    polynomial, as is_potent reads it, and the polynomial goes along so
    that a witness takes its exponent from it."""
    spec, n = C.spec, C.n
    if power_exceeds(spec.order, n * n, brute_cap):
        raise SearchSpaceTooLarge(f"{spec.order}^{n * n} candidate matrices "
                                  f"exceed the bound {brute_cap}")
    for ent in _square_zero_entries(spec, n):
        N = Mat._raw(spec, n, ent)
        P = C - N
        mp = min_poly(P)
        if _squarefree(mp):
            yield P, N, mp


def brute_decompose(C, brute_cap=DEFAULT_BRUTE_CAP):
    """First witness C = P + N with N^2 = 0 and P potent, scanning N over
    all square-zero matrices in encoding order; None when no N works."""
    for P, N, mp in _potent_splits(C, brute_cap):
        return Witness(
            potent=P,
            nilpotent=N,
            exponent=min_poly_exponent(mp),
            commuting=(P * N == N * P),
            source="brute",
        )
    return None


def count_decompositions(C, brute_cap=DEFAULT_BRUTE_CAP):
    """Exhaustive witness counts for one matrix: how many square-zero N
    give a potent C - N, and how many of those pairs commute."""
    total = 0
    commuting = 0
    for P, N, _ in _potent_splits(C, brute_cap):
        total += 1
        if P * N == N * P:
            commuting += 1
    return {"total": total, "commuting": commuting}


def brute_commuting_decompose(form):
    """The witness C = P + N with N^2 = 0, P potent and P.N = N.P for the
    companion matrix C of form, or None when C has none.

    P is potent, hence semisimple, and N nilpotent, so P must be the
    semisimple part s(C) of C, for every square matrix: a split exists
    exactly when N = C - s(C) squares to zero, and it is then the only
    one.  A companion's minimal polynomial is its own polynomial, so
    m = form.poly.  With f = rad(m), the product of its
    distinct-degree parts, s is one Newton step X - f.(f')^-1 for f, so
    N = r(C) with r = f.u mod m and u f' = 1 mod h, h = m / f.  N^2 = 0
    exactly when m divides f^2, that is when h divides f (m cube-free).
    Then F[X]/(h) is a product of fields GF(q^d), d the degrees of the
    parts, in which f' is a unit (f is separable), so u = (f')^(e-1)
    mod h with e the lcm of the q^d - 1, and min_poly(P) = f gives the
    exponent.  A squarefree m has s = X.
    """
    C, m = form.matrix, form.poly
    spec, n = C.spec, C.n
    if _squarefree(m):
        return Witness(potent=C, nilpotent=Mat.zeros(spec, n),
                       exponent=min_poly_exponent(m), commuting=True,
                       source="brute_commuting")
    ops = spec._ops()
    f, e = (1,), 1
    for d, part in _distinct_degree_parts(m.coeffs, spec):
        if len(part) > 1:
            f = _mul(f, part, ops)
            e = math.lcm(e, spec.order ** d - 1)
    h = _divmod_monic(m.coeffs, f, ops)[0]
    if _divmod_monic(f, h, ops)[1]:
        return None
    u = _pow_mod(_derivative(f, spec), e - 1, h, ops)
    N = _poly_at(_divmod_monic(_mul(f, u, ops), m.coeffs, ops)[1], C)
    return Witness(
        potent=C - N,
        nilpotent=N,
        exponent=min_poly_exponent(Poly._raw(spec, f)),
        commuting=True,
        source="brute_commuting",
    )


def decompose(form, mode, brute_cap=DEFAULT_BRUTE_CAP):
    """Split one companion matrix by the route mode names.

    Returns a witness re-verified by Witness.verify (potency by the
    min-poly and the exponent route, and commutation in commuting mode),
    or None when the route finds no split; a witness that fails
    re-verification raises instead.  The constructive route's
    TraceNotRealizable propagates.
    """
    if mode == "constructive":
        witness = trace_matched_decomposition(form)
    elif mode == "brute":
        witness = brute_decompose(form.matrix, brute_cap)
    elif mode == "commuting":
        witness = brute_commuting_decompose(form)
    else:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if witness is not None and not witness.verify(
            form.matrix, require_commuting=(mode == "commuting")):
        raise WeakperError(
            f"witness for {list(form.low_coeffs)} failed "
            f"re-verification in mode {mode}")
    return witness


class CompanionRecord(collections.namedtuple(
        "CompanionRecord", "form status witness")):
    """One companion of a report: its CompanionForm, status
    "decomposable" or "not_decomposable", and its Witness or None."""
    __slots__ = ()

    def serialize(self):
        out = {"g": list(self.form.low_coeffs), "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.serialize(self.form)
        return out


class VerifyReport(collections.namedtuple(
        "VerifyReport", "field n mode records version",
        defaults=(TOOL_VERSION,))):
    """One route run over every companion of a field: the field
    descriptor, n, the mode, the CompanionRecords in enumeration order and
    the tool version."""
    __slots__ = ()

    @property
    def total(self):
        return len(self.records)

    @property
    def decomposable(self):
        return sum(1 for r in self.records if r.status == "decomposable")

    @property
    def failed(self):
        return self.total - self.decomposable

    @property
    def counts(self):
        """The report's summary: {total, decomposable, failed}."""
        return _counts(self.total, self.failed)

    @property
    def summary(self):
        """What verify prints as csv or text: the header and the counts."""
        return _summary(self._asdict(), self.counts)

    def to_dict(self):
        return dict(_report_payload(self),
                    records=[r.serialize() for r in self.records])

    def to_json(self):
        """The bytes verify --out writes: _dumps(self.to_dict())."""
        return _report_json(_report_payload(self), self, 1).encode("utf-8")


def _counts(total, failed):
    return {"total": total, "decomposable": total - failed, "failed": failed}


def _summary(header, counts):
    """The summary verify prints: counts amid the field, n, mode and
    version of header, a report's fields or its decoded JSON."""
    return {"field": header["field"], "n": header["n"],
            "mode": header["mode"], **counts, "version": header["version"]}


def _dumps(payload):
    """The text of every report: json.dumps(payload, indent=2,
    sort_keys=True) plus a newline, written by _layout."""
    return _layout(payload, "\n") + "\n"


def _layout(value, newline):
    """value as json.dumps(value, indent=2, sort_keys=True) lays it out,
    with newline (a newline and the indent of value) in place of each of
    its line breaks.  value is a dict with str keys, a list, a tuple, a
    str, an int, a bool or None, nested; TypeError on anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
        return ("{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _layout(item, inner)
            for key, item in sorted(value.items())) + newline + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            _layout(item, inner) for item in value) + newline + "]")
    raise TypeError(
        f"a report cannot hold a value of type {type(value).__name__}")


# stands in for a report's records in a payload written by _report_json
_RECORDS = "\0records"


def _report_payload(report):
    """report.to_dict(), with _RECORDS in place of its records."""
    return dict(report._asdict(), records=_RECORDS, summary=report.counts)


def _record_layouts(n, newline):
    """The two %-templates of a record of dimension n whose opening brace
    sits at newline, laid out by _layout: one without a
    witness, taking (*g, status), and one with, taking (*g, status,
    *N.entries, *P.entries, commuting, *g, field, n, exponent, source) in
    the sorted order of the keys.  The strings go in JSON-encoded."""
    num, text = "\0d", "\0s"
    ints = [num] * n
    rows = [ints] * n
    bare = {"g": ints, "status": text}
    full = dict(bare, witness={
        "N": rows, "P": rows, "commuting": text, "companion_coeffs": ints,
        "field": text, "n": num, "potency_exponent": num, "source": text})

    def layout(skeleton):
        return (_layout(skeleton, newline)
                .replace(encode_basestring_ascii(num), "%d")
                .replace(encode_basestring_ascii(text), "%s"))

    return layout(bare), layout(full)


def _report_json(payload, report, depth):
    """_dumps(payload), with report.to_dict()["records"] where payload
    holds _RECORDS at nesting depth depth.  Each record is one % on its
    per-n layout, so no dict is built per record."""
    head, tail = _dumps(payload).split(encode_basestring_ascii(_RECORDS))
    if not report.records:
        return head + "[]" + tail
    n = report.n
    outer = "\n" + "  " * depth
    inner = outer + "  "
    bare, full = _record_layouts(n, inner)
    enc = encode_basestring_ascii
    spec = field = None
    texts = []
    for rec in report.records:
        g = rec.form.low_coeffs
        w = rec.witness
        if w is None:
            texts.append(bare % (*g, enc(rec.status)))
            continue
        if rec.form.spec is not spec:
            spec = rec.form.spec
            field = enc(spec.descriptor())
        texts.append(full % (
            *g, enc(rec.status), *w.nilpotent.entries, *w.potent.entries,
            "true" if w.commuting else "false", *g, field, n, w.exponent,
            enc(w.source)))
    return (head + "[" + inner + ("," + inner).join(texts) + outer + "]"
            + tail)


def _record(form, mode, brute_cap):
    """The report record of one companion; TraceNotRealizable counts as not
    decomposable."""
    try:
        witness = decompose(form, mode, brute_cap)
    except TraceNotRealizable:
        witness = None
    if witness is None:
        return CompanionRecord(form, "not_decomposable", None)
    return CompanionRecord(form, "decomposable", witness)


def verify_field(n, spec, mode, enum_bound=DEFAULT_ENUM_BOUND,
                 brute_cap=DEFAULT_BRUTE_CAP):
    """Run one decomposition route over every companion matrix.

    Every witness is re-verified (potency by the min-poly and the exponent
    route, square-zero, sum, exponent, and commutation when the mode
    demands it) before being recorded; a re-verification failure raises
    instead of mis-reporting.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "constructive" and spec.order < n + 1:
        raise FieldTooSmall(
            f"constructive mode needs q >= n + 1, got q={spec.order}, n={n}")
    return VerifyReport(
        field=spec.descriptor(),
        n=n,
        mode=mode,
        records=tuple(_record(form, mode, brute_cap)
                      for form in enumerate_companions(n, spec, enum_bound)),
    )


class ConjectureScan(collections.namedtuple(
        "ConjectureScan", "report non_decomposable")):
    """Ground truth for the commuting-decomposition question over one
    field: the full commuting-mode report plus the companions for which
    no commuting decomposition exists."""
    __slots__ = ()

    def serialize(self):
        return self._payload(self.report.to_dict())

    def to_json(self):
        """The bytes conjecture --out writes: _dumps(self.serialize())."""
        return _report_json(self._payload(_report_payload(self.report)),
                            self.report, 2).encode("utf-8")

    def _payload(self, report):
        return {"report": report,
                "non_decomposable": [list(g) for g in self.non_decomposable]}


def conjecture_scan(n, spec, enum_bound=DEFAULT_ENUM_BOUND):
    report = verify_field(n, spec, "commuting", enum_bound)
    missing = tuple(r.form.low_coeffs for r in report.records
                    if r.status == "not_decomposable")
    return ConjectureScan(report=report, non_decomposable=missing)


def _check_records(records, descriptor, n, q):
    """The g of each not_decomposable record, once every one of records,
    decoded from the JSON of a report over the field with this descriptor
    at dimension n, is well formed; ValueError, KeyError or TypeError when
    one is not.

    A record is well formed when its status is "not_decomposable" and it
    has no witness, or "decomposable" and it has one whose P and N are
    n x n, whose companion_coeffs, field and n are its record's, whose
    potency_exponent is an int, commuting a bool and source a str; and
    when g, companion_coeffs and every entry of P and N are ints in
    [0, q), g of length n.  Whether the records are the q^n companions in
    order, and whether a witness holds, is left to the caller.
    """
    # built once a record's g has length n: a header n larger than the
    # data allocates nothing
    shape = None
    entries = []
    put = entries.extend
    failed = []
    for rec in records:
        g = rec["g"]
        put(g)
        if "witness" not in rec:
            if rec["status"] != "not_decomposable" or len(g) != n:
                raise ValueError(f"record {g!r} is malformed")
            failed.append(g)
            continue
        w = rec["witness"]
        P, coeffs = w["P"], w["companion_coeffs"]
        rows = P + w["N"]
        if shape is None and len(g) == n:
            shape = [n] * (2 * n)
        # a decoded row that is no list is a str or a dict, and neither
        # yields ints below
        if (rec["status"] != "decomposable" or len(g) != n or coeffs != g
                or w["field"] != descriptor
                or type(w["n"]) is not int or w["n"] != n
                or type(w["potency_exponent"]) is not int
                or type(w["commuting"]) is not bool
                or type(w["source"]) is not str
                or len(P) != n or list(map(len, rows)) != shape):
            raise ValueError(f"record {g!r} is malformed")
        put(coeffs)
        put(itertools.chain.from_iterable(rows))
    # every entry in one pass: a bool or a float can equal an int, so the
    # types are checked first
    if set(map(type, entries)) - {int}:
        raise ValueError("a record entry is not an int")
    if any(not 0 <= v < q for v in set(entries)):
        raise ValueError(f"a record entry lies outside [0, {q})")
    return failed


def _decode_report(data, header_spec):
    """(raw, spec, failed): the report data decoded, header_spec(raw) and
    the g of each not_decomposable record.  InputError when data is not
    JSON; KeyError, TypeError or ValueError when the header is not one
    verify writes (n an int >= 1, a mode in MODES, a str version) or a
    record is malformed (_check_records)."""
    # imported here: only a run that reads a report back needs the decoder
    import json

    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        raw = json.loads(data)
    # json.loads raises RecursionError on arrays nested too deep
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"report is not valid JSON: {exc}") from None
    spec = header_spec(raw)
    n = raw["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    mode, version = raw["mode"], raw["version"]
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if type(version) is not str:
        raise ValueError(f"version must be a str, got {version!r}")
    failed = _check_records(raw["records"], spec.descriptor(), n, spec.order)
    return raw, spec, failed


def _in_enumeration_order(gs, q, n):
    """True when gs, the g of each record as lists or tuples, are exactly
    the q^n companions of dimension n, in enumeration order."""
    return (not power_exceeds(q, n, len(gs)) and list(map(tuple, gs))
            == list(itertools.product(range(q), repeat=n)))


def load_report(data):
    """Rebuild a VerifyReport from its JSON serialization; InputError when
    it is not JSON or _decode_report finds its header or a record malformed.
    Whether the records are the q^n companions in order, and whether their
    witnesses hold, is reverify_report's to check."""
    try:
        raw, spec, _ = _decode_report(
            data, lambda raw: parse_field(raw["field"]))
        n = raw["n"]
        records = []
        for rec in raw["records"]:
            form = companion_of(Poly._raw(spec, tuple(rec["g"]) + (1,)))
            witness = None
            if "witness" in rec:
                w = rec["witness"]
                witness = Witness(
                    potent=Mat._raw(spec, n, tuple(
                        itertools.chain.from_iterable(w["P"]))),
                    nilpotent=Mat._raw(spec, n, tuple(
                        itertools.chain.from_iterable(w["N"]))),
                    exponent=w["potency_exponent"],
                    commuting=w["commuting"],
                    source=w["source"],
                )
            records.append(CompanionRecord(form, rec["status"], witness))
        return VerifyReport(raw["field"], n, raw["mode"], tuple(records),
                            raw["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"report JSON is malformed: {exc}") from None


def cached_summary(data, spec, n, mode, brute_cap=DEFAULT_BRUTE_CAP):
    """The summary of the stored verify report data (JSON bytes) when it
    answers the request (spec, n, mode), or None when it does not.

    It answers when its header names that field, n and mode, it decodes
    as load_report decodes it (_decode_report), its records are exactly
    the q^n companions in enumeration order, its summary counts its
    records, and each not_decomposable record is reproduced when its
    companion runs through the mode's route again, as verify_field runs
    it.  Everything is decided on the decoded JSON: only the companions of
    not_decomposable records are built, and no witness is re-verified.
    """
    def requested(raw):
        if (raw["field"] != spec.descriptor() or raw["n"] != n
                or raw["mode"] != mode):
            raise ValueError("the report answers another request")
        return spec

    try:
        raw, _, failed = _decode_report(data, requested)
        records = raw["records"]
        counts = _counts(len(records), len(failed))
        stored = raw["summary"]
        if (not _in_enumeration_order([rec["g"] for rec in records],
                                      spec.order, n)
                or stored != counts
                or set(map(type, stored.values())) != {int}):
            return None
    except (InputError, KeyError, TypeError, ValueError):
        return None
    for g in failed:
        form = companion_of(Poly._raw(spec, tuple(g) + (1,)))
        if _record(form, mode, brute_cap).status != "not_decomposable":
            return None
    return _summary(raw, counts)


def reverify_report(report):
    """Re-check every witness in a (possibly reloaded) report; True when
    every decomposable record's witness still verifies and the records are
    exactly the q^n companions, in enumeration order."""
    if not _in_enumeration_order(
            [rec.form.low_coeffs for rec in report.records],
            parse_field(report.field).order, report.n):
        return False
    for rec in report.records:
        if rec.status == "decomposable":
            if rec.witness is None:
                return False
            if not rec.witness.verify(
                    rec.form.matrix,
                    require_commuting=(report.mode == "commuting")):
                return False
        elif rec.witness is not None:
            return False
    return True
