"""Root-of-unity sum sets, cyclic weight patterns, and their spectra.

Three constructions back the containment lemmas:

- unity_sum_set: base-field elements expressible as weighted sums of roots
  of unity drawn from extensions of bounded degree, each with a replayable
  witness.
- weight_patterns / pattern_spectra: integer weight vectors applied to the
  powers of the m-cycle permutation matrix, and the union of the spectra of
  those matrices, resolved through bounded extensions.  Each such matrix is
  a circulant, so its spectrum is read off by evaluating the pattern at the
  roots of unity, which gf.unity_powers lists.
- prime_shift_certificate: for a spectrum element w, a shift a in the prime
  field with (w - a)^m again in the prime field.
"""

import collections
import functools
import itertools
import math

from .errors import (
    InputError,
    LimitError,
)
from .companion import DEFAULT_ENUM_BOUND, potent_trace_set
from .gf import (
    DEFAULT_FIELD_BOUND,
    build_field,
    embed,
    factorize,
    power_exceeds,
    unity_powers,
)
from .mat import Mat, _poly_at, char_poly, cycle_permutation_matrix, det
from .poly import root_extension, roots_in_extensions

DEFAULT_M_MAX = 8
# membership of a sum-set value in its witness pattern's spectrum is checked
# by one m x m determinant; this caps that size
WITNESS_M_CAP = 512
# bounds of the memo caches below: one sets or lemmas command asks for one
# sum set, and for the spectra at m = 2..m_max, so no command with
# m_max <= 65 evicts an entry it will ask for again
_SPECTRA_CACHE_SIZE = 64
_UNITY_CACHE_SIZE = 8


class SRWitness(collections.namedtuple("SRWitness", "value terms")):
    """One way to write a base-field value as a weighted sum of roots of
    unity: terms of (multiplicity, root, home field, root order)."""
    __slots__ = ()

    def weight(self):
        return sum(m for m, _, _, _ in self.terms)

    def order_lcm(self):
        out = 1
        for _, _, _, order in self.terms:
            out = math.lcm(out, order)
        return out

    def serialize(self):
        return {
            "value": self.value,
            "terms": [
                {"multiplicity": m, "root": r, "field": home.descriptor(),
                 "order": o}
                for m, r, home, o in self.terms
            ],
        }


class WeightPattern(collections.namedtuple("WeightPattern", "m coeffs")):
    """Non-negative integer weights on the powers X^0..X^(m-1), total
    weight >= 1; applied to a matrix by reducing each weight mod p.
    coeffs is ((exponent, weight), ...) with positive weights."""
    __slots__ = ()

    def weight(self):
        return sum(w for _, w in self.coeffs)

    def dense(self):
        out = [0] * self.m
        for e, w in self.coeffs:
            out[e] = w
        return tuple(out)

    def apply(self, M):
        return _poly_at(tuple(w % M.spec.p for w in self.dense()), M)

    def serialize(self):
        return {"m": self.m, "weights": list(self.dense())}


def weight_patterns(m, n):
    """All weight patterns with exponents below m and total weight in
    [1, n], ordered by their dense weight tuple."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"pattern length must be >= 2, got {m!r}")
    if not isinstance(n, int) or n < 1:
        raise InputError(f"weight budget must be >= 1, got {n!r}")

    def rec(prefix, positions, budget):
        if positions == 0:
            yield prefix
            return
        for w in range(budget + 1):
            yield from rec(prefix + (w,), positions - 1, budget - w)

    out = []
    for dense in rec((), m, n):
        if any(dense):
            out.append(WeightPattern(
                m=m,
                coeffs=tuple((e, w) for e, w in enumerate(dense) if w)))
    return tuple(out)


def _splitting_degree(m, p):
    """(m', k): the p-free part m' of m and the order k of p modulo m'.

    X^m - 1 = (X^m' - 1)^(m / m') in characteristic p, so every eigenvalue
    of a pattern on the m-cycle is a value at an m'-th root of unity, and
    GF(p^k) is the smallest field holding those roots.
    """
    while m % p == 0:
        m //= p
    k = 1
    acc = p % m
    while acc != 1 % m:
        acc = acc * p % m
        k += 1
    return m, k


def _spectra_by_char_poly(m, patterns, spec, ext_bound, field_bound):
    """Each pattern's roots, chased by trial division through the
    characteristic polynomial of the pattern applied to the m-cycle."""
    cycle = cycle_permutation_matrix(spec, m)
    for pattern in patterns:
        chi = char_poly(pattern.apply(cycle))
        yield pattern, roots_in_extensions(chi, ext_bound, field_bound)


def _spectra_by_evaluation(m, patterns, spec, ext_bound, field_bound):
    """Each pattern's roots, read off as the values f(zeta^j) for j < m',
    where zeta is a primitive m'-th root of unity in GF(p^k).

    f(P_m) is a circulant, so these values are its eigenvalues.  A value of
    degree e over GF(p) has degree d = e / gcd(e, l) over the base field; it
    is kept when d <= ext_bound and reported in canonical GF(q^d) through
    GF(p^e), which embeds in both fields.  f has prime-field coefficients,
    so each pattern's values are closed under Frobenius, and the choice of
    embeddings cannot change the reported set.  Roots come in the order
    roots_in_extensions gives, and a home beyond field_bound raises the
    same LimitError, for the smallest such d of the first pattern.
    """
    p, l = spec.p, spec.l
    order, k = _splitting_degree(m, p)
    split = build_field(p, k, field_bound)
    powers = unity_powers(split, order)
    preimages = {}  # e -> {image in split: element of GF(p^e)}
    placed = {}  # value in split -> (encoding, home), or None past ext_bound

    def prime_degree(v):
        e = 1
        x = split._pow(v, p)
        while x != v:
            e += 1
            x = split._pow(x, p)
        return e

    def place(v, e, d):
        sub = build_field(p, e, field_bound)
        if e not in (1, k):
            if e not in preimages:
                preimages[e] = {embed(x, sub, split): x
                                for x in sub.elements()}
            v = preimages[e][v]
        home = root_extension(spec, d, field_bound)
        return embed(v, sub, home), home

    ops = split._ops()
    columns = {}  # e -> (zeta^(e j) for j < m')

    def column(e):
        if e not in columns:
            columns[e] = [powers[e * j % order] for j in range(order)]
        return columns[e]

    for pattern in patterns:
        # a weight mod p is a prime-field element, encoded as itself
        weights = [(e, w % p) for e, w in pattern.coeffs if w % p]
        values = set(ops.combine([w for _, w in weights],
                                 [column(e) for e, _ in weights], order))
        fresh = []
        for v in values - placed.keys():
            e = prime_degree(v)
            fresh.append((e // math.gcd(e, l), v, e))
        # ascending d, so an oversized home raises for the smallest d first
        for d, v, e in sorted(fresh):
            placed[v] = place(v, e, d) if d <= ext_bound else None
        roots = [placed[v] for v in values if placed[v] is not None]
        roots.sort(key=lambda rf: (rf[1].l, rf[0]))
        yield pattern, tuple(roots)


def _first_appearances(per_pattern):
    """((root, home), first pattern showing it), in order of appearance."""
    spectra = []
    seen = set()
    for pattern, roots in per_pattern:
        for key in roots:
            if key not in seen:
                seen.add(key)
                spectra.append((key, pattern))
    return tuple(spectra)


@functools.lru_cache(maxsize=_SPECTRA_CACHE_SIZE)
def _pattern_spectra_cached(m, n, spec, ext_bound, field_bound):
    # evaluation needs GF(p^k); past the field bound, trial division still
    # finds every root of degree <= ext_bound over the base field
    _, k = _splitting_degree(m, spec.p)
    if power_exceeds(spec.p, k, field_bound):
        route = _spectra_by_char_poly
    else:
        route = _spectra_by_evaluation
    return _first_appearances(
        route(m, weight_patterns(m, n), spec, ext_bound, field_bound))


def pattern_spectra(m, n, spec, ext_bound, field_bound=DEFAULT_FIELD_BOUND):
    """Union of the spectra of all weight patterns applied to the m-cycle,
    resolved in extensions of degree <= ext_bound.

    Returns {(root, home field): first pattern exhibiting it}, first in the
    weight_patterns ordering.
    """
    if not isinstance(ext_bound, int) or ext_bound < 1:
        raise InputError(
            f"extension bound must be a positive integer, got {ext_bound!r}")
    return dict(_pattern_spectra_cached(m, n, spec, ext_bound, field_bound))


@functools.lru_cache(maxsize=_UNITY_CACHE_SIZE)
def _unity_sums_cached(n, spec, ext_degree, field_bound):
    # the pool: each nonzero element of GF(q^d), d <= ext_degree, once, as
    # (image in the compositum GF(q^lcm(1..d)), root, home, order), ordered
    # by (home degree, encoding); base_image maps images back to spec
    top = 1
    for d in range(1, ext_degree + 1):
        top = math.lcm(top, d)
        if top >> 64:
            # an order of p^(2^64) exceeds every bound that fits in memory,
            # and lcm(1..d) soon grows too long to compute or to print
            raise LimitError(
                f"compositum GF({spec.p}^({spec.l}*lcm(1..{ext_degree}))) "
                f"exceeds the bound {field_bound}")
    try:
        comp = build_field(spec.p, spec.l * top, field_bound)
    except LimitError:
        raise LimitError(
            f"compositum GF({spec.p}^{spec.l * top}) exceeds the bound "
            f"{field_bound}") from None
    pool = []
    seen = set()
    for d in range(1, ext_degree + 1):
        ext = build_field(spec.p, spec.l * d, field_bound)
        for x in range(1, ext.order):
            image = embed(x, ext, comp)
            if image in seen:
                continue
            seen.add(image)
            pool.append((image, x, ext, ext.element_order(x)))
    base_image = {embed(b, spec, comp): b for b in spec.elements()}
    add = comp._add
    witnessed = {}
    for size in range(1, n + 1):
        if len(witnessed) == spec.order:
            break
        for combo in itertools.combinations_with_replacement(
                range(len(pool)), size):
            acc = 0
            for idx in combo:
                acc = add(acc, pool[idx][0])
            value = base_image.get(acc)
            if value is None or value in witnessed:
                continue
            terms = []
            for idx, group in itertools.groupby(combo):
                _, root, home, order = pool[idx]
                terms.append((len(tuple(group)), root, home, order))
            witnessed[value] = SRWitness(value=value, terms=tuple(terms))
            if len(witnessed) == spec.order:
                break
    return tuple(sorted(witnessed.items()))


def unity_sum_set(n, spec, ext_degree, field_bound=DEFAULT_FIELD_BOUND):
    """Base-field elements expressible as sums of at most n roots of unity
    (counted with multiplicity) from extensions of degree <= ext_degree.

    Returns {value: SRWitness}; the witness is the first found scanning
    total multiplicity 1..n and, within each multiplicity, multisets of the
    pool in (extension degree, encoding) order.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"term budget must be >= 1, got {n!r}")
    if not isinstance(ext_degree, int) or ext_degree < 1:
        raise InputError(
            f"extension bound must be a positive integer, "
            f"got {ext_degree!r}")
    return dict(_unity_sums_cached(n, spec, ext_degree, field_bound))


def prime_shift_certificate(x, spec, m):
    """First (a, u) with a in the prime field and (x - a)^m = u also in
    the prime field, scanning a = 0, 1, ..., p-1; None when no shift
    works.  Prime-field membership is encoding < p in a canonical field."""
    spec.check(x)
    if not isinstance(m, int) or m < 2:
        raise InputError(f"power must be >= 2, got {m!r}")
    for a in range(spec.p):
        u = spec._pow(spec._sub(x, a), m)
        if u < spec.p:
            return (a, u)
    return None


def divisor_count(m):
    """Number of positive divisors."""
    if not isinstance(m, int) or m < 1:
        raise InputError(f"divisor count needs a positive integer, got {m!r}")
    return math.prod(e + 1 for _, e in factorize(m))


def gcd_divisibility(a, b, c):
    """Check gcd(b*c, a) | gcd(b, a) * gcd(c, a); returns (holds, quotient).

    The divisibility holds for all positive integers; the quotient is
    exposed so tests can exercise the arithmetic.
    """
    for v in (a, b, c):
        if not isinstance(v, int) or v < 1:
            raise InputError(f"positive integers required, got {v!r}")
    g_bc = math.gcd(b * c, a)
    prod = math.gcd(b, a) * math.gcd(c, a)
    return (prod % g_bc == 0, prod // g_bc)


def gcd_failures(triples):
    """Number of triples (a, b, c) of positive integers for which
    gcd_divisibility(a, b, c) does not hold, counted in one pass without
    its per-triple validation."""
    gcd = math.gcd
    failures = 0
    for a, b, c in triples:
        if gcd(b, a) * gcd(c, a) % gcd(b * c, a):
            failures += 1
    return failures


def _witness_pattern_matrix(witness, m, spec, field_bound):
    """Build f(P_m) over the base field, where f is the weight pattern the
    witness encodes: a term of multiplicity w and root r contributes w * X^e
    with e the discrete log of r against a fixed primitive m-th root."""
    if witness.order_lcm() == 1:
        # every root is 1, so the pattern is the constant sum of weights
        exponents = [(w % spec.p, 0) for w, _, _, _ in witness.terms]
    else:
        degrees = 1
        for _, _, home, _ in witness.terms:
            degrees = math.lcm(degrees, home.l // spec.l)
        comp = build_field(spec.p, spec.l * degrees, field_bound)
        # root orders are prime-to-p and divide the cyclic group order, so
        # an element of order exactly m exists and its powers cover every
        # witness root
        logs = {r: e for e, r in enumerate(unity_powers(comp, m))}
        exponents = [(w % spec.p, logs[embed(root, home, comp)])
                     for w, root, home, _ in witness.terms]
    entries = [[0] * m for _ in range(m)]
    for w, e in exponents:
        if not w:
            continue
        for i in range(m):
            j = (i + e) % m
            entries[i][j] = spec._add(entries[i][j], w)
    return Mat.from_rows(spec, [tuple(row) for row in entries])


def _witness_membership(value, witness, m, spec, field_bound):
    """Is value an eigenvalue of its own witness pattern applied to the
    m-cycle?  Decided by one determinant over the base field."""
    applied = _witness_pattern_matrix(witness, m, spec, field_bound)
    return det(Mat.identity(spec, m).scale(value) - applied) == 0


class ContainmentReport(collections.namedtuple("ContainmentReport", (
        "n field ext_degree m_max trace_violations zero_exempt "
        "membership_violations skipped divisor_agreement"))):
    """Result of the containment checks between the trace set, the unity
    sum set, and the pattern spectra."""
    __slots__ = ()

    @property
    def passed(self):
        return (not self.trace_violations
                and not self.membership_violations
                and self.divisor_agreement)

    def serialize(self):
        return {
            "n": self.n,
            "field": self.field,
            "ext_degree": self.ext_degree,
            "m_max": self.m_max,
            "trace_violations": list(self.trace_violations),
            "zero_exempt": self.zero_exempt,
            "membership_violations": list(self.membership_violations),
            "skipped": list(self.skipped),
            "divisor_agreement": self.divisor_agreement,
            "passed": self.passed,
        }


def containment_report(n, spec, ext_degree, m_max=DEFAULT_M_MAX,
                       field_bound=DEFAULT_FIELD_BOUND,
                       enum_bound=DEFAULT_ENUM_BOUND):
    """Check the three containment facts at one (n, field) point.

    (a) every potent-companion trace lies in the unity sum set, except
    that 0 is exempt when the sum set cannot reach it (sums are nonempty,
    so 0 needs at least two terms); (b) each sum-set member, taken at
    m = max(lcm of its witness root orders, 2), is an eigenvalue of its
    witness pattern applied to the m-cycle, checked by determinant, and
    additionally appears in the enumerated pattern spectra when m <= m_max
    (members whose enumerated cross-check is out of range land in skipped);
    (c) divisor_count agrees with direct enumeration on every m used.
    The q^n companions behind (a) are enumerated under enum_bound; m_max
    must be at least 2, the shortest cycle.
    """
    if not isinstance(m_max, int) or m_max < 2:
        raise InputError(
            f"pattern length bound must be an integer >= 2, got {m_max!r}")
    traces = potent_trace_set(n, spec, enum_bound)
    sums = unity_sum_set(n, spec, ext_degree, field_bound)
    trace_violations = []
    zero_exempt = False
    for t in sorted(traces):
        if t in sums:
            continue
        if t == 0:
            zero_exempt = True
        else:
            trace_violations.append(t)
    membership_violations = []
    skipped = []
    divisor_agreement = True
    for value in sorted(sums):
        witness = sums[value]
        m = max(witness.order_lcm(), 2)
        brute_divisors = sum(1 for i in range(1, m + 1) if m % i == 0)
        if divisor_count(m) != brute_divisors:
            divisor_agreement = False
        if m > WITNESS_M_CAP:
            skipped.append(value)
            continue
        if not _witness_membership(value, witness, m, spec, field_bound):
            membership_violations.append(value)
            continue
        if m > m_max:
            skipped.append(value)
            continue
        spectra = pattern_spectra(m, n, spec, ext_degree, field_bound)
        if (value, spec) not in spectra:
            membership_violations.append(value)
    return ContainmentReport(
        n=n,
        field=spec.descriptor(),
        ext_degree=ext_degree,
        m_max=m_max,
        trace_violations=tuple(trace_violations),
        zero_exempt=zero_exempt,
        membership_violations=tuple(membership_violations),
        skipped=tuple(skipped),
        divisor_agreement=divisor_agreement,
    )
