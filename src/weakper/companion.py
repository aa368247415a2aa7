"""Companion matrices and the trace-matched weakly-periodic decomposition.

The companion matrix of a monic g = a_0 + a_1 X + ... + X^n is taken in
last-column convention: subdiagonal ones, last column (-a_0, ..., -a_{n-1}).
Two same-size companions then differ only in the last column, and they have
equal trace exactly when that difference squares to zero; building a potent
companion with the prescribed trace therefore decomposes any companion into
potent + square-zero parts.
"""

import collections
import functools
import itertools

from .errors import (
    BadDimension,
    EnumerationTooLarge,
    FieldTooSmall,
    NotMonic,
    TraceNotRealizable,
    ZeroDegree,
)
from .gf import power_exceeds
from .mat import (
    Mat,
    is_potent_at,
    is_square_zero,
    min_poly,
    min_poly_exponent,
    potency_exponent,
)
from .poly import Poly, is_squarefree

DEFAULT_ENUM_BOUND = 1 << 20

# bound of the two potent-part memos below.  For n >= 2 the enumeration
# bound q^n <= 2^20 gives q <= 1024 traces, so one whole-field run never
# evicts; traces cycle fastest in companion order, so a smaller cache would
# miss on every call once q exceeded it.
_POTENT_CACHE_SIZE = 1024


class CompanionForm(collections.namedtuple("CompanionForm", "poly matrix")):
    """A monic polynomial together with its companion matrix."""
    __slots__ = ()

    @property
    def n(self):
        return self.matrix.n

    @property
    def spec(self):
        return self.matrix.spec

    @property
    def low_coeffs(self):
        """(a_0, ..., a_{n-1}): the non-leading coefficients."""
        return self.poly.coeffs[:-1]

    def trace(self):
        return self.matrix.trace()


def companion_of(g):
    """Companion matrix of a monic polynomial of degree >= 1."""
    if g.is_zero() or not g.is_monic():
        raise NotMonic(f"companion form needs a monic polynomial, got {g!r}")
    n = g.degree
    if n < 1:
        raise ZeroDegree("companion form needs degree >= 1")
    spec = g.spec
    neg = spec._neg
    entries = [0] * (n * n)
    for i in range(1, n):
        entries[i * n + (i - 1)] = 1
    for i in range(n):
        entries[i * n + (n - 1)] = neg(g.coeffs[i])
    return CompanionForm(poly=g, matrix=Mat._raw(spec, n, tuple(entries)))


def enumerate_companions(n, spec, bound=DEFAULT_ENUM_BOUND):
    """All q^n companion matrices, ordered by the tuple (a_0, ..., a_{n-1})."""
    if not isinstance(n, int) or n < 1:
        raise BadDimension(f"dimension must be >= 1, got {n!r}")
    q = spec.order
    if power_exceeds(q, n, bound):
        raise EnumerationTooLarge(
            f"{q}^{n} companion matrices exceed the bound {bound}")
    for low in itertools.product(range(q), repeat=n):
        yield companion_of(Poly._raw(spec, low + (1,)))


def potent_companion_with_trace(t, n, spec):
    """A potent companion matrix with trace t, via n distinct base-field
    roots.

    Root choice is deterministic: the lexicographically first size-n subset
    of the field (in encoding order) whose sum is t.  Requires q >= n + 1;
    when no subset hits the trace TraceNotRealizable is raised.  That gap
    is exactly characteristic 2 with n in {2, q - 2} and t = 0: distinct
    a, b never have a + b = 0, and since the elements of GF(2^k) sum to 0
    for k >= 2, the complement of a 2-subset mirrors it at n = q - 2.
    Enumeration over every field of order q <= 16 finds no other gap.
    """
    spec.check(t)
    if not isinstance(n, int) or n < 1:
        raise BadDimension(f"dimension must be >= 1, got {n!r}")
    q = spec.order
    if q < n + 1:
        raise FieldTooSmall(
            f"need q >= n + 1 distinct elements, got q={q}, n={n}")
    add = spec._add
    for roots in itertools.combinations(range(q), n):
        acc = 0
        for r in roots:
            acc = add(acc, r)
        if acc == t:
            g = Poly.one(spec)
            for r in roots:
                g = g * Poly(spec, (spec._neg(r), 1))
            return companion_of(g)
    raise TraceNotRealizable(
        f"no {n} distinct elements of GF({q}) sum to {t}")


@functools.lru_cache(maxsize=_POTENT_CACHE_SIZE)
def _potent_part(t, n, spec):
    """The potent companion with trace t and its potency exponent; there
    are only q of them per (n, field), against q^n companions."""
    P = potent_companion_with_trace(t, n, spec).matrix
    return P, potency_exponent(P)


@functools.lru_cache(maxsize=_POTENT_CACHE_SIZE, typed=True)
def _potent_claims_hold(P, exponent):
    """The claims of a witness that depend on its potent part alone: P is
    potent and exponent is its potency exponent.  Two routes check them.
    The min-poly route requires min_poly(P) squarefree with exponent as its
    memoised exponent; the exponent route requires P^exponent = P with p
    not dividing exponent - 1, which proves P potent on its own.

    Each claim is a pure function of (P, exponent), and Mat equality
    includes the field, so a cached answer is the answer a fresh check
    would give.  The key is typed because an exponent of 2.0 equals 2 yet
    fails Mat.__pow__.
    """
    return (min_poly_exponent(min_poly(P)) == exponent
            and is_potent_at(P, exponent))


class Witness(collections.namedtuple(
        "Witness", "potent nilpotent exponent commuting source")):
    """A decomposition C = potent + nilpotent with supporting data.

    potent and nilpotent are Mats; exponent is the least t > 1 with
    potent^t = potent; commuting records whether the two parts commute;
    source is "constructive", "brute" or "brute_commuting".
    """
    __slots__ = ()

    def verify(self, companion_matrix, require_commuting=False):
        """Re-check every claim this witness makes.  The claims about the
        potent part alone are memoised per (P, exponent) for constructive
        witnesses, the only ones that share P (q of them per field and n);
        the rest are checked on every call."""
        P, N = self.potent, self.nilpotent
        if P + N != companion_matrix:
            return False
        if not is_square_zero(N):
            return False
        potent_claims_hold = (_potent_claims_hold
                              if self.source == "constructive"
                              else _potent_claims_hold.__wrapped__)
        if not potent_claims_hold(P, self.exponent):
            return False
        if (P * N == N * P) != self.commuting:
            return False
        if require_commuting and not self.commuting:
            return False
        return True

    def serialize(self, form):
        return {
            "field": form.spec.descriptor(),
            "n": form.n,
            "companion_coeffs": list(form.low_coeffs),
            "P": self.potent.serialize(),
            "N": self.nilpotent.serialize(),
            "potency_exponent": self.exponent,
            "commuting": self.commuting,
            "source": self.source,
        }

    def text_lines(self):
        """The lines decompose --format text prints for this witness."""
        return [f"P {self.potent.serialize()}",
                f"N {self.nilpotent.serialize()}",
                f"potency_exponent {self.exponent}",
                f"commuting {self.commuting}"]


def trace_matched_decomposition(form):
    """Decompose a companion matrix as potent + square-zero by matching
    the trace with a potent companion; the difference of two same-trace
    companions always squares to zero."""
    C = form.matrix
    P, exponent = _potent_part(C.trace(), form.n, form.spec)
    N = C - P
    return Witness(
        potent=P,
        nilpotent=N,
        exponent=exponent,
        # C and P are both companions, so N = C - P is zero outside its
        # last column.  For n >= 2, column n-2 of N.P is P's subdiagonal 1
        # times N's last column, and column n-2 of P.N is zero: they
        # commute iff N = 0.  At n = 1, N = 0 always.  Witness.verify
        # still computes both products.
        commuting=N.is_zero(),
        source="constructive",
    )


def potent_trace_set(n, spec, bound=DEFAULT_ENUM_BOUND):
    """Traces of all potent companion matrices: { -a_{n-1} : g squarefree }.

    A companion matrix is non-derogatory, so it is potent exactly when its
    defining polynomial is squarefree.  Each trace is scanned on its own,
    with a_0 varying fastest: X^2 divides every g with a_0 = a_1 = 0, so
    walking a_0 slowest would test those q^(n-2) hopeless g first.
    """
    if not isinstance(n, int) or n < 1:
        raise BadDimension(f"dimension must be >= 1, got {n!r}")
    q = spec.order
    if power_exceeds(q, n, bound):
        raise EnumerationTooLarge(
            f"{q}^{n} companion polynomials exceed the bound {bound}")
    out = set()
    for t in range(q):
        top = (spec._neg(t), 1)
        for rest in itertools.product(range(q), repeat=n - 1):
            if is_squarefree(Poly._raw(spec, rest[::-1] + top)):
                out.add(t)
                break
    return frozenset(out)
