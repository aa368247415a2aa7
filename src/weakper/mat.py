"""Square matrices over a FieldSpec, with the exact-arithmetic kernels the
rest of the package builds on: division-free characteristic polynomials,
minimal polynomials via Krylov elimination, and potency tests.  _reduce
is the one elimination loop: min_poly, det and the square-zero
enumerator's rank test in search all reduce through it.  +, -, *, scale,
trace, det, char_poly's dot products and _reduce's row operations are
each one call to the field's vector backend, spec._ops(), which gf picks
from the field's order.  Every matrix product comes from one selector,
_product: for n <= 4 it is straight-line code, compiled once per n and
backend kind (_straight_product), and past that the backend's matmul.
It works on entry tuples, so M ** k squares and multiplies tuples and
wraps only the result, min_poly powers tuples from the identity on and
builds no Mat, Witness.verify builds no Mat for its products, and
_poly_at evaluates a coefficient tuple at a matrix by Horner's rule.

A matrix M counts as potent when its minimal polynomial is squarefree.
That gives M^(k+1) = M for k = lcm(q^d - 1 : d <= n), but it is stricter
than the ring-theoretic reading "M^(k+1) = M for some k >= 1": over GF(2)
the swap matrix has M^3 = M, yet its minimal polynomial (X + 1)^2 is not
squarefree, so it is not potent here.  Three routes test the squarefree
reading.  The min-poly route (is_potent, potency_exponent) reads it and
the exponent off min_poly(M), each memoised per minimal polynomial.
The exponent route (is_potent_at) proves it from M^t = M with p not
dividing t - 1; Witness.verify runs both.  The universal route
(is_potent_iterative) powers M to k + 1 and is kept to cross-check the
min-poly route.  Matrix powers and root orders run through gf's power
and multiplicative_order kernels; the exponent's distinct-degree split
and root orders run on poly's coefficient-tuple cores, with no Poly per
step.
"""

import functools
import math

from .errors import (
    InputError,
    LimitError,
    WeakperError,
)
from .gf import multiplicative_order, power
from .poly import (
    Poly,
    _distinct_degree_parts,
    _monic,
    _mul,
    _pow_mod,
    is_squarefree,
)

EXPONENT_CAP = 1 << 63
# bound of the two potency memos, one entry per minimal polynomial.  A
# brute scan over n x n matrices meets at most q + q^2 + ... + q^n of them,
# 84 for GF(4) n=3; a commuting run meets one squarefree part per companion.
_POTENCY_CACHE_SIZE = 4096
# the largest n whose product is straight-line code: its source grows as
# n^3, and compiling the GF(p) one took 0.26 ms at n = 4 but 23 ms at n = 20
_STRAIGHT_LINE_N = 4
# the kinds of the field backends (gf.FieldSpec._ops), one straight-line
# product each: the locals the product reads off its backend t, the
# unpacking of a (the table kinds pre-scale the a-entries by q), one term
# and the sum of two terms
_PRODUCT_KINDS = {
    "p": ("p = t.p", "a", "{} * {}", "{} + {}"),
    "xor": ("q, mul = t.q, t.mul", "[x * q for x in a]",
            "mul[{} + {}]", "{} ^ {}"),
    "add": ("q, mul, add = t.q, t.mul, t.add", "[x * q for x in a]",
            "mul[{} + {}]", "add[{} * q + {}]"),
    "element": ("mul, add = t.spec._mul, t.spec._add", "a",
                "mul({}, {})", "add({}, {})"),
}


@functools.lru_cache(maxsize=_STRAIGHT_LINE_N * len(_PRODUCT_KINDS))
def _straight_product(n, kind):
    """The product of two n x n entry tuples a and b over a field whose
    backend t has the given kind, compiled once per (n, kind) as one
    expression with no loop.  Kind "p" sums the integer products
    a[i n + k] * b[k n + j] over k and reduces the sum mod t.p.  The table
    kinds read each product as t.mul[a[i n + k] * q + b[k n + j]] and add
    by ^ ("xor") or by nested t.add lookups ("add").  Kind "element" makes
    one FieldSpec._mul per product and one _add per sum.  The source
    depends on (n, kind) alone, so one function serves every field of that
    kind."""
    a = [f"a{i}" for i in range(n * n)]
    b = [f"b{i}" for i in range(n * n)]
    names, unpack, term, plus = _PRODUCT_KINDS[kind]

    def entry(i, j):
        total = functools.reduce(plus.format, [
            term.format(a[i * n + k], b[k * n + j]) for k in range(n)])
        return f"({total}) % p" if kind == "p" else total

    entries = ", ".join(entry(i, j) for i in range(n) for j in range(n))
    source = (f"def product(a, b, t):\n"
              f"    {names}\n"
              f"    {', '.join(a)}, = {unpack}\n"
              f"    {', '.join(b)}, = b\n"
              f"    return ({entries},)\n")
    namespace = {}
    exec(compile(source, f"<{kind} product n={n}>", "exec"), namespace)
    return namespace["product"]


def _matmul(a, b, t):
    """The product of two n x n entry tuples by the backend's own matmul
    loop, for n past _STRAIGHT_LINE_N."""
    return tuple(t.matmul(a, b, math.isqrt(len(a))))


def _product(n, ops):
    """The product of two n x n entry tuples over the backend ops, called
    as product(a, b, ops) and returning an entry tuple: the compiled
    _straight_product for n <= _STRAIGHT_LINE_N and the backend's matmul
    past it.  Mat.__mul__, Mat.__pow__ and Witness.verify all take their
    products here, so the cut lives in this one place."""
    if n <= _STRAIGHT_LINE_N:
        return _straight_product(n, ops.kind)
    return _matmul


class Mat:
    """An n x n matrix stored as a row-major entry tuple."""

    __slots__ = ("spec", "n", "entries")

    def __init__(self, spec, n, entries):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"matrix dimension must be >= 1, got {n!r}")
        entries = tuple(entries)
        if len(entries) != n * n:
            raise InputError(
                f"expected {n * n} entries for a {n}x{n} matrix, "
                f"got {len(entries)}")
        for e in entries:
            spec.check(e)
        self.spec = spec
        self.n = n
        self.entries = entries

    @staticmethod
    def _raw(spec, n, entries):
        m = object.__new__(Mat)
        m.spec = spec
        m.n = n
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, spec, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InputError("rows do not form a square matrix")
        return cls(spec, n, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, spec, n):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"matrix dimension must be >= 1, got {n!r}")
        return cls._raw(spec, n,
                        tuple(1 if i == j else 0
                              for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, spec, n):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"matrix dimension must be >= 1, got {n!r}")
        return cls._raw(spec, n, (0,) * (n * n))

    def _compatible(self, other):
        # specs are canonical objects: identity settles the common case
        # without the Python-level FieldSpec.__eq__
        if self.spec is not other.spec and self.spec != other.spec:
            raise InputError("matrices live over different fields")
        if self.n != other.n:
            raise InputError(
                f"dimension mismatch: {self.n} vs {other.n}")

    def entry(self, i, j):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"index ({i}, {j}) out of range for n={self.n}")
        return self.entries[i * self.n + j]

    def rows(self):
        n = self.n
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def serialize(self):
        return [list(r) for r in self.rows()]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return ((self.spec is other.spec or self.spec == other.spec)
                and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.spec, self.n, self.entries))

    def __repr__(self):
        return f"Mat({self.spec.descriptor()}, {self.serialize()})"

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        spec = self.spec
        return Mat._raw(spec, self.n, tuple(
            spec._ops().plus(self.entries, other.entries)))

    def __neg__(self):
        spec = self.spec
        return Mat._raw(spec, self.n, tuple(spec._ops().negate(self.entries)))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        spec = self.spec
        return Mat._raw(spec, self.n, tuple(
            spec._ops().minus(self.entries, other.entries)))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        spec, n = self.spec, self.n
        ops = spec._ops()
        return Mat._raw(spec, n,
                        _product(n, ops)(self.entries, other.entries, ops))

    def scale(self, c):
        spec = self.spec
        spec.check(c)
        return Mat._raw(spec, self.n,
                        tuple(spec._ops().scale(c, self.entries)))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError(
                f"matrix exponent must be a non-negative integer, got {k!r}")
        spec, n = self.spec, self.n
        if not k:
            return Mat.identity(spec, n)
        ops = spec._ops()
        product = _product(n, ops)
        return Mat._raw(spec, n, power(self.entries, k,
                                       lambda a, b: product(a, b, ops)))

    def trace(self):
        return self.spec._ops().total(self.entries[::self.n + 1])

    def is_zero(self):
        return not any(self.entries)


def cycle_permutation_matrix(spec, m):
    """The m-cycle permutation matrix: e_i -> e_(i+1 mod m), m >= 2."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"cycle length must be >= 2, got {m!r}")
    return Mat._raw(spec, m,
                    tuple(1 if j == (i + 1) % m else 0
                          for i in range(m) for j in range(m)))


def char_poly(M):
    """Characteristic polynomial det(XI - M), monic of degree n.

    Division-free Toeplitz recurrence over trailing principal submatrices,
    so it works verbatim over any finite field.  Each step's dot products
    are one backend times and total.  The running polynomial v is kept as
    descending coefficients, and each step replaces it by the product of
    the lower-triangular Toeplitz matrix of the column t with v: the first
    len(v) + 1 coefficients of poly._mul(t, v).
    """
    spec, n = M.spec, M.n
    ops = spec._ops()
    ent = M.entries
    v = (1,)
    for i in range(n - 1, -1, -1):
        row = ent[i * n + i + 1:(i + 1) * n]
        sub = [ent[r * n + i + 1:(r + 1) * n] for r in range(i + 1, n)]
        w = [ent[r * n + i] for r in range(i + 1, n)]
        dots = [ent[i * n + i]]
        for _ in range(n - i - 1):
            dots.append(ops.total(ops.times(row, w)))
            w = [ops.total(ops.times(r, w)) for r in sub]
        v = _mul((1, *ops.negate(dots)), v, ops)[:len(v) + 1]
    return Poly._raw(spec, v[::-1])


def _poly_at(coeffs, M):
    """The matrix c_0 I + c_1 M + ... + c_k M^k of the coefficient tuple
    coeffs = (c_0, ..., c_k), by Horner's rule: one product through
    _product and one backend plus on the diagonal per coefficient below
    the top nonzero one."""
    spec, n = M.spec, M.n
    ops = spec._ops()
    product = _product(n, ops)
    diag = slice(None, None, n + 1)
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    acc = [0] * (n * n)
    for j in range(k - 1, -1, -1):
        if j < k - 1:
            acc = list(product(acc, M.entries, ops))
        if coeffs[j]:
            acc[diag] = ops.plus(acc[diag], (coeffs[j],) * n)
    return Mat._raw(spec, n, tuple(acc))


def _reduce(basis, vec, combo, spec):
    """The one elimination loop: clear vec, in place, at the pivot of each
    basis row (row, pivot, row_combo), where row holds 1, subtracting the
    same multiples of each row_combo from combo.  Returns the first index
    where vec is still nonzero, or None when vec reduced to 0.

    Each basis row was reduced against the rows before it, so it is 0 at
    their pivots, and vec ends 0 at every pivot: it reduces to 0 exactly
    when it lies in the span of the rows.
    """
    ops = spec._ops()
    for row, pivot, row_combo in basis:
        c = vec[pivot]
        if c:
            ops.submul(vec, c, row)
            ops.submul(combo, c, row_combo)
    for idx, v in enumerate(vec):
        if v:
            return idx
    return None


def _basis_row(vec, pivot, combo, spec):
    """The basis row of a vector _reduce left nonzero at pivot: vec and
    combo scaled so that vec holds 1 there."""
    scale = spec._inv(vec[pivot])
    if scale == 1:
        return vec, pivot, combo
    ops = spec._ops()
    return ops.scale(scale, vec), pivot, ops.scale(scale, combo)


def det(M):
    """Determinant: the rows reduced in order are, up to the column order
    their pivots give, upper triangular, so det is the product of their
    leading entries, negated when the pivot order has an odd number of
    inversions."""
    spec, n = M.spec, M.n
    basis = []
    leads = []
    for i in range(n):
        vec = list(M.entries[i * n:(i + 1) * n])
        pivot = _reduce(basis, vec, [], spec)
        if pivot is None:
            return 0
        leads.append(vec[pivot])
        basis.append(_basis_row(vec, pivot, [], spec))
    pivots = [pivot for _, pivot, _ in basis]
    inversions = sum(a > b for j, a in enumerate(pivots)
                     for b in pivots[j + 1:])
    if inversions % 2:
        leads.append(spec.p - 1)  # -1, a prime-field element
    return spec._ops().product(leads)


def min_poly(M):
    """Monic minimal polynomial: the powers I, M, M^2, ... reduced through
    _reduce, each tracking its combination of powers, until one reduces
    to 0.  The powers are entry tuples; the combination that reduces to 0
    ends in the 1 of its own power, so it is already monic and canonical."""
    spec, n = M.spec, M.n
    ops = spec._ops()
    product = _product(n, ops)
    basis = []
    acc = (1,) + ((0,) * n + (1,)) * (n - 1)  # the identity
    k = 0
    while True:
        vec = list(acc)
        combo = [0] * k + [1]
        pivot = _reduce(basis, vec, combo, spec)
        if pivot is None:
            return Poly._raw(spec, tuple(combo))
        if k >= n:
            raise WeakperError(
                "power M^n failed to reduce against lower powers")
        basis.append(_basis_row(vec, pivot, combo, spec))
        acc = product(acc, M.entries, ops) if k else M.entries
        k += 1


def universal_potency_exponent(n, spec):
    """The k with M^(k+1) = M for every potent n x n matrix over spec:
    lcm of q^d - 1 over d = 1..n."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"dimension must be >= 1, got {n!r}")
    q = spec.order
    k = 1
    for d in range(1, n + 1):
        k = math.lcm(k, q ** d - 1)
        if k >= EXPONENT_CAP:
            raise LimitError(
                f"universal potency exponent for n={n}, q={q} exceeds "
                f"the cap 2^63")
    return k


def is_potent(M):
    """True when the minimal polynomial of M is squarefree (see the module
    docstring for how this differs from M^(k+1) = M for some k >= 1)."""
    return _squarefree(min_poly(M))


def is_potent_iterative(M):
    """Same predicate as is_potent (squarefree minimal polynomial), decided
    by testing M^(k+1) = M at the universal exponent k: X^(k+1) - X is
    squarefree, so this holds exactly when is_potent does.  Kept as an
    independent route."""
    k = universal_potency_exponent(M.n, M.spec)
    return M ** (k + 1) == M


def is_potent_at(M, t):
    """True when t >= 2, p does not divide t - 1 and M^t = M, which proves
    M potent: min_poly(M) then divides X^t - X = X (X^(t-1) - 1),
    and X^(t-1) - 1 is squarefree because its derivative (t - 1) X^(t-2)
    is nonzero and prime to it.  False says only that t is not such an
    exponent of M; potency_exponent(M) always is one, since t - 1 is then
    an lcm of divisors of numbers q^d - 1."""
    return t >= 2 and (t - 1) % M.spec.p != 0 and M ** t == M


def is_square_zero(M):
    return (M * M).is_zero()


def _root_order(h, d):
    """Multiplicative order of X modulo h, a product of distinct
    irreducibles of degree d other than X, taken on coefficient tuples.

    GF(q)[X]/(h) is a product of copies of GF(q^d), so that order is the
    lcm of the orders of the roots of h, and it divides q^d - 1.
    """
    spec, m = h.spec, _monic(h.coeffs, h.spec)
    ops = spec._ops()
    return multiplicative_order((0, 1), spec.order ** d - 1,
                                lambda x, k: _pow_mod(x, k, m, ops), (1,))


# squarefreeness of a minimal polynomial, memoised apart from its exponent:
# is_potent reads only this, and the exponent costs several times more
_squarefree = functools.lru_cache(maxsize=_POTENCY_CACHE_SIZE)(is_squarefree)


@functools.lru_cache(maxsize=_POTENCY_CACHE_SIZE)
def min_poly_exponent(mp):
    """The potency exponent of every matrix with minimal polynomial mp:
    None when mp is not squarefree, else 1 + the lcm of the orders of its
    roots other than 0, taken one distinct-degree part at a time.  The
    empty lcm is 1, so mp = X gets 2.

    Both facts are pure in mp, and Poly equality includes the field, so
    they are memoised.  The exponent is not capped: Python ints are
    unbounded, and is_potent_at re-verifies it by powering.
    """
    if not _squarefree(mp):
        return None
    spec = mp.spec
    cs = _monic(mp.coeffs, spec)
    if cs[0] == 0:
        cs = cs[1:]  # squarefree, so X divides it once
    k = 1
    for d, h in _distinct_degree_parts(cs, spec):
        if len(h) > 1:
            k = math.lcm(k, _root_order(Poly._raw(spec, h), d))
    return k + 1


def potency_exponent(M):
    """The least t > 1 with M^t = M, or None when M is not potent; see
    min_poly_exponent."""
    return min_poly_exponent(min_poly(M))

