"""Dense univariate polynomials over a FieldSpec.

Coefficients are stored ascending (index = degree) in a canonical tuple with
no trailing zeros; the zero polynomial has an empty tuple and degree -1.
pow_mod and evaluation run through gf's power and horner kernels.
"""

import itertools

from .errors import (
    DegreeOutOfRange,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    InputError,
    ZeroPolynomial,
)
from .gf import DEFAULT_FIELD_BOUND, build_field, embed, horner, power

FACTOR_DEGREE_CAP = 12


class Poly:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        cs = [spec.check(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @staticmethod
    def _raw(spec, coeffs):
        # trusted: coeffs already canonical and validated
        p = object.__new__(Poly)
        p.spec = spec
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls, spec):
        return cls._raw(spec, ())

    @classmethod
    def one(cls, spec):
        return cls._raw(spec, (1,))

    @classmethod
    def x(cls, spec):
        return cls._raw(spec, (0, 1))

    @classmethod
    def constant(cls, spec, c):
        spec.check(c)
        return cls._raw(spec, (c,) if c else ())

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return f"Poly({self.spec.descriptor()}, {list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("X" if c == 1 else f"{c}*X")
            else:
                parts.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
        return " + ".join(parts)

    def _same_field(self, other):
        if self.spec != other.spec:
            raise FieldMismatch("polynomials live over different fields")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = spec._add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return Poly._raw(spec, tuple(out))

    def __neg__(self):
        spec = self.spec
        return Poly._raw(spec, tuple(spec._neg(c) for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(spec)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = spec._add(out[i + j], spec._mul(ai, bj))
        while out and out[-1] == 0:
            out.pop()
        return Poly._raw(spec, tuple(out))

    def scale(self, c):
        spec = self.spec
        spec.check(c)
        if c == 0:
            return Poly.zero(spec)
        return Poly._raw(spec, tuple(spec._mul(a, c) for a in self.coeffs))

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(spec), self
        inv_lead = spec._inv(other.lead)
        rem = list(self.coeffs)
        dd = other.degree
        den = other.coeffs
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c:
                c = spec._mul(c, inv_lead)
                quot[k - dd] = c
                off = k - dd
                for j in range(dd):
                    if den[j]:
                        rem[off + j] = spec._sub(rem[off + j],
                                                 spec._mul(c, den[j]))
            rem[k] = 0
        while rem and rem[-1] == 0:
            rem.pop()
        while quot and quot[-1] == 0:
            quot.pop()
        return Poly._raw(spec, tuple(quot)), Poly._raw(spec, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.spec._inv(self.coeffs[-1]))

    def derivative(self):
        spec = self.spec
        p = spec.p
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(spec._mul(self.coeffs[i], i % p))
        while out and out[-1] == 0:
            out.pop()
        return Poly._raw(spec, tuple(out))

    def evaluate(self, x):
        self.spec.check(x)
        return horner(self.spec, self.coeffs, x)

    def serialize(self):
        return list(self.coeffs)


def parse_poly(spec, text):
    """Parse "a0,a1,...,ak" into a Poly over spec."""
    if not isinstance(text, str) or not text.strip():
        raise InputError(f"cannot parse polynomial {text!r}")
    try:
        coeffs = [int(c) for c in text.strip().split(",")]
    except ValueError:
        raise InputError(f"cannot parse polynomial {text!r}") from None
    for c in coeffs:
        spec.check(c)
    return Poly(spec, coeffs)


def gcd(f, g):
    """Monic greatest common divisor."""
    f._same_field(g)
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base, e, mod):
    """base**e reduced modulo mod, without forming the full power."""
    base._same_field(mod)
    if not isinstance(e, int) or e < 0:
        raise InputError(f"exponent must be a non-negative integer, got {e!r}")
    if mod.degree < 1:
        raise ZeroPolynomial("modulus must have degree >= 1")
    if not e:
        return Poly.one(base.spec)
    return power(base % mod, e, lambda a, b: a * b % mod)


def is_squarefree(f):
    """True when no irreducible factor of f repeats.

    Constants are squarefree by convention.  A nonconstant polynomial with
    zero derivative is a p-th power, hence never squarefree.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefreeness of 0 is undefined")
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero():
        return False
    return gcd(f, d).degree == 0


def _monic_candidates(spec, d):
    for low in itertools.product(range(spec.order), repeat=d):
        yield Poly._raw(spec, low + (1,))


def factor(f):
    """Irreducible factorization of a nonzero polynomial, by trial division.

    Returns ((factor, multiplicity), ...) with monic factors sorted by
    (degree, coefficient tuple); f equals lead * product.  Degrees above
    FACTOR_DEGREE_CAP are rejected to keep trial division bounded.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise DegreeOutOfRange(
            f"degree {f.degree} exceeds the factoring cap {FACTOR_DEGREE_CAP}")
    work = f.monic()
    out = []
    d = 1
    while 2 * d <= work.degree:
        for cand in _monic_candidates(work.spec, d):
            if work.degree < 2 * d:
                break
            mult = 0
            q, r = divmod(work, cand)
            while r.is_zero():
                mult += 1
                work = q
                q, r = divmod(work, cand)
            if mult:
                out.append((cand, mult))
        d += 1
    if work.degree >= 1:
        # work has no factor of degree <= half its own, so it is
        # irreducible, and of higher degree than every stripped factor
        out.append((work, 1))
    return tuple(out)


def distinct_degree_parts(f):
    """Distinct-degree factorization of a nonzero f (Cantor-Zassenhaus).

    Yields (d, h_d) for d = 1, 2, ... while 2d is at most the degree of
    what is left: h_d = gcd(f', X^(q^d) - X) is the monic product of the
    distinct irreducible factors of degree d of f, f' being f with every
    power of its factors of degree < d divided out, and h_d = 1 when f has
    none.  What is left after that has no factor of degree up to half its
    own, so it is irreducible; when nonconstant it is yielded last, with
    its own degree.  Each step costs one q-th power modulo what is left,
    and a caller that stops early pays for no further step.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no factorization")
    spec = f.spec
    work = f.monic()
    x = Poly.x(spec)
    h = x  # X^(q^d) mod work
    d = 0
    while 2 * (d + 1) <= work.degree:
        d += 1
        h = pow_mod(h, spec.order, work)
        part = gcd(work, h - x)
        yield d, part
        if part.degree > 0:
            # divide out every power of the degree-d factors
            strip = part
            while strip.degree > 0:
                work = work // strip
                strip = gcd(work, strip)
            h = h % work
    if work.degree >= 1:
        yield work.degree, work


def is_irreducible(f):
    """Ben-Or's test: f of degree >= 1 is irreducible exactly when its
    first nontrivial distinct-degree part is the one of degree deg(f),
    that is gcd(f, X^(q^i) - X) = 1 for every i <= deg(f) / 2."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of 0 is undefined")
    if f.degree < 1:
        return False
    d = next(d for d, h in distinct_degree_parts(f) if h.degree > 0)
    return d == f.degree


def root_extension(spec, d, field_bound):
    """Canonical GF(q^d) over spec, where the roots of an irreducible of
    degree d live; FieldTooLarge when its order exceeds field_bound."""
    if d == 1:
        return spec
    try:
        return build_field(spec.p, spec.l * d, field_bound)
    except DegreeOutOfRange:
        raise FieldTooLarge(
            f"roots of a degree-{d} factor need GF({spec.p}^{spec.l * d}), "
            f"beyond the bound {field_bound}") from None


def roots_in_extensions(f, max_degree, field_bound=DEFAULT_FIELD_BOUND):
    """Roots of f in the extensions GF(q^d) for d <= max_degree.

    Returns ((encoding, FieldSpec), ...) sorted by (extension degree,
    encoding); each root is reported once, in the canonical field of its
    irreducible factor's degree.  Irreducible factors of degree above
    max_degree contribute nothing.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has every root")
    if not isinstance(max_degree, int) or max_degree < 1:
        raise InputError(
            f"max_degree must be a positive integer, got {max_degree!r}")
    roots = []
    for d, h in distinct_degree_parts(f):
        if d <= max_degree and h.degree > 0:
            # the distinct roots of h are exactly its deg(h) roots in
            # GF(q^d), the home of each of its degree-d factors
            ext = root_extension(f.spec, d, field_bound)
            lifted = [embed(c, f.spec, ext) for c in h.coeffs]
            found = 0
            for y in ext.elements():
                if horner(ext, lifted, y) == 0:
                    roots.append((y, ext))
                    found += 1
                    if found == h.degree:
                        break
        if d >= max_degree:
            break
    return tuple(sorted(roots, key=lambda rf: (rf[1].l, rf[0])))
