"""Dense univariate polynomials over a FieldSpec.

Coefficients are stored ascending (index = degree) in a canonical tuple with
no trailing zeros; the zero polynomial has an empty tuple and degree -1.
pow_mod and evaluation run through gf's power and horner kernels, and
+, -, *, scale, divmod and the derivative through the field's vector
backend, spec._ops().

Products, division by a monic divisor, the monic gcd, pow_mod and the
distinct-degree split each have one core on coefficient tuples (_mul,
_divmod_monic, _gcd, _pow_mod, _distinct_degree_parts).  Poly's * and
divmod, gcd, pow_mod, is_squarefree and distinct_degree_parts wrap them
and build one Poly per result, and mat's potency kernels call them
directly, so a remainder or a power builds no Poly on the way.
"""

import itertools

from .errors import (
    DivisionByZero,
    InputError,
    LimitError,
)
from .gf import DEFAULT_FIELD_BOUND, build_field, embed, horner, power

FACTOR_DEGREE_CAP = 12


def _mul(a, b, ops):
    """The product of two coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            ops.axpy(out, ai, b, i)
    # the leads multiply to a nonzero lead: out has no trailing zero
    return tuple(out)


def _divmod_monic(a, m, ops):
    """(quotient, remainder) of a by the monic m, as coefficient tuples.
    Each step clears rem[k] by subtracting one multiple of m, lead
    included, so nothing is inverted."""
    dm = len(m) - 1
    if len(a) <= dm:
        return (), a
    rem = list(a)
    quot = [0] * (len(rem) - dm)
    for k in range(len(rem) - 1, dm - 1, -1):
        c = rem[k]
        if c:
            quot[k - dm] = c
            ops.submul(rem, c, m, k - dm)
    del rem[dm:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def _monic(a, spec):
    """The nonzero coefficient tuple a scaled to lead 1."""
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(spec._ops().scale(spec._inv(lead), a))


def _gcd(a, b, spec):
    """The monic gcd of two coefficient tuples, not both empty: Euclid,
    each divisor made monic before it divides."""
    ops = spec._ops()
    if not b:
        a, b = b, a
    while b:
        b = _monic(b, spec)
        a, b = b, _divmod_monic(a, b, ops)[1]
    return a


def _pow_mod(a, e, m, ops):
    """a^e modulo the monic m of degree >= 1, as a coefficient tuple."""
    if not e:
        return (1,)
    return power(_divmod_monic(a, m, ops)[1], e,
                 lambda x, y: _divmod_monic(_mul(x, y, ops), m, ops)[1])


def _derivative(a, spec):
    """The derivative of a coefficient tuple: i c is c times the
    prime-field element i mod p."""
    out = spec._ops().times(a[1:], [i % spec.p for i in range(1, len(a))])
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _distinct_degree_parts(work, spec):
    """distinct_degree_parts of the monic coefficient tuple work, each
    part a monic coefficient tuple."""
    ops = spec._ops()
    q = spec.order
    h = (0, 1)  # X^(q^d) mod work
    d = 0
    while 2 * (d + 1) <= len(work) - 1:
        d += 1
        h = _pow_mod(h, q, work, ops)
        hx = list(h) + [0] * (2 - len(h))
        ops.submul(hx, 1, (0, 1))  # h - X
        while hx and hx[-1] == 0:
            hx.pop()
        part = _gcd(work, tuple(hx), spec)
        yield d, part
        if len(part) > 1:
            # divide out every power of the degree-d factors
            strip = part
            while len(strip) > 1:
                work = _divmod_monic(work, strip, ops)[0]
                strip = _gcd(work, strip, spec)
            h = _divmod_monic(h, work, ops)[1]
    if len(work) > 1:
        yield len(work) - 1, work


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
            raise InputError("the zero polynomial has no leading term")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.spec is other.spec or self.spec == other.spec)
                and self.coeffs == other.coeffs)

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
        # specs are canonical objects: identity settles the common case
        # without the Python-level FieldSpec.__eq__
        if self.spec is not other.spec and self.spec != other.spec:
            raise InputError("polynomials live over different fields")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        spec._ops().axpy(out, 1, b)
        while out and out[-1] == 0:
            out.pop()
        return Poly._raw(spec, tuple(out))

    def __neg__(self):
        spec = self.spec
        return Poly._raw(spec, tuple(spec._ops().negate(self.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        return Poly._raw(spec, _mul(self.coeffs, other.coeffs, spec._ops()))

    def scale(self, c):
        spec = self.spec
        spec.check(c)
        if c == 0:
            return Poly.zero(spec)
        return Poly._raw(spec, tuple(spec._ops().scale(c, self.coeffs)))

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        spec = self.spec
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(spec), self
        # divide by the monic den, then scale the quotient back
        ops = spec._ops()
        inv_lead = spec._inv(other.lead)
        den = other.coeffs
        if inv_lead != 1:
            den = ops.scale(inv_lead, den)
        quot, rem = _divmod_monic(self.coeffs, den, ops)
        if inv_lead != 1:
            quot = tuple(ops.scale(inv_lead, quot))
        return Poly._raw(spec, quot), Poly._raw(spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise InputError("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return Poly._raw(self.spec, _monic(self.coeffs, self.spec))

    def derivative(self):
        return Poly._raw(self.spec, _derivative(self.coeffs, self.spec))

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
        raise InputError("gcd(0, 0) is undefined")
    return Poly._raw(f.spec, _gcd(f.coeffs, g.coeffs, f.spec))


def pow_mod(base, e, mod):
    """base**e reduced modulo mod, without forming the full power."""
    base._same_field(mod)
    if not isinstance(e, int) or e < 0:
        raise InputError(f"exponent must be a non-negative integer, got {e!r}")
    if mod.degree < 1:
        raise InputError("modulus must have degree >= 1")
    spec = base.spec
    return Poly._raw(spec, _pow_mod(base.coeffs, e, _monic(mod.coeffs, spec),
                                    spec._ops()))


def is_squarefree(f):
    """True when no irreducible factor of f repeats.

    Constants are squarefree by convention.  A nonconstant polynomial with
    zero derivative is a p-th power, hence never squarefree.
    """
    if f.is_zero():
        raise InputError("squarefreeness of 0 is undefined")
    if f.degree == 0:
        return True
    d = _derivative(f.coeffs, f.spec)
    return bool(d) and len(_gcd(f.coeffs, d, f.spec)) == 1


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
        raise InputError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise LimitError(
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
        raise InputError("the zero polynomial has no factorization")
    spec = f.spec
    for d, h in _distinct_degree_parts(_monic(f.coeffs, spec), spec):
        yield d, Poly._raw(spec, h)


def is_irreducible(f):
    """Ben-Or's test: f of degree >= 1 is irreducible exactly when its
    first nontrivial distinct-degree part is the one of degree deg(f),
    that is gcd(f, X^(q^i) - X) = 1 for every i <= deg(f) / 2."""
    if f.is_zero():
        raise InputError("irreducibility of 0 is undefined")
    if f.degree < 1:
        return False
    d = next(d for d, h in distinct_degree_parts(f) if h.degree > 0)
    return d == f.degree


def root_extension(spec, d, field_bound):
    """Canonical GF(q^d) over spec, where the roots of an irreducible of
    degree d live; LimitError when its order exceeds field_bound."""
    if d == 1:
        return spec
    try:
        return build_field(spec.p, spec.l * d, field_bound)
    except LimitError:
        raise LimitError(
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
        raise InputError("the zero polynomial has every root")
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
