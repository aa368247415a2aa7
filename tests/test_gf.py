"""Field construction, descriptor parsing, arithmetic laws, embeddings."""

import importlib
import pkgutil
import time

import pytest
from hypothesis import given, strategies as st

import weakper
from weakper import gf
from weakper.errors import (
    BadDegree,
    DegreeOutOfRange,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NoRootFound,
    NotASubfield,
    NotPrime,
)
from weakper.gf import (
    build_field,
    embed,
    factorize,
    is_prime,
    multiplicative_order,
    parse_field,
    power_exceeds,
    prime_factors,
    roots_of_unity,
    subfield_lattice,
    unity_powers,
)

from weakper.rosets import divisor_count

from conftest import exp_log_chain

GF8 = build_field(2, 3)
GF9 = build_field(3, 2)
# every table-built extension field with p <= 13 up to 2^15, among them odd
# degrees such as 3^7, 7^5 and 2^15 whose two digit chunks differ in length
TABLE_FIELDS = [(p, l) for p in (2, 3, 5, 7, 11, 13)
                for l in range(2, 16) if p ** l <= 1 << 15]


def fields_up_to(bound, min_degree=1):
    """Canonical GF(p^l) for every prime power p^l <= bound with
    l >= min_degree, ascending by (p, l)."""
    return [build_field(p, l) for p in range(2, bound + 1) if is_prime(p)
            for l in range(min_degree, bound.bit_length())
            if p ** l <= bound]


def test_is_prime_small_table():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(91)  # 7 * 13
    assert is_prime(97)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(360) == (2, 3, 5)


@pytest.mark.parametrize(
    "p,l,modulus",
    [
        (2, 1, (0, 1)),
        (3, 1, (0, 1)),
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 0, 1, 1)),
        (3, 2, (1, 0, 1)),
        (2, 4, (1, 0, 0, 1, 1)),
        (5, 2, (1, 1, 1)),
        # higher degrees, among them the splitting fields rosets builds
        (2, 6, (1, 0, 0, 0, 0, 1, 1)),
        (3, 4, (1, 0, 1, 1, 1)),
        (3, 6, (1, 0, 0, 0, 1, 1, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (5, 6, (1, 0, 0, 0, 1, 1, 1)),
        (7, 4, (1, 0, 0, 1, 1)),
        (2, 16, (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)),
        (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
    ],
)
def test_canonical_moduli(p, l, modulus):
    # smallest monic irreducible in ascending coefficient order
    assert build_field(p, l).modulus == modulus


def test_descriptor_format(gf3, gf4):
    assert gf3.descriptor() == "3^1/0,1"
    assert gf4.descriptor() == "2^2/1,1,1"


def test_parse_field_round_trip(gf3, gf4, gf9):
    assert parse_field("3") is gf3
    assert parse_field("2^2") is gf4
    assert parse_field("2^2/1,1,1") is gf4
    assert parse_field("3^2/1,0,1") is gf9


def test_parse_field_rejects():
    with pytest.raises(NotPrime):
        parse_field("4")
    with pytest.raises(NotPrime):
        parse_field("6^1")
    with pytest.raises(FieldMismatch):
        parse_field("2^2/1,0,1")  # not the canonical modulus
    with pytest.raises(InputError):
        parse_field("2^")
    with pytest.raises(InputError):
        parse_field("abc")
    with pytest.raises(InputError):
        parse_field("2^2/1,1")  # wrong coefficient count
    with pytest.raises(InputError):
        parse_field("2^2/")  # empty modulus
    with pytest.raises(DegreeOutOfRange):
        parse_field("2^25")  # order above the default field bound


def test_element_range_checks(gf3):
    gf3.check(0)
    gf3.check(2)
    with pytest.raises(InputError):
        gf3.check(3)
    with pytest.raises(InputError):
        gf3.check(-1)
    assert list(gf3.elements()) == [0, 1, 2]


def test_char2_addition_is_xor(gf8):
    for a in gf8.elements():
        for b in gf8.elements():
            assert gf8.add(a, b) == a ^ b


def test_digitwise_addition_gf9(gf9):
    for a in gf9.elements():
        for b in gf9.elements():
            expected = (a % 3 + b % 3) % 3 + 3 * ((a // 3 + b // 3) % 3)
            assert gf9.add(a, b) == expected


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_laws(a, b, c):
    add, mul = GF9.add, GF9.mul
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(st.integers(0, 7), st.integers(0, 7))
def test_gf8_sub_inverts_add(a, b):
    assert GF8.sub(GF8.add(a, b), b) == a
    assert GF8.add(a, GF8.neg(a)) == 0


def test_multiplicative_inverses(gf9):
    for a in range(1, 9):
        assert gf9.mul(a, gf9.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        gf9.inv(0)
    with pytest.raises(DivisionByZero):
        gf9.div(1, 0)


def test_fermat_exponent(gf9):
    for a in range(1, 9):
        assert gf9.pow(a, 8) == 1
    assert gf9.pow(0, 0) == 1
    assert gf9.pow(5, 0) == 1


def test_frobenius_is_additive(gf8, gf9):
    for spec in (gf8, gf9):
        for a in spec.elements():
            for b in spec.elements():
                lhs = spec.pow(spec.add(a, b), spec.p)
                rhs = spec.add(spec.pow(a, spec.p), spec.pow(b, spec.p))
                assert lhs == rhs


def test_generators_frozen(gf4, gf5, gf7, gf9):
    assert gf4.generator() == 2
    assert gf5.generator() == 2
    assert gf7.generator() == 3
    assert gf9.generator() == 4


def fresh_field(p, l):
    """An uncached copy of the canonical GF(p^l), with no tables yet."""
    return gf.FieldSpec(p, l, build_field(p, l).modulus)


@pytest.mark.parametrize("p,l", TABLE_FIELDS)
def test_mul_tables_match_chain_oracle(p, l):
    spec = fresh_field(p, l)
    spec.mul(1, 1)
    exp, log = exp_log_chain(spec)
    assert spec._exp == exp
    assert spec._log == log
    assert all(exp[log[x]] == x for x in range(1, spec.order))


@pytest.mark.parametrize("p,l", [(3, 2), (2, 4), (5, 6), (7, 5), (2, 15)])
def test_table_build_rejects_a_non_generator(monkeypatch, p, l):
    canonical = build_field(p, l)
    g = canonical.generator()
    # 0, 1 and g^r of order (q - 1) / r for each prime r dividing q - 1
    wrong = [0, 1] + [canonical.pow(g, r)
                      for r in prime_factors(canonical.order - 1)]
    for not_generator in wrong:
        monkeypatch.setattr(gf.FieldSpec, "_find_generator",
                            lambda self: not_generator)
        with pytest.raises(NoRootFound):
            fresh_field(p, l).mul(1, 1)


def test_gf5_6_tables_cost_few_generic_multiplications(monkeypatch):
    # machine-independent guard: one generic multiplication per table
    # entry would be q - 1 = 15,624 of them
    calls = {"raw_mul": 0, "find_generator": 0}
    raw_mul = gf.FieldSpec._raw_mul
    find_generator = gf.FieldSpec._find_generator

    def counted_raw_mul(self, x, y):
        calls["raw_mul"] += 1
        return raw_mul(self, x, y)

    def counted_find_generator(self):
        calls["find_generator"] += 1
        return find_generator(self)

    monkeypatch.setattr(gf.FieldSpec, "_raw_mul", counted_raw_mul)
    monkeypatch.setattr(gf.FieldSpec, "_find_generator",
                        counted_find_generator)
    spec = gf._canonical_field.__wrapped__(5, 6)
    assert spec._exp is None and spec._log is None
    g = spec.generator()
    assert spec.mul(g, g) == spec._exp[2]
    assert calls["raw_mul"] < 1000
    assert calls["find_generator"] == 1
    assert len(spec._exp) == 2 * (spec.order - 1)
    assert len(spec._log) == spec.order


def test_element_orders_gf9(gf9):
    assert gf9.element_order(2) == 2
    assert gf9.element_order(3) == 4
    assert gf9.element_order(4) == 8
    with pytest.raises(DivisionByZero):
        gf9.element_order(0)


def test_roots_of_unity(gf4, gf5, gf7):
    assert roots_of_unity(gf5, 1) == frozenset({1})
    assert roots_of_unity(gf5, 2) == frozenset({1, 4})
    assert roots_of_unity(gf5, 4) == frozenset({1, 2, 3, 4})
    # only the gcd with the group order matters
    assert roots_of_unity(gf5, 6) == frozenset({1, 4})
    assert roots_of_unity(gf4, 3) == frozenset({1, 2, 3})
    assert roots_of_unity(gf7, 3) == frozenset({1, 2, 4})


def test_roots_of_unity_are_roots(gf9):
    for i in (2, 4, 8):
        for x in roots_of_unity(gf9, i):
            assert gf9.pow(x, i) == 1


def test_subfield_lattice(gf8):
    gf16 = build_field(2, 4)
    assert [s.descriptor() for s in subfield_lattice(gf16)] == [
        "2^1/0,1", "2^2/1,1,1", "2^4/1,0,0,1,1"]
    assert [s.descriptor() for s in subfield_lattice(gf8)] == [
        "2^1/0,1", "2^3/1,0,1,1"]


def test_embed_is_field_hom(gf2, gf4):
    gf16 = build_field(2, 4)
    img = {x: embed(x, gf4, gf16) for x in gf4.elements()}
    assert img[0] == 0 and img[1] == 1
    assert len(set(img.values())) == 4
    for a in gf4.elements():
        for b in gf4.elements():
            assert img[gf4.add(a, b)] == gf16.add(img[a], img[b])
            assert img[gf4.mul(a, b)] == gf16.mul(img[a], img[b])
    assert embed(1, gf2, gf16) == 1
    assert embed(3, gf4, gf4) == 3


def test_embed_rejects_non_subfield(gf4, gf8):
    with pytest.raises(NotASubfield):
        embed(1, gf4, gf8)  # 2 does not divide 3


def test_geometric_sum_of_root_powers(gf7, gf8, gf9):
    # for h of multiplicative order d >= 2: h + h^2 + ... + h^(d-1) = -1
    for spec in (gf7, gf8, gf9):
        minus_one = spec.neg(1)
        for h in range(2, spec.order):
            d = spec.element_order(h)
            if d < 2:
                continue
            total = 0
            acc = 1
            for _ in range(d - 1):
                acc = spec.mul(acc, h)
                total = spec.add(total, acc)
            assert total == minus_one


def test_build_field_bounds():
    with pytest.raises(NotPrime):
        build_field(6, 1)
    with pytest.raises(DegreeOutOfRange):
        build_field(2, 21)
    assert build_field(2, 5, bound=1 << 6).order == 32
    with pytest.raises(DegreeOutOfRange):
        build_field(2, 7, bound=1 << 6)


def test_field_memos_are_bounded():
    for memo in (gf._canonical_field, gf._embedding_powers):
        assert memo.cache_info().maxsize == 64


def test_every_memo_is_bounded():
    memos = {}
    for info in pkgutil.iter_modules(weakper.__path__):
        module = importlib.import_module(f"weakper.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                memos[f"{info.name}.{name}"] = value
    assert "gf._canonical_field" in memos
    unbounded = [name for name, memo in memos.items()
                 if memo.cache_info().maxsize is None]
    assert unbounded == []


N_ORACLE = 10 ** 4


def sieved_prime_factors(limit):
    """Distinct prime factors of every n <= limit, by crossing out the
    multiples of each prime in turn."""
    factors = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if not factors[p]:
            for multiple in range(p, limit + 1, p):
                factors[multiple].append(p)
    return factors


def test_integer_kernels_match_sieves():
    factors = sieved_prime_factors(N_ORACLE)
    divisors = [0] * (N_ORACLE + 1)
    for d in range(1, N_ORACLE + 1):
        for multiple in range(d, N_ORACLE + 1, d):
            divisors[multiple] += 1
    for n in range(N_ORACLE + 1):
        assert is_prime(n) == (n >= 2 and factors[n] == [n]), n
        if n == 0:
            continue
        assert prime_factors(n) == tuple(factors[n]), n
        assert divisor_count(n) == divisors[n], n
        pairs = tuple(factorize(n))
        assert [p for p, _ in pairs] == factors[n], n
        assert all(n % p ** e == 0 and n % p ** (e + 1) != 0
                   for p, e in pairs), n


def test_is_prime_stops_at_the_smallest_factor():
    # a trial division of the whole of 2 * (2^61 - 1) would not finish
    assert not is_prime(2 * (2 ** 61 - 1))
    assert not is_prime(1.0) and not is_prime(7.0) and not is_prime(None)


def test_power_exceeds_is_exact():
    for q in range(2, 20):
        for k in range(12):
            for bound in {0, 1, q ** k - 1, q ** k, q ** k + 1, 2 ** k,
                          (2 * q) ** k}:
                assert power_exceeds(q, k, bound) == (q ** k > bound), (
                    q, k, bound)


def test_power_exceeds_never_builds_a_huge_power():
    start = time.perf_counter()
    assert power_exceeds(2, 10 ** 18, 1 << 20)
    assert power_exceeds(3, 2 ** 62, 10 ** 100)
    assert not power_exceeds(2, 20, 1 << 20)
    assert time.perf_counter() - start < 1


def test_degree_below_one_is_input_error():
    for l in (0, -1):
        with pytest.raises(BadDegree):
            build_field(2, l)
        with pytest.raises(InputError):
            parse_field(f"3^{l}")
    # an order past the bound is still a limit, not an input error
    assert not issubclass(DegreeOutOfRange, InputError)
    with pytest.raises(DegreeOutOfRange):
        build_field(2, 10 ** 12)


def test_pow_at_zero_and_negative_exponents():
    for spec in fields_up_to(64):
        for x in spec.elements():
            assert spec._pow(x, 0) == 1
            if x == 0:
                assert spec._pow(x, 3) == 0
                with pytest.raises(DivisionByZero):
                    spec._pow(x, -1)
                continue
            inv = spec._inv(x)
            assert spec.mul(x, inv) == 1
            acc = 1
            for k in range(1, 5):
                acc = spec.mul(acc, inv)
                assert spec._pow(x, -k) == acc


def test_multiplicative_order_matches_brute_walk():
    for spec in fields_up_to(64):
        for x in range(1, spec.order):
            order = 1
            acc = x
            while acc != 1:
                acc = spec.mul(acc, x)
                order += 1
            assert multiplicative_order(
                x, spec.order - 1, spec._pow, 1) == order, (spec, x)
            assert spec.element_order(x) == order


def test_unity_powers_are_the_d_th_roots_of_unity():
    for spec in fields_up_to(256):
        q = spec.order
        for d in range(1, q):
            if (q - 1) % d:
                continue
            powers = unity_powers(spec, d)
            assert len(powers) == d and len(set(powers)) == d, (spec, d)
            assert all(spec._pow(x, d) == 1 for x in powers)
            # successive powers of one primitive d-th root, from 1
            zeta = powers[1] if d > 1 else 1
            assert powers == tuple(spec._pow(zeta, i) for i in range(d))


def test_embedding_powers_match_smallest_root_scan():
    # extension fields only: a prime field's one pair is itself, and its
    # modulus X has the root 0
    for sup in fields_up_to(1 << 12, min_degree=2):
        for sub in subfield_lattice(sup):
            root = None
            for y in sup.elements():
                acc = 0
                for c in reversed(sub.modulus):
                    acc = sup.add(sup.mul(acc, y), c)
                if acc == 0:
                    root = y
                    break
            expected = [1]
            for _ in range(sub.l - 1):
                expected.append(sup.mul(expected[-1], root))
            assert gf._embedding_powers(sub, sup) == tuple(expected), (
                sub, sup)
