"""The vector backends of gf.FieldSpec._ops: plain integers for GF(p), the
flat lookup tables of small extension fields (gf.FlatTables), and the
element loops of fields past the table bound.  Mat, Poly, companion_of and
the searches are checked on the first two against the element backend."""

import itertools

import pytest

from weakper import companion, gf, search
from weakper.companion import companion_of
from weakper.gf import FieldSpec, build_field
from weakper.mat import Mat, det, min_poly
from weakper.poly import Poly
from weakper.rosets import _spectra_by_evaluation, weight_patterns

from conftest import (
    add_by_digits,
    element_loops,
    linear_combination,
    random_matrix,
)

# every extension field with q <= 128 and p <= 13, as (p, l)
TABLE_FIELDS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2),
                (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2))
PRIME_FIELDS = ((2, 1), (3, 1), (5, 1), (13, 1))


def test_table_fields_are_every_small_extension_field():
    small = {(p, l) for p in (2, 3, 5, 7, 11, 13) for l in range(2, 8)
             if p ** l <= gf._ADD_TABLE_BOUND}
    assert small == set(TABLE_FIELDS)
    for p, l in TABLE_FIELDS:
        assert isinstance(build_field(p, l)._ops(), gf.FlatTables)
    for p, l in ((2, 1), (13, 1), (2, 8), (3, 5), (13, 2)):
        assert not isinstance(build_field(p, l)._ops(), gf.FlatTables)


def test_ops_picks_one_backend_per_field():
    for p in (2, 3, 5, 7, 11, 13, 257):
        spec = build_field(p, 1)
        assert (spec._ops().kind, spec._ops().p) == ("p", p)
    for p, l in TABLE_FIELDS:
        spec = build_field(p, l)
        assert spec._ops().kind == ("xor" if p == 2 else "add")
        assert spec._ops().q == spec.order
    for p, l in ((2, 8), (3, 5), (13, 2), (2, 16)):
        spec = build_field(p, l)
        assert isinstance(spec._ops(), gf.ElementOps)
        assert (spec._ops().kind, spec._ops().spec) == ("element", spec)
    for p, l in TABLE_FIELDS + PRIME_FIELDS + ((2, 8),):
        spec = build_field(p, l)
        assert spec._ops() is spec._ops()


def _random_poly(rng, spec, degree):
    return Poly(spec, [rng.randrange(spec.order) for _ in range(degree)]
                + [rng.randrange(1, spec.order)])


def _matrix_results(spec, rng):
    out = []
    for n in range(1, 7):  # both sides of the straight-line cut
        cases = [Mat.zeros(spec, n), Mat.identity(spec, n)]
        cases += [random_matrix(rng, spec, n) for _ in range(3)]
        low = [rng.randrange(spec.order) for _ in range(n)]
        cases.append(companion_of(Poly(spec, low + [1])).matrix)
        c = rng.randrange(spec.order)
        for a, b in itertools.product(cases, repeat=2):
            out += [a * b, a + b, a - b]
        for a in cases:
            out += [-a, a.scale(c), a.trace(), min_poly(a), det(a)]
        a, b = cases[2], cases[3]
        out.append(linear_combination(
            [a.entries, b.entries, (a * b).entries], (a + b).entries, spec))
        out.append(linear_combination([a.entries], b.entries, spec))
        out.append(linear_combination([], Mat.zeros(spec, n).entries, spec))
    return out


def _poly_results(spec, rng):
    out = []
    for _ in range(12):
        f = _random_poly(rng, spec, rng.randrange(0, 9))
        g = _random_poly(rng, spec, rng.randrange(0, 6))
        c = rng.randrange(spec.order)
        out += [f + g, f - g, g - f, f * g, -f, f.scale(c), f.derivative(),
                divmod(f, g), divmod(g, f)]
        if f.degree >= 1:
            out.append(companion_of(f.monic()).matrix)
    return out


class TestTablePaths:
    @pytest.mark.parametrize("p, l", TABLE_FIELDS + PRIME_FIELDS)
    def test_matches_the_element_loops(self, p, l, seeded_rng):
        spec = build_field(p, l)
        state = seeded_rng.getstate()
        by_tables = _matrix_results(spec, seeded_rng)
        by_tables += _poly_results(spec, seeded_rng)
        seeded_rng.setstate(state)
        with element_loops():
            by_elements = _matrix_results(spec, seeded_rng)
            by_elements += _poly_results(spec, seeded_rng)
        assert by_tables == by_elements

    @pytest.mark.parametrize("p, l, n", [(2, 2, 1), (2, 2, 2), (2, 2, 3),
                                         (3, 2, 2), (2, 1, 2), (2, 1, 3),
                                         (3, 1, 2), (3, 1, 3), (5, 1, 2),
                                         (13, 1, 2)])
    def test_square_zero_entries(self, p, l, n):
        spec = build_field(p, l)
        enumerate_ = search._square_zero_entries.__wrapped__
        by_tables = enumerate_(spec, n)
        with element_loops():
            assert enumerate_(spec, n) == by_tables

    @pytest.mark.parametrize("p, m", [(2, 3), (2, 5), (2, 7), (5, 3),
                                      (2, 4), (3, 2), (5, 4), (13, 6),
                                      (7, 3)])
    def test_spectra_by_evaluation(self, p, m):
        # splitting fields GF(4), GF(16), GF(8) and GF(25), then the
        # prime fields GF(2), GF(3), GF(5), GF(13) and GF(7)
        spec = build_field(p, 1)
        patterns = weight_patterns(m, 3)
        by_tables = list(_spectra_by_evaluation(m, patterns, spec, 2,
                                                gf.DEFAULT_FIELD_BOUND))
        with element_loops():
            assert list(_spectra_by_evaluation(
                m, patterns, spec, 2, gf.DEFAULT_FIELD_BOUND)) == by_tables


@pytest.fixture
def element_calls(monkeypatch):
    """The names of the FieldSpec element operations called, in order."""
    calls = []
    for name in ("_add", "_sub", "_neg", "_mul"):
        def counted(spec, *args, name=name, op=getattr(FieldSpec, name)):
            calls.append(name)
            return op(spec, *args)

        monkeypatch.setattr(FieldSpec, name, counted)
    return calls


@pytest.mark.parametrize("p, l", [(2, 2), (3, 2), (5, 3), (2, 7), (3, 1),
                                  (5, 1)])
def test_makes_no_element_call(p, l, seeded_rng, element_calls):
    spec = build_field(p, l)
    _matrix_results(spec, seeded_rng)
    _poly_results(spec, seeded_rng)
    vectors = [random_matrix(seeded_rng, spec, 2).entries for _ in range(3)]
    spec._ops().combine((1, 0, spec.order - 1), vectors, 4)
    if spec.order <= 9:
        search._square_zero_entries.__wrapped__(
            spec, 3 if spec.order == 3 else 2)
    if spec.order in (4, 9):
        # the whole constructive route, the potent companions included
        companion._potent_part.cache_clear()
        for n in (2, 3):
            search.verify_field(n, spec, "constructive")
    assert element_calls == []
    # over the splitting field GF(7) of m = 3 only unity_powers' walk
    # 1, z, z^2 multiplies element by element, not the evaluation loop
    list(_spectra_by_evaluation(3, weight_patterns(3, 3), build_field(7, 1),
                                1, gf.DEFAULT_FIELD_BOUND))
    assert element_calls == ["_mul"] * 2
    del element_calls[:]
    # a field past the table bound keeps its element loops
    gf256 = build_field(2, 8)
    random_matrix(seeded_rng, gf256, 3).trace()
    assert element_calls == ["_add"] * 3


def test_prime_field_trace_neg_and_scale_make_no_element_call(
        gf5, seeded_rng, element_calls):
    for n in range(1, 7):
        a = random_matrix(seeded_rng, gf5, n)
        assert a.trace() == sum(a.entry(i, i) for i in range(n)) % 5
        assert (-a).entries == tuple(-x % 5 for x in a.entries)
        assert a.scale(3).entries == tuple(3 * x % 5 for x in a.entries)
    companion_of(Poly(gf5, (1, 2, 3, 1)))
    assert element_calls == []


def test_evaluation_spectra_take_no_product_per_term(gf2, element_calls):
    # over GF(2) at m = 5 the values live in GF(16): the evaluation loop
    # reads its tables, so the element loops' one product per pattern,
    # root and nonzero weight is all the difference; placing each fresh
    # value in its home field still multiplies element by element
    patterns = weight_patterns(5, 3)
    list(_spectra_by_evaluation(5, patterns, gf2, 4, gf.DEFAULT_FIELD_BOUND))
    by_tables = element_calls.count("_mul")
    del element_calls[:]
    with element_loops():
        list(_spectra_by_evaluation(5, patterns, gf2, 4,
                                    gf.DEFAULT_FIELD_BOUND))
    terms = sum(5 * sum(w % 2 for _, w in pattern.coeffs)
                for pattern in patterns)
    assert element_calls.count("_mul") - by_tables == terms


@pytest.mark.parametrize("p, l", [(2, 7), (5, 3), (3, 4), (2, 2)])
def test_tables_are_filled_by_lookup(p, l, monkeypatch):
    # a fresh spec, so that no table is cached: once the exp/log tables
    # exist, filling the flat tables makes no digit-arithmetic product
    spec = FieldSpec(p, l, build_field(p, l).modulus)
    spec._build_mul_tables()
    raw = []
    raw_mul = FieldSpec._raw_mul
    monkeypatch.setattr(FieldSpec, "_raw_mul",
                        lambda s, x, y: raw.append(1) or raw_mul(s, x, y))
    tables = spec._ops()
    assert raw == []
    assert spec._ops() is tables
    monkeypatch.undo()
    q = spec.order
    assert (tables.kind, tables.q) == ("xor" if p == 2 else "add", q)
    for x, y in itertools.product(range(q), repeat=2):
        assert tables.mul[x * q + y] == spec._mul(x, y)
        if tables.add is not None:
            assert tables.add[x * q + y] == spec._add(x, y)
    assert tables.neg == [spec._neg(x) for x in range(q)]


@pytest.mark.parametrize("p, l", [(p, l) for p, l in TABLE_FIELDS if p > 2])
def test_add_table_matches_digit_oracle(p, l):
    spec = FieldSpec(p, l, build_field(p, l).modulus)
    q = spec.order
    assert spec._build_add_table() == [
        add_by_digits(spec, x, y) for x in range(q) for y in range(q)]


@pytest.mark.parametrize("p, l", TABLE_FIELDS)
def test_pow_reads_the_log_tables(p, l, element_calls):
    spec = build_field(p, l)
    q = spec.order
    exponents = (1, q - 1, q, 10 ** 20 + 7)
    by_squaring = [[gf.power(x, k, spec._mul) for k in exponents]
                   for x in range(q)]
    del element_calls[:]
    assert [[spec._pow(x, k) for k in exponents]
            for x in range(q)] == by_squaring
    assert [spec._pow(x, 0) for x in range(q)] == [1] * q
    assert element_calls == []
