from fractions import Fraction

import numpy as np
import pytest

from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    DegreeSequence,
    Polynomial,
    PrimeField,
    annihilator,
    betti_aci_odd,
    betti_formula,
    betti_from_quotient,
    colon_ideal,
    gorenstein_linked_hilbert,
    ideal_slices,
    linked_ideal,
    macaulay_matrix,
    membership,
    minimal_betti_oracle,
    minimal_generators,
    monomials_of_degree,
    parse_polynomial,
    power_of_linear,
    series_numerator,
    socle_dims,
    syzygies_in_degree,
)
from bettiforge.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonArtinianError,
    PreconditionError,
)
from bettiforge import exactalg, resolver
from bettiforge.exactalg import SparseRows, rank_of_rows
from bettiforge.polyring import dot, macaulay_columns, monomial_count, power_ideal

from helpers import (
    FIELDS,
    coeffs,
    dense_koszul_differential,
    monomial_index,
    monomial_mul,
    odd_parity_sweep,
    oracle_table,
)


NO_RING = "an empty generator list has no ring; the zero ideal is generated by the zero polynomial"


def vp(i, d, n, field=QQ):
    return Polynomial.variable_power(i, d, n, field)


def ell_power(n, e, field=QQ):
    return power_of_linear([1] * n, e, field)


def test_quotient_hilbert_two_squares():
    assert ideal_slices([vp(0, 2, 2), vp(1, 2, 2)]).hilbert() == [1, 2, 1]


def test_quotient_hilbert_quadrics_and_ell():
    gens = [vp(i, 2, 3) for i in range(3)] + [ell_power(3, 2)]
    res = ideal_slices(gens)
    # hand expansion: (1-T^2)^4/(1-T)^3 = 1 + 3T + 2T^2 - ...
    assert res.hilbert() == [1, 3, 2] and res.artinian


def test_quotient_hilbert_empty_is_open():
    res = ideal_slices([Polynomial.zero(2, QQ)], max_degree=2)
    assert not res.artinian
    assert res.hilbert() == [1, 2, 3]
    with pytest.raises(PreconditionError, match=f"^{NO_RING}"):
        ideal_slices([], max_degree=2)


def test_slices_match_macaulay_rank():
    gens = [vp(0, 2, 2), vp(1, 3, 2), ell_power(2, 2)]
    slices = ideal_slices(gens)
    for j in range(slices.bound + 1):
        m = macaulay_matrix(gens, j)
        assert slices.dim(j) == rank_of_rows(m, m.shape[1], QQ)


def test_minimal_generators_redundant_power():
    slices = ideal_slices([vp(0, 2, 1), vp(0, 3, 1)])
    gens = minimal_generators(slices)
    assert [g.degree for g in gens] == [2]
    assert gens[0] == vp(0, 2, 1)


def test_minimal_generators_colon_of_squares():
    J = [vp(i, 2, 3) for i in range(3)]
    col = colon_ideal(J, ell_power(3, 1))
    assert col.dim(2) == 5
    gens = minimal_generators(col)
    assert [g.degree for g in gens] == [2] * 5


def test_minimal_generators_complete_intersection():
    slices = ideal_slices([vp(0, 2, 3), vp(1, 3, 3), vp(2, 4, 3)])
    gens = minimal_generators(slices)
    assert sorted(g.degree for g in gens) == [2, 3, 4]


def test_oracle_koszul_for_complete_intersection():
    t = minimal_betti_oracle([vp(0, 2, 2), vp(1, 2, 2)])
    assert t.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_oracle_cubes_fixture():
    t = oracle_table(4, (3, 3, 3, 3), 3, "aci")
    assert t.totals() == [1, 5, 17, 20, 7]
    assert t.entries == {(0, 0): 1, (1, 3): 5, (2, 6): 16, (2, 7): 1, (3, 7): 10,
                         (3, 8): 10, (4, 8): 1, (4, 9): 6}


def test_oracle_matches_closed_form_quartics():
    ds = DegreeSequence(4, (4, 4, 4, 4), 4)
    assert oracle_table(4, (4, 4, 4, 4), 4, "aci") == betti_aci_odd(ds)


def test_oracle_rejects_non_artinian():
    with pytest.raises(NonArtinianError):
        minimal_betti_oracle([vp(0, 2, 2)])


def test_colon_by_unit_is_identity():
    J = [vp(0, 2, 2), vp(1, 3, 2)]
    col = colon_ideal(J, Polynomial.constant(1, 2, QQ))
    slices = ideal_slices(J, max_degree=col.bound)
    for j in range(col.bound + 1):
        assert col.dim(j) == slices.dim(j)
        for row in slices.bases[j].full_rows():
            assert col.bases[j].contains(row)


@pytest.mark.parametrize("gens, error, message", [
    ([], PreconditionError, NO_RING),
    ([vp(0, 2, 2)], NonArtinianError, "fewer generators than variables can never be Artinian"),
], ids=["none", "one"])
def test_colon_refuses_fewer_generators_than_variables(gens, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        colon_ideal(gens, ell_power(2, 2))


SQUARES = [vp(0, 2, 2), vp(1, 2, 2)]
SQUARES_GF = [vp(0, 2, 2, GF_DEFAULT), vp(1, 2, 2, GF_DEFAULT)]
DENSE_IN_3 = parse_polynomial("x1*x2 + x3^2")
X3 = Polynomial.variable(2, 3, QQ)


@pytest.mark.parametrize("call, error", [
    (lambda: ideal_slices(SQUARES + [DENSE_IN_3]), DimensionMismatchError),
    (lambda: ideal_slices(SQUARES + [X3]), DimensionMismatchError),
    (lambda: minimal_betti_oracle(SQUARES + [DENSE_IN_3]), DimensionMismatchError),
    (lambda: minimal_betti_oracle(SQUARES + [X3]), DimensionMismatchError),
    (lambda: colon_ideal(SQUARES_GF, Polynomial.variable(0, 3, GF_DEFAULT)),
     DimensionMismatchError),
    (lambda: colon_ideal(SQUARES_GF, vp(0, 1, 2)), FieldMismatchError),
    (lambda: membership(vp(0, 2, 2), SQUARES_GF), FieldMismatchError),
    (lambda: ideal_slices(SQUARES).contains(vp(0, 2, 3)), DimensionMismatchError),
    (lambda: ideal_slices(SQUARES).contains(vp(0, 2, 2, GF_DEFAULT)), FieldMismatchError),
], ids=["slices-dense", "slices-monomial", "oracle-dense", "oracle-monomial", "colon-nvars",
        "colon-field", "membership-field", "contains-nvars", "contains-field"])
def test_generators_and_forms_must_share_one_ring(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [lambda: minimal_betti_oracle([]),
                                  lambda: syzygies_in_degree([], 3)], ids=["oracle", "syzygies"])
def test_empty_generator_list_has_no_ring(call):
    with pytest.raises(PreconditionError, match=f"^{NO_RING}$"):
        call()


def test_colon_squares_by_product():
    col = colon_ideal([vp(0, 2, 2), vp(1, 2, 2)], Polynomial.monomial((1, 1), QQ))
    assert col.hilbert() == [1]  # the maximal ideal


def test_colon_four_squares_by_ell_square():
    col = colon_ideal([vp(i, 2, 4) for i in range(4)], ell_power(4, 2))
    assert col.hilbert() == [1, 4, 1]
    assert col.hilbert() == gorenstein_linked_hilbert(DegreeSequence(4, (2, 2, 2, 2), 2))


@pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1), GF_PARANOIA],
                         ids=["QQ", "GF(2**31-1)", "GF(1073741789)"])
@pytest.mark.parametrize("terms", [
    # ell^3 scaled by -1/2: 10 terms, 3 distinct coefficients
    {m: Fraction(-c, 2) for m, c in zip(monomials_of_degree(3, 3),
                                        ell_power(3, 3).values.tolist())},
    {(2, 1, 0): 1, (1, 0, 2): 2, (0, 3, 0): -3, (1, 1, 1): Fraction(5, 7), (0, 0, 3): -11},
    {(3, 0, 0): -1, (0, 3, 0): -1, (0, 0, 3): -1, (1, 1, 1): 4, (2, 0, 1): 4, (0, 1, 2): 9},
], ids=["repeated", "distinct", "both"])
def test_products_class_matrix_is_the_reduced_products(field, terms, monkeypatch):
    # row m is the class of m * g in degree k + deg g: the product formed by
    # `dot` and reduced by that degree's basis, over every monomial m, over
    # the monomials at explicit positions `monos`, and over the standard ones
    # (`mult_poly`, which has the rank of all the rows, as I_k * g lies in I),
    # and so is column m of `mult_variable` for g = x_v, over the standard m;
    # on the quotient by the power ideal, by its monomials alone, whose bases
    # have no tail, so that no matrix product is formed, by the link, whose
    # bases are dense, and by a non-Artinian ideal cut off at degree 7
    g = Polynomial.from_terms(3, field, terms)
    sub_matmul, products = type(field).sub_matmul, []

    def spy(*args):
        products.append(args)
        return sub_matmul(*args)

    def reduced_products(g, k):
        base = quot.bases[k + g.degree]
        return np.array([base.reduce(dot([Polynomial.monomial(m, field)], [g]).to_vector(k + g.degree))
                         for m in monomials_of_degree(3, k)])

    gens = power_ideal((4, 4, 4), 3, field)
    for quot, formed in [(ideal_slices(gens), True), (ideal_slices(gens[:3]), False),
                         (linked_ideal(DegreeSequence(3, (4, 4, 4), 3), field), True),
                         (ideal_slices([gens[0], gens[3]], max_degree=7), True)]:
        products.clear()
        for k in range(len(quot.hilbert()) - g.degree):
            expected = reduced_products(g, k)
            with monkeypatch.context() as patch:
                patch.setattr(type(field), "sub_matmul", spy)
                assert quot.products_class_matrix(g, k).tolist() == expected.tolist()
            monos = list(range(len(expected)))[::-2]
            assert quot.products_class_matrix(g, k, monos).tolist() == expected[monos].tolist()
            support = list(quot.bases[k].support)
            assert quot.mult_poly(g, k).tolist() == expected[support].tolist()
            h = quot.hf(k + g.degree)
            assert rank_of_rows(quot.mult_poly(g, k), h, field) == \
                rank_of_rows(quot.products_class_matrix(g, k), h, field)
            for v in range(3):
                shifted = reduced_products(Polynomial.variable(v, 3, field), k)[support]
                assert quot.mult_variable(v, k).T.tolist() == shifted.tolist()
        assert bool(products) == formed


def test_socle_of_complete_intersection():
    rep = socle_dims([vp(0, 3, 2), vp(1, 4, 2)])
    assert rep.dims == {5: 1} and rep.is_level


def test_socle_level_fixture():
    gens = power_ideal((4, 4, 4, 4, 2), 4, GF_DEFAULT)
    rep = socle_dims(gens)
    assert rep.is_level and rep.dims == {8: 20}


def test_socle_cubes_not_level():
    gens = power_ideal((3, 3, 3, 3), 3, GF_DEFAULT)
    rep = socle_dims(gens)
    assert not rep.is_level and rep.dims == {4: 1, 5: 6}


def test_syzygies_koszul_relation():
    gens = [vp(0, 2, 2), vp(1, 2, 2)]
    assert syzygies_in_degree(gens, 2) == []
    assert syzygies_in_degree(gens, 3) == []
    rels = syzygies_in_degree(gens, 4)
    assert len(rels) == 1
    a, b = rels[0].components
    # proportional to (x2^2, -x1^2)
    assert (a * gens[0] + b * gens[1]).is_zero()
    assert coeffs(a).keys() == {(0, 2)} and coeffs(b).keys() == {(2, 0)}


def test_syzygy_count_matches_oracle_beta2():
    gens = power_ideal((2, 2, 2), 2, GF_DEFAULT)
    t = oracle_table(3, (2, 2, 2), 2, "aci")
    rels = syzygies_in_degree(gens, 3)
    assert len(rels) == t.get(2, 3)


@pytest.mark.parametrize("field_key", sorted(FIELDS))
def test_syzygies_are_scaled_and_span_the_kernel(field_key):
    # one relation per kernel dimension, independent, first nonzero coefficient 1
    field = FIELDS[field_key]
    for degrees, e in (((2, 2, 2), 2), ((3, 2, 2), 3), ((2, 3, 4), 3)):
        gens = power_ideal(degrees, e, field)
        for j in range(2 * max(degrees + (e,)) + 2):
            cols = macaulay_columns(gens, j)
            rels = syzygies_in_degree(gens, j)
            vecs = [[coeffs(r.components[g]).get(m, field.zero) for g, m in cols] for r in rels]
            assert len(rels) == len(cols) - rank_of_rows(macaulay_matrix(gens, j), len(cols), field)
            assert rank_of_rows(vecs, len(cols), field) == len(rels)
            assert all(next(c for c in v if c) == field.one for v in vecs)


def test_membership_examples():
    assert membership(Polynomial.monomial((1, 1), QQ), [vp(0, 1, 2)])
    J = [vp(i, d, 3) for i, d in enumerate((2, 3, 2))]
    t = 1 + 2 + 1
    assert not membership(ell_power(3, t), J)
    assert membership(ell_power(3, t + 1), J)
    assert membership(Polynomial.zero(3, QQ), J)


def test_beta1_matches_minimal_generator_counts():
    slices = ideal_slices(power_ideal((2, 3, 2), 3, GF_DEFAULT))
    counts = {}
    for g in minimal_generators(slices):
        d = g.degree
        counts[d] = counts.get(d, 0) + 1
    table = oracle_table(3, (2, 3, 2), 3, "aci")
    assert counts == {j: v for (i, j), v in table.items() if i == 1}


def test_oracle_alternating_sums_match_hilbert():
    for args in ((2, (2, 3), 2), (3, (2, 2, 3), 2)):
        n, degs, e = args
        gens = power_ideal(degs, e, GF_DEFAULT)
        table = oracle_table(n, degs, e, "aci")
        series = ideal_slices(gens).hilbert()
        want = series_numerator(series, n)
        assert table.alternating_numerator() == {j: v for j, v in enumerate(want) if v}


def test_oracle_gorenstein_self_dual():
    ds = DegreeSequence(3, (3, 3, 3), 2)
    table = oracle_table(3, (3, 3, 3), 2, "gorenstein")
    assert table.is_self_dual(3, ds.linked_socle_degree)


def test_prime_and_rational_oracles_agree():
    for kind in ("aci", "gorenstein"):
        for ds in odd_parity_sweep([1, 2, 3]):
            args = (ds.nvars, ds.degrees, ds.ell_power, kind)
            assert oracle_table(*args, "qq") == oracle_table(*args, "p") == oracle_table(*args, "P")


def test_rational_oracle_at_four_quartics(monkeypatch):
    # aci (4,4,4,4) e=4: the QQ ranks recurse through exact Schur complements,
    # all on int64 numerators
    seen = []

    def spy(g, k, field):
        seen.append((field, g.dtype))
        return exact_schur(g, k, field)

    exact_schur = exactalg._exact_schur_complement
    monkeypatch.setattr(exactalg, "_exact_schur_complement", spy)
    ds = DegreeSequence(4, (4, 4, 4, 4), 4)
    table = minimal_betti_oracle(power_ideal(ds.degrees, ds.ell_power, QQ))
    assert seen and set(seen) == {(QQ, np.dtype(np.int64))}
    args = (4, ds.degrees, ds.ell_power, "aci")
    assert table == oracle_table(*args, "p") == oracle_table(*args, "P") == betti_formula(ds, "aci")


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["aci", "gorenstein"])
def test_prime_and_rational_oracles_agree_at_four_variables(kind):
    # large enough that QQ and GF(1073741789) ranks recurse through exact Schur complements
    for ds in odd_parity_sweep([4]):
        args = (ds.nvars, ds.degrees, ds.ell_power, kind)
        assert oracle_table(*args, "qq") == oracle_table(*args, "p") == oracle_table(*args, "P")


def test_slices_beyond_bound_raise():
    slices = ideal_slices([vp(0, 2, 2)], max_degree=3)
    with pytest.raises(PreconditionError):
        slices.hf(5)


def test_bases_end_at_the_vanishing_witness():
    # R/I vanishes first in degree v (read off each slice on its own): the
    # bases stop there, and every later degree up to the bound reads as all
    # of R with no basis of its own
    gens = power_ideal((2, 2, 2), 2, GF_DEFAULT)
    slices = ideal_slices(gens, max_degree=6)
    v = next(j for j in range(7) if resolver.slice_at_degree(gens, j, 3, GF_DEFAULT).codim == 0)
    assert v < 6 and sorted(slices.bases) == list(range(v + 1))
    for j in range(v + 1, 7):
        assert slices.hf(j) == 0 and slices.dim(j) == monomial_count(3, j)
        assert slices.contains(vp(0, j, 3, GF_DEFAULT))
        assert slices.contains(power_of_linear([1, 2, 3], j, GF_DEFAULT))


def test_a_negative_bound_is_refused():
    with pytest.raises(PreconditionError, match="degree bound of at least 0"):
        ideal_slices(power_ideal((2, 2, 2), 2, GF_DEFAULT), max_degree=-1)


def _x(expo):
    return Polynomial.monomial(expo, GF_DEFAULT)


@pytest.mark.parametrize("build,witness", [
    # (x1^2, x1*x2, x2^3) : x1 = (x1, x2), all of R from degree 1 on
    (lambda: colon_ideal([_x((2, 0)), _x((1, 1)), _x((0, 3))], _x((1, 0))), 1),
    (lambda: colon_ideal(power_ideal((3, 3, 2), 2, GF_DEFAULT), _x((1, 0, 0))), None),
    (lambda: linked_ideal(DegreeSequence(3, (3, 3, 3), 2), GF_DEFAULT), None),
    (lambda: annihilator(parse_polynomial("x1^2*x2 + x3^3 - x1*x2*x3", 3, GF_DEFAULT)), 4),
    (lambda: ideal_slices(power_ideal((2, 2, 2), 2, GF_DEFAULT)), None),
], ids=["colon-by-x1", "colon-332", "link-333", "annihilator", "slices"])
def test_every_builder_ends_its_bases_at_the_vanishing_witness(build, witness):
    # the bases run through the first degree where R/I vanishes and no
    # further; `artinian` and `socle_degree` agree with a scan of hf
    quot = build()
    codims = [quot.bases[j].codim for j in sorted(quot.bases)]
    v = codims.index(0)
    assert sorted(quot.bases) == list(range(v + 1)) and witness in (None, v)
    hf = [quot.hf(j) for j in range(v + 3)]
    assert hf[:v + 1] == codims and not any(hf[v:])
    assert quot.artinian == (0 in hf)
    assert quot.socle_degree == max((j for j, h in enumerate(hf) if h), default=0)


def _greedy_generators_reference(slices):
    """The greedy rule, one row and one rank at a time: basis row k of I_j is a
    generator when it raises the rank of R_1 * I_{j-1} plus the rows before it."""
    nvars, field = slices.nvars, slices.field
    out = []
    for j in range(slices.bound + 1):
        idx = monomial_index(nvars, j)
        ncols = len(idx)
        rows = []
        if j > 0:
            for v in range(nvars):
                unit = tuple(int(k == v) for k in range(nvars))
                shift = [idx[monomial_mul(m, unit)] for m in monomials_of_degree(nvars, j - 1)]
                for row in slices.bases[j - 1].full_rows():
                    lifted = field.zeros(ncols)
                    lifted[shift] = row
                    rows.append(lifted)
        rank = rank_of_rows(rows, ncols, field) if rows else 0
        for row in slices.bases[j].full_rows():
            rows.append(row)
            if rank_of_rows(rows, ncols, field) > rank:
                rank += 1
                out.append(Polynomial.from_vector(list(row), nvars, j, field))
    return out


@pytest.mark.parametrize("field_key", sorted(FIELDS))
@pytest.mark.parametrize("degrees,e,f", [((3, 3, 2), 2, None), ((3, 3, 3), 2, None),
                                         ((2, 2, 2, 2), 3, None), ((4, 4, 3), 3, "x1*x2 + x3^2")])
def test_minimal_generators_match_the_greedy_reference(field_key, degrees, e, f):
    field = FIELDS[field_key]
    if f is None:
        col = linked_ideal(DegreeSequence(len(degrees), degrees, e), field)
    else:
        col = colon_ideal(power_ideal(degrees, e, field),
                          parse_polynomial(f, nvars=len(degrees), field=field))
    assert minimal_generators(col) == _greedy_generators_reference(col)


def _assert_generator_counts_match_beta1(nvals, kind):
    for ds in odd_parity_sweep(nvals):
        if kind == "aci":
            slices = ideal_slices(power_ideal(ds.degrees, ds.ell_power, GF_DEFAULT))
        else:
            slices = linked_ideal(ds, GF_DEFAULT)
        counts = {}
        for g in minimal_generators(slices):
            d = g.degree
            counts[d] = counts.get(d, 0) + 1
        table = oracle_table(ds.nvars, ds.degrees, ds.ell_power, kind)
        assert counts == table.column(1), (ds, kind)


@pytest.mark.parametrize("kind", ["aci", "gorenstein"])
def test_generator_counts_match_oracle_beta1_on_the_sweep(kind):
    _assert_generator_counts_match_beta1([2, 3, 4], kind)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["aci", "gorenstein"])
def test_generator_counts_match_oracle_beta1_at_five_variables(kind):
    _assert_generator_counts_match_beta1([5], kind)


@pytest.mark.parametrize("field", [GF_DEFAULT, QQ], ids=repr)
def test_minimal_generators_absorb_one_sparse_block_per_degree(field, monkeypatch):
    # the shifts R_1 * I_{j-1} reach `absorb` as one SparseRows per degree j,
    # in the coordinates of I_j, and never as a dense block
    col = linked_ideal(DegreeSequence(4, (4, 4, 3, 3), 3), field)
    seen, absorb = [], exactalg.Accumulator.absorb
    monkeypatch.setattr(exactalg.Accumulator, "absorb",
                        lambda self, rows: seen.append((self.ncols, type(rows))) or absorb(self, rows))
    minimal_generators(col)
    degrees = [j for j in range(1, col.bound + 1) if col.dim(j) and col.dim(j - 1)]
    assert len(degrees) > 3 and seen == [(col.dim(j), SparseRows) for j in degrees]


def test_float_and_exact_rank_kernels_agree_on_koszul_matrices(monkeypatch):
    # n=4 cubes, e=4: over GF(65521) in one float64 product per block, and
    # over GF(1073741789) in 15-bit limbs, some Koszul ranks reach a nonzero
    # float64 Schur complement; only QQ reaches a Schur complement formed in
    # the field, and some of those are nonzero
    schur, exact = set(), set()

    def spy(*args):
        rows, cols, vals = float_schur(*args)
        if vals.size:
            schur.add(args[-1])
        return rows, cols, vals

    def exact_spy(g, k, field):
        s = exact_schur(g, k, field)
        exact.add((field, bool(np.count_nonzero(s))))
        return s

    float_schur, exact_schur = exactalg._schur_complement, exactalg._exact_schur_complement
    monkeypatch.setattr(exactalg, "_schur_complement", spy)
    monkeypatch.setattr(exactalg, "_exact_schur_complement", exact_spy)
    tables = [minimal_betti_oracle(power_ideal((3, 3, 3, 3), 4, f))
              for f in (GF_DEFAULT, GF_PARANOIA, QQ)]
    assert schur == {GF_DEFAULT.p, GF_PARANOIA.p}
    assert {field for field, _ in exact} == {QQ} and (QQ, True) in exact
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("field", list(FIELDS.values()), ids=list(FIELDS))
@pytest.mark.parametrize("degrees,e", [((2, 3), 2), ((2, 2, 3), 2), ((3, 3, 3), 3),
                                       ((2, 2, 3, 3), 2)])
def test_koszul_coordinates_match_the_dense_blocks(field, degrees, e):
    quot = ideal_slices(power_ideal(degrees, e, field))
    n, s = quot.nvars, quot.socle_degree
    for i in range(1, n + 1):
        for j in range(i, i + s + 1):
            dense = dense_koszul_differential(quot, i, j)
            mat = resolver._koszul_differential(quot, i, j)
            if mat is None:
                assert not dense.size, (i, j)
                continue
            assert len(mat) == dense.shape[0]
            rows, cols = np.nonzero(dense.astype(bool))
            assert mat.rows.tolist() == rows.tolist(), (i, j)
            assert mat.cols.tolist() == cols.tolist(), (i, j)
            assert mat.vals.tolist() == dense[rows, cols].tolist(), (i, j)


def test_koszul_ranks_never_see_a_dense_matrix(monkeypatch):
    seen = []

    def spy(rows, ncols, field):
        seen.append(type(rows))
        return rank_of_rows(rows, ncols, field)

    monkeypatch.setattr(resolver, "rank_of_rows", spy)
    for field in FIELDS.values():
        minimal_betti_oracle(power_ideal((3, 3, 3), 2, field))
        betti_from_quotient(linked_ideal(DegreeSequence(3, (2, 3, 3), 3), field))
    assert seen and set(seen) == {SparseRows}
