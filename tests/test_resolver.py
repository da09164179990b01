import numpy as np
import pytest

from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    DegreeSequence,
    Polynomial,
    betti_aci_odd,
    colon_ideal,
    gorenstein_linked_hilbert,
    ideal_slices,
    macaulay_matrix,
    membership,
    minimal_betti_oracle,
    minimal_generators,
    monomials_of_degree,
    parse_polynomial,
    power_of_linear,
    quotient_hilbert,
    series_numerator,
    socle_dims,
    syzygies_in_degree,
)
from bettiforge.errors import NonArtinianError, PreconditionError
from bettiforge import exactalg
from bettiforge.exactalg import rank_of_rows
from bettiforge.polyring import macaulay_columns, monomial_index, monomial_mul, power_ideal

from helpers import FIELDS, odd_parity_sweep, oracle_table, powers_ideal


def vp(i, d, n, field=QQ):
    return Polynomial.variable_power(i, d, n, field)


def ell_power(n, e, field=QQ):
    return power_of_linear([1] * n, e, field)


def test_quotient_hilbert_two_squares():
    assert quotient_hilbert([vp(0, 2, 2), vp(1, 2, 2)]).values == [1, 2, 1]


def test_quotient_hilbert_quadrics_and_ell():
    gens = [vp(i, 2, 3) for i in range(3)] + [ell_power(3, 2)]
    res = quotient_hilbert(gens)
    # hand expansion: (1-T^2)^4/(1-T)^3 = 1 + 3T + 2T^2 - ...
    assert res.values == [1, 3, 2] and res.artinian


def test_quotient_hilbert_empty_is_open():
    res = quotient_hilbert([], nvars=2, field=QQ)
    assert not res.artinian
    assert res.values[:3] == [1, 2, 3]


def test_slices_match_macaulay_rank():
    gens = [vp(0, 2, 2), vp(1, 3, 2), ell_power(2, 2)]
    slices = ideal_slices(gens)
    for j in range(slices.bound + 1):
        m = macaulay_matrix(gens, j)
        assert slices.dim(j) == rank_of_rows(m, m.shape[1], QQ)


def test_minimal_generators_redundant_power():
    slices = ideal_slices([vp(0, 2, 1), vp(0, 3, 1)])
    gens = minimal_generators(slices)
    assert [g.homogeneous_degree() for g in gens] == [2]
    assert gens[0] == vp(0, 2, 1)


def test_minimal_generators_colon_of_squares():
    J = [vp(i, 2, 3) for i in range(3)]
    col = colon_ideal(J, ell_power(3, 1))
    assert col.dim(2) == 5
    gens = minimal_generators(col)
    assert [g.homogeneous_degree() for g in gens] == [2] * 5


def test_minimal_generators_complete_intersection():
    slices = ideal_slices([vp(0, 2, 3), vp(1, 3, 3), vp(2, 4, 3)])
    gens = minimal_generators(slices)
    assert sorted(g.homogeneous_degree() for g in gens) == [2, 3, 4]


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
        for row in slices.basis(j).full_rows():
            assert col.basis(j).contains(row)


def test_colon_squares_by_product():
    col = colon_ideal([vp(0, 2, 2), vp(1, 2, 2)], Polynomial.monomial((1, 1), QQ))
    assert col.hilbert_values()[:2] == [1, 0]  # the maximal ideal


def test_colon_four_squares_by_ell_square():
    col = colon_ideal([vp(i, 2, 4) for i in range(4)], ell_power(4, 2))
    got = col.hilbert_values()
    top = max(j for j, v in enumerate(got) if v)
    assert got[:top + 1] == [1, 4, 1]
    assert got[:top + 1] == gorenstein_linked_hilbert(DegreeSequence(4, (2, 2, 2, 2), 2))


def test_socle_of_complete_intersection():
    rep = socle_dims([vp(0, 3, 2), vp(1, 4, 2)])
    assert rep.dims == {5: 1} and rep.is_level


def test_socle_level_fixture():
    gens = powers_ideal(DegreeSequence(5, (4, 4, 4, 4, 2), 4), GF_DEFAULT)
    rep = socle_dims(gens)
    assert rep.is_level and rep.dims == {8: 20}


def test_socle_cubes_not_level():
    gens = powers_ideal(DegreeSequence(4, (3, 3, 3, 3), 3), GF_DEFAULT)
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
    assert a.coeffs.keys() == {(0, 2)} and b.coeffs.keys() == {(2, 0)}


def test_syzygy_count_matches_oracle_beta2():
    gens = powers_ideal(DegreeSequence(3, (2, 2, 2), 2), GF_DEFAULT)
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
            vecs = [[r.components[g].coeffs.get(m, field.zero) for g, m in cols] for r in rels]
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
    ds = DegreeSequence(3, (2, 3, 2), 3)
    gens = powers_ideal(ds, GF_DEFAULT)
    slices = ideal_slices(gens)
    counts = {}
    for g in minimal_generators(slices):
        d = g.homogeneous_degree()
        counts[d] = counts.get(d, 0) + 1
    table = oracle_table(3, (2, 3, 2), 3, "aci")
    assert counts == {j: v for (i, j), v in table.items() if i == 1}


def test_oracle_alternating_sums_match_hilbert():
    for args in ((2, (2, 3), 2), (3, (2, 2, 3), 2)):
        n, degs, e = args
        gens = powers_ideal(DegreeSequence(n, degs, e), GF_DEFAULT)
        table = oracle_table(n, degs, e, "aci")
        series = quotient_hilbert(gens).values
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
        slices.quotient_dim(5)


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
    gens = powers_ideal(DegreeSequence(len(degrees), degrees, e), field)
    if f is None:
        col = colon_ideal(gens[:-1], gens[-1])
    else:
        col = colon_ideal(gens, parse_polynomial(f, nvars=len(degrees), field=field))
    assert minimal_generators(col) == _greedy_generators_reference(col)


@pytest.mark.parametrize("kind", ["aci", "gorenstein"])
def test_generator_counts_match_oracle_beta1_on_the_sweep(kind):
    for ds in odd_parity_sweep([2, 3]):
        gens = powers_ideal(ds, GF_DEFAULT)
        slices = ideal_slices(gens) if kind == "aci" else colon_ideal(gens[:-1], gens[-1])
        counts = {}
        for g in minimal_generators(slices):
            d = g.homogeneous_degree()
            counts[d] = counts.get(d, 0) + 1
        table = oracle_table(ds.nvars, ds.degrees, ds.ell_power, kind)
        assert counts == table.column(1), (ds, kind)


def test_float_and_exact_rank_kernels_agree_on_koszul_matrices(monkeypatch):
    # n=4 cubes, e=4: over GF(65521) some Koszul ranks reach a nonzero float64
    # Schur complement; over GF(1073741789), past the float64 bound, and over
    # QQ some reach a nonzero Schur complement formed in the field
    schur, exact = [], set()

    def spy(a, field, owned):
        if a.dtype == np.float64 and np.count_nonzero(a):
            schur.append(a.shape)
        return rank(a, field, owned)

    def exact_spy(g, k, field):
        s = exact_schur(g, k, field)
        if np.count_nonzero(s):
            exact.add(field)
        return s

    rank, exact_schur = exactalg._rank, exactalg._exact_schur_complement
    monkeypatch.setattr(exactalg, "_rank", spy)
    monkeypatch.setattr(exactalg, "_exact_schur_complement", exact_spy)
    ds = DegreeSequence(4, (3, 3, 3, 3), 4)
    tables = [minimal_betti_oracle(powers_ideal(ds, f)) for f in (GF_DEFAULT, GF_PARANOIA, QQ)]
    assert schur
    assert exact == {GF_PARANOIA, QQ}
    assert tables[0] == tables[1] == tables[2]
