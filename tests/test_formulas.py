from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettiforge import (
    BettiTable,
    DegreeSequence,
    PrimeField,
    betti_aci_odd,
    betti_formula,
    betti_from_quotient,
    betti_gorenstein_odd,
    betti_sum_formula,
    froberg_series,
    gorenstein_linked_hilbert,
    koszul_betti,
    linked_ideal,
    minimal_betti_oracle,
    power_ideal,
    predict_level,
    series_numerator,
    syzygy_coefficient,
    syzygy_coefficients,
)
from bettiforge.errors import MinimalityError, ParityError, PreconditionError

from helpers import (
    odd_parity_sweep,
    oracle_is_level,
    oracle_table,
    ordered_quadric_sweep,
    quadric_sum_sweep,
    renamed_oracle_table,
)


def brute_koszul(degrees):
    # independent subset enumeration
    out = {}
    for i in range(len(degrees) + 1):
        for S in combinations(range(len(degrees)), i):
            j = sum(degrees[s] for s in S)
            out[(i, j)] = out.get((i, j), 0) + 1
    return {k: v for k, v in out.items() if v}


def test_koszul_three_squares():
    t = koszul_betti((2, 2, 2))
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}


def test_koszul_five_quartics():
    t = koszul_betti((4, 4, 4, 4, 4))
    from math import comb

    assert all(t.get(i, 4 * i) == comb(5, i) for i in range(6))


def test_koszul_mixed():
    t = koszul_betti((2, 3))
    assert t.entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
def test_koszul_matches_enumeration(degrees):
    assert koszul_betti(tuple(degrees)).entries == brute_koszul(degrees)


# the four worked tables, frozen entrywise

LEFT_ACI = {(0, 0): 1, (1, 4): 5, (2, 8): 10, (2, 9): 20, (3, 10): 46, (4, 11): 20}
RIGHT_ACI = {(0, 0): 1, (1, 2): 1, (1, 4): 5, (2, 6): 5, (2, 8): 10, (2, 9): 20,
             (3, 10): 56, (3, 11): 20, (4, 11): 20, (4, 12): 46, (5, 13): 20}
LEFT_GOR = {(0, 0): 1, (1, 4): 4, (1, 5): 20, (2, 6): 46, (3, 7): 20, (3, 8): 4,
            (4, 12): 1}
RIGHT_GOR = {(0, 0): 1, (1, 2): 1, (1, 4): 4, (1, 5): 20, (2, 6): 50, (2, 7): 20,
             (3, 7): 20, (3, 8): 50, (4, 9): 20, (4, 10): 4, (4, 12): 1, (5, 14): 1}


def test_aci_odd_quartics_table():
    t = betti_aci_odd(DegreeSequence(4, (4, 4, 4, 4), 4))
    assert t.entries == LEFT_ACI
    assert t.totals() == [1, 5, 30, 46, 20]


def test_gorenstein_odd_quartics_table():
    t = betti_gorenstein_odd(DegreeSequence(4, (4, 4, 4, 4), 4))
    assert t.entries == LEFT_GOR
    assert t.totals() == [1, 24, 46, 24, 1]
    # duality spot check inside the same table
    assert t.get(1, 5) == t.get(3, 7) == 20
    assert t.is_self_dual(4, 8)


def test_sum_formula_tables():
    ds = DegreeSequence(5, (4, 4, 4, 4, 2), 4)
    t = betti_sum_formula(ds, "aci")
    assert t.entries == RIGHT_ACI
    assert t.totals() == [1, 6, 35, 76, 66, 20]
    g = betti_sum_formula(ds, "gorenstein")
    assert g.entries == RIGHT_GOR
    assert g.totals() == [1, 25, 70, 70, 25, 1]
    # the shifted-sum consistency the two tables satisfy
    assert t.get(3, 10) == LEFT_ACI[(3, 10)] + LEFT_ACI[(2, 8)]


def test_sum_formula_quadric_anywhere():
    a = betti_sum_formula(DegreeSequence(5, (2, 4, 4, 4, 4), 4), "aci")
    b = betti_sum_formula(DegreeSequence(5, (4, 4, 2, 4, 4), 4), "aci")
    # the square on ell: the entry point moves it onto x_n
    c = betti_formula(DegreeSequence(5, (4, 4, 4, 4, 4), 2), "aci")
    assert a == b == c == BettiTable(RIGHT_ACI)


def test_betti_formula_dispatches_on_parity():
    # odd T: the odd-parity kernels; even T with a variable quadric: the sum formula
    ds = DegreeSequence(4, (4, 4, 4, 4), 4)
    assert betti_formula(ds, "aci") == betti_aci_odd(ds)
    assert betti_formula(ds, "gorenstein") == betti_gorenstein_odd(ds)
    ds = DegreeSequence(5, (4, 4, 4, 4, 2), 4)
    assert betti_formula(ds, "aci") == betti_sum_formula(ds, "aci")
    assert betti_formula(ds, "gorenstein") == betti_sum_formula(ds, "gorenstein")
    # the kernels stay literal; the entry point moves ell to the smallest degree
    with pytest.raises(MinimalityError):
        betti_aci_odd(DegreeSequence(3, (2, 2, 2), 9))
    assert betti_formula(DegreeSequence(3, (2, 2, 2), 9)) == koszul_betti((2, 2, 2))
    assert betti_formula(DegreeSequence(1, (3,), 2)) == BettiTable({(0, 0): 1, (1, 2): 1})
    # even T with no square, or (for the link) a square on ell alone
    with pytest.raises(ParityError, match="= 14 must be odd"):
        betti_formula(DegreeSequence(4, (4, 4, 4, 4), 3), "aci")
    with pytest.raises(ParityError, match="= 8 must be odd"):
        betti_formula(DegreeSequence(3, (3, 3, 4), 2), "gorenstein")
    with pytest.raises(PreconditionError, match="unknown target"):
        betti_formula(ds, "sum")


def test_parity_and_minimality_errors():
    with pytest.raises(ParityError):
        betti_aci_odd(DegreeSequence(4, (4, 4, 4, 4), 3))
    with pytest.raises(MinimalityError):
        betti_aci_odd(DegreeSequence(2, (2, 2), 4))
    with pytest.raises(ParityError):
        betti_gorenstein_odd(DegreeSequence(4, (4, 4, 4, 4), 5))
    with pytest.raises(ParityError):
        betti_sum_formula(DegreeSequence(3, (2, 2, 2), 3), "aci")
    with pytest.raises(PreconditionError):
        betti_sum_formula(DegreeSequence(3, (3, 3, 3), 2), "aci")


def test_aci_degenerate_single_variable():
    # (x1^4, x1^3) collapses to the principal ideal (x1^3)
    t = betti_aci_odd(DegreeSequence(1, (4,), 3))
    assert t.entries == {(0, 0): 1, (1, 3): 1}


def test_gorenstein_socle_zero_boundary():
    # ell power at the arithmetic boundary links to the maximal ideal
    t = betti_gorenstein_odd(DegreeSequence(3, (2, 3, 4), 6))
    from math import comb

    assert t.entries == {(i, i): comb(3, i) for i in range(4)}


def test_predict_level():
    ds = DegreeSequence(5, (4, 4, 4, 4, 2), 4)
    t = betti_sum_formula(ds, "aci")
    assert predict_level(t, t.max_row)
    ci = koszul_betti((3, 3, 3))
    assert predict_level(ci, 6)
    # two socle rows: the final worked example of the cubes ideal
    cubes = BettiTable({(0, 0): 1, (1, 3): 5, (2, 6): 16, (2, 7): 1, (3, 7): 10,
                        (3, 8): 10, (4, 8): 1, (4, 9): 6})
    assert not predict_level(cubes, 5)


def test_syzygy_coefficients():
    assert syzygy_coefficient(2) == 1
    assert syzygy_coefficient(3) == 4
    assert syzygy_coefficient(4) == 10
    assert syzygy_coefficients((2, 3, 4)) == [1, 4, 10]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.lists(st.integers(2, 4), min_size=n, max_size=n),
                        st.integers(2, 4))))
def test_alternating_sums_match_series(args):
    degrees, e = args
    ds = DegreeSequence(len(degrees), tuple(degrees), e)
    if ds.total_sum % 2 == 0 or not ds.is_minimal:
        return
    t = betti_aci_odd(ds)
    series = list(froberg_series(ds.nvars, ds.all_degrees()).coefficients)
    want = series_numerator(series, ds.nvars)
    got = t.alternating_numerator()
    assert got == {j: v for j, v in enumerate(want) if v}
    g = betti_gorenstein_odd(ds)
    wg = series_numerator(gorenstein_linked_hilbert(ds), ds.nvars)
    assert g.alternating_numerator() == {j: v for j, v in enumerate(wg) if v}
    assert g.is_self_dual(ds.nvars, ds.linked_socle_degree)


FORMULA_SWEEPS = pytest.mark.parametrize("formula,kind,sweep", [
    (betti_aci_odd, "aci", odd_parity_sweep),
    (betti_gorenstein_odd, "gorenstein", odd_parity_sweep),
    (lambda ds: betti_sum_formula(ds, target="aci"), "aci", quadric_sum_sweep),
    (lambda ds: betti_sum_formula(ds, target="gorenstein"), "gorenstein", quadric_sum_sweep),
], ids=["aci", "gorenstein", "sum-aci", "sum-gorenstein"])


@FORMULA_SWEEPS
def test_formula_matches_oracle_on_the_sweep(formula, kind, sweep):
    for ds in sweep([2, 3, 4]):
        assert formula(ds) == oracle_table(ds.nvars, ds.degrees, ds.ell_power, kind), ds


@pytest.mark.slow
@FORMULA_SWEEPS
def test_formula_matches_oracle_at_five_variables(formula, kind, sweep):
    for ds in sweep([5]):
        assert formula(ds) == oracle_table(ds.nvars, ds.degrees, ds.ell_power, kind), ds


@pytest.mark.slow
@FORMULA_SWEEPS
def test_formula_matches_oracle_at_six_variables(formula, kind, sweep):
    # degrees and ell powers in {2, 3}: 26 comparisons, whose largest Koszul
    # matrices take the Schur kernel through many row blocks
    for ds in sweep([6], (2, 3), (2, 3)):
        assert formula(ds) == oracle_table(ds.nvars, ds.degrees, ds.ell_power, kind), ds


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["aci", "gorenstein"])
def test_formula_matches_oracle_at_every_prime_above_the_socle_degree(kind):
    # `power_ideal` refuses p <= sum(d_i - 1); above that bound every prime up
    # to 31 gives the paper's table on both sweeps
    primes = [p for p in range(2, 32) if all(p % q for q in range(2, p))]
    for ds in odd_parity_sweep([2, 3, 4]) + quadric_sum_sweep([2, 3, 4]):
        for p in primes:
            if p <= sum(d - 1 for d in ds.degrees):
                continue
            field = PrimeField(p)
            if kind == "aci":
                table = minimal_betti_oracle(power_ideal(ds.degrees, ds.ell_power, field))
            else:
                table = betti_from_quotient(linked_ideal(ds, field))
            assert table == betti_formula(ds, kind), (ds, p)


def test_aci_formula_matches_oracle_in_every_orientation():
    # the square on any of the n+1 generators, ell included, at both parities
    sweep = ordered_quadric_sweep([2, 3, 4])
    assert len(sweep) == 295 and {ds.is_odd for ds in sweep} == {True, False}
    for ds in sweep:
        assert betti_formula(ds, "aci") == renamed_oracle_table(ds, "aci"), ds


def test_gorenstein_formula_matches_oracle_with_a_variable_square():
    sweep = [ds for ds in ordered_quadric_sweep([2, 3, 4]) if 2 in ds.degrees and ds.is_minimal]
    assert {ds.is_odd for ds in sweep} == {True, False}
    for ds in sweep:
        assert betti_formula(ds, "gorenstein") == renamed_oracle_table(ds, "gorenstein"), ds


def test_oracle_is_invariant_under_renaming_the_variables():
    # what lets the two sweeps above run the oracle once per multiset of variable degrees
    for ds in ordered_quadric_sweep([2, 3]):
        typed = oracle_table(ds.nvars, ds.degrees, ds.ell_power, "aci")
        assert typed == renamed_oracle_table(ds, "aci"), ds


def test_every_quadric_ideal_is_level():
    # the paper's corollary: an ideal of n+1 general powers with a square is level
    for ds in ordered_quadric_sweep([2, 3, 4]):
        table = betti_formula(ds, "aci")
        level = oracle_is_level(ds.nvars, tuple(sorted(ds.degrees)), ds.ell_power)
        assert predict_level(table, table.max_row) == level, ds
        assert level, ds


@pytest.mark.parametrize("sweep", [odd_parity_sweep, quadric_sum_sweep])
def test_gorenstein_tables_are_self_dual(sweep):
    for ds in sweep([2, 3, 4]):
        n, socle = ds.nvars, ds.linked_socle_degree
        assert betti_formula(ds, "gorenstein").is_self_dual(n, socle), ds
        assert oracle_table(n, ds.degrees, ds.ell_power, "gorenstein").is_self_dual(n, socle), ds
