import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettiforge import (
    DegreeSequence,
    ci_hilbert,
    ci_peak_interval,
    froberg_series,
    gorenstein_linked_hilbert,
    multiplicity_of_truncation,
    series_numerator,
)
from bettiforge.errors import MinimalityError, ParityError, PreconditionError

from helpers import is_symmetric


def brute_ci_series(degrees):
    # independent enumeration: count exponent tuples below the bounds per degree
    from itertools import product

    top = sum(d - 1 for d in degrees)
    out = [0] * (top + 1)
    for expo in product(*[range(d) for d in degrees]):
        out[sum(expo)] += 1
    return out


def test_ci_hilbert_two_squares():
    assert ci_hilbert((2, 2)) == [1, 2, 1]


def test_ci_hilbert_four_quartics():
    expected = brute_ci_series((4, 4, 4, 4))
    assert expected == [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1]
    assert ci_hilbert((4, 4, 4, 4)) == expected


def test_ci_hilbert_single_variable():
    assert ci_hilbert((5,)) == [1, 1, 1, 1, 1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_ci_hilbert_matches_enumeration_and_symmetry(degrees):
    series = ci_hilbert(tuple(degrees))
    assert series == brute_ci_series(degrees)
    assert is_symmetric(series)


def test_peak_three_squares():
    assert ci_peak_interval((2, 2, 2)) == (1, 2)
    assert ci_hilbert((2, 2, 2)) == [1, 3, 3, 1]


def test_peak_four_quartics():
    assert ci_peak_interval((4, 4, 4, 4)) == (6, 6)


def test_peak_flat_top():
    assert ci_peak_interval((2, 5)) == (1, 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_peak_matches_series(degrees):
    series = ci_hilbert(tuple(degrees))
    lo, hi = ci_peak_interval(tuple(degrees))
    peak = max(series)
    assert {j for j, v in enumerate(series) if v == peak} == set(range(lo, hi + 1))


def test_froberg_three_quadrics_two_vars():
    fro = froberg_series(2, (2, 2, 2))
    assert list(fro.coefficients) == [1, 2]
    assert fro.first_nonpositive == 0


def test_froberg_five_quartics_four_vars():
    fro = froberg_series(4, (4, 4, 4, 4, 4))
    assert list(fro.coefficients) == [1, 4, 10, 20, 30, 36, 34, 20]
    assert fro.socle_degree == 7
    assert fro.first_nonpositive == 0


@pytest.mark.parametrize("series", [ci_hilbert, lambda ds: froberg_series(2, ds)],
                         ids=["ci", "froberg"])
@pytest.mark.parametrize("degrees", [(0, 2), (-1, 2), (2, 3, 0)])
def test_series_refuse_degrees_below_one(series, degrees):
    with pytest.raises(PreconditionError, match="degrees must be >= 1"):
        series(degrees)


@pytest.mark.parametrize("nvars", [0, -1])
def test_froberg_needs_a_variable(nvars):
    with pytest.raises(PreconditionError, match="need at least one variable"):
        froberg_series(nvars, (2, 2))


def test_froberg_single_linear_form():
    # one linear form: the series is that of one variable fewer, never truncated
    fro = froberg_series(3, (1,), max_degree=5)
    assert list(fro.coefficients) == [1, 2, 3, 4, 5, 6]
    assert fro.first_nonpositive is None


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))))
def test_froberg_odd_parity_truncates_at_zero(args):
    n, degrees = args
    if sum(d - 1 for d in degrees) % 2 == 0:
        return
    assert froberg_series(n, tuple(degrees)).first_nonpositive == 0


def test_linked_hilbert_quartics():
    ds = DegreeSequence(4, (4, 4, 4, 4), 4)
    assert gorenstein_linked_hilbert(ds) == [1, 4, 10, 20, 31, 20, 10, 4, 1]


def test_linked_hilbert_pencil():
    assert gorenstein_linked_hilbert(DegreeSequence(2, (2, 2), 1)) == [1, 1]


def test_linked_hilbert_boundary():
    ds = DegreeSequence(3, (2, 3, 4), 6)
    assert ds.variable_sum == 6
    assert gorenstein_linked_hilbert(ds) == [1]


def test_linked_hilbert_requires_minimality():
    with pytest.raises(MinimalityError):
        gorenstein_linked_hilbert(DegreeSequence(2, (2, 2), 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.lists(st.integers(2, 4), min_size=n, max_size=n), st.integers(1, 9))))
def test_linked_hilbert_symmetric(args):
    degrees, e = args
    ds = DegreeSequence(len(degrees), tuple(degrees), e)
    if not ds.is_minimal:
        return
    assert is_symmetric(gorenstein_linked_hilbert(ds))


def test_multiplicity_three_squares():
    assert multiplicity_of_truncation((2, 2, 2)) == 3


def test_multiplicity_two_three():
    assert ci_hilbert((2, 3)) == [1, 2, 2, 1]
    assert multiplicity_of_truncation((2, 3)) == 2


def test_multiplicity_degenerate_ones():
    assert multiplicity_of_truncation((1, 2)) == 1


def test_multiplicity_rejects_even():
    with pytest.raises(ParityError):
        multiplicity_of_truncation((2, 2))


def test_aci_orientation_puts_ell_on_the_smallest_degree():
    # odd T: ell takes the smallest of the n+1 degrees
    assert DegreeSequence(3, (2, 2, 2), 9).aci_orientation() == DegreeSequence(3, (2, 2, 9), 2)
    assert DegreeSequence(1, (3,), 4).aci_orientation() == DegreeSequence(1, (4,), 3)
    # even T: one quadric stays back as x_n^2, ell takes the smallest other degree
    assert DegreeSequence(3, (3, 3, 4), 2).aci_orientation() == DegreeSequence(3, (3, 4, 2), 3)
    assert DegreeSequence(3, (4, 2, 2), 4).aci_orientation() == DegreeSequence(3, (4, 4, 2), 2)
    # even T and no quadric: ell takes the smallest degree
    assert DegreeSequence(2, (3, 4), 4).aci_orientation() == DegreeSequence(2, (4, 4), 3)


def test_series_numerator():
    # (1 + 2T)(1 - T)^2 = 1 - 3T^2 + 2T^3
    assert series_numerator([1, 2], 2) == [1, 0, -3, 2]


def test_degree_sequence_validation():
    with pytest.raises(PreconditionError):
        DegreeSequence(2, (2, 0), 1)
    with pytest.raises(PreconditionError):
        DegreeSequence(2, (2, 2, 2), 1)
    ds = DegreeSequence(3, (3, 2, 4), 2)
    normalized, where, reduced = ds.split_quadric()
    assert normalized == DegreeSequence(3, (3, 4, 2), 2) and where == 1
    assert reduced == DegreeSequence(2, (3, 4), 2)
    # dropping x_n^2 lowers T by one and flips the parity
    assert (ds.total_sum, reduced.total_sum) == (7, 6)
    ds.require_odd()
    with pytest.raises(ParityError, match="= 6 must be odd"):
        reduced.require_odd()
    # a square on ell alone is not a variable quadric
    with pytest.raises(PreconditionError, match="no quadric among the variable degrees"):
        DegreeSequence(2, (3, 3), 2).split_quadric()
    with pytest.raises(PreconditionError):
        DegreeSequence(2, (3, 3)).require_ell()
