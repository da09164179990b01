import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    Polynomial,
    PrimeField,
    contract,
    format_polynomial,
    macaulay_matrix,
    parse_polynomial,
    power_of_linear,
    standard_linear_form,
)
from bettiforge.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonHomogeneousError,
    PreconditionError,
)
from bettiforge.exactalg import rank_of_rows
from bettiforge.polyring import (
    exponent_array,
    macaulay_columns,
    monomial_count,
    monomials_of_degree,
    power_ideal,
    product_positions,
)

from helpers import coeffs, monomial_index, monomial_mul

FIELDS = (QQ, GF_DEFAULT, GF_PARANOIA)


def x(i, n=2, field=QQ):
    return Polynomial.variable(i, n, field)


def test_monomial_order_descending():
    monos = monomials_of_degree(3, 2)
    assert monos[0] == (2, 0, 0) and monos[-1] == (0, 0, 2)
    assert monos == tuple(sorted(monos, reverse=True))


def _grlex_reference(nvars, degree):
    """The degree-`degree` monomials in `nvars` variables, largest first: for
    each leading exponent from `degree` down, the listing of the rest."""
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    return [(e,) + tail for e in range(degree, -1, -1)
            for tail in _grlex_reference(nvars - 1, degree - e)]


@pytest.mark.parametrize("nvars", range(8))
def test_exponent_array_is_the_grlex_listing(nvars):
    for degree in range(9):
        want = _grlex_reference(nvars, degree)
        got = exponent_array(nvars, degree)
        assert got.dtype == np.int64 and got.shape == (len(want), nvars)
        assert not got.flags.writeable
        assert got.tolist() == [list(m) for m in want]
        assert monomials_of_degree(nvars, degree) == tuple(want)
        assert monomial_count(nvars, degree) == len(want)


@pytest.mark.parametrize("nvars", range(7))
def test_product_positions_match_the_monomial_index(nvars):
    for dm in range(8):
        monos = monomials_of_degree(nvars, dm)
        for dw in range(4):
            terms = monomials_of_degree(nvars, dw)
            idx = monomial_index(nvars, dm + dw)
            want = [[idx[monomial_mul(m, w)] for w in terms] for m in monos]
            got = product_positions(exponent_array(nvars, dm), exponent_array(nvars, dw))
            assert got.shape == (len(monos), len(terms)) and got.tolist() == want
            none = product_positions(exponent_array(nvars, dm)[:0], exponent_array(nvars, dw))
            assert none.shape == (0, len(terms))
        one = exponent_array(nvars, 0)
        assert product_positions(exponent_array(nvars, dm), one)[:, 0].tolist() == \
            list(range(len(monos)))


def test_multiply_difference_of_squares():
    p = (x(0) + x(1)) * (x(0) - x(1))
    assert p == Polynomial.from_terms(2, QQ, {(2, 0): 1, (0, 2): -1})


def test_multiply_by_one():
    p = x(0) * x(1) + x(1) * x(1)
    assert p * Polynomial.constant(1, 2, QQ) == p


def test_square_of_three_term_sum():
    p = power_of_linear([1, 1, 1], 2)
    for m in monomials_of_degree(3, 2):
        assert coeffs(p)[m] == (1 if max(m) == 2 else 2)


def test_multiply_ring_mismatch():
    with pytest.raises(DimensionMismatchError):
        x(0, 2) * x(0, 3)


def test_contract_derivative():
    out = contract(x(0, 1), Polynomial.variable_power(0, 2, 1, QQ))
    assert out == Polynomial.from_terms(1, QQ, {(1,): 2})


def test_contract_mixed_square():
    # (d1 + d2)^2 applied to X1 X2 leaves the constant 2
    f = power_of_linear([1, 1], 2)
    out = contract(f, Polynomial.monomial((1, 1), QQ))
    assert out == Polynomial.constant(2, 2, QQ)


def test_contract_annihilates():
    f = Polynomial.variable_power(0, 2, 3, QQ)
    assert contract(f, Polynomial.monomial((0, 1, 1), QQ)).is_zero()


def test_power_of_linear_examples():
    assert power_of_linear([1, 1], 2) == \
        Polynomial.from_terms(2, QQ, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert power_of_linear([3, -2], 0) == Polynomial.constant(1, 2, QQ)
    assert coeffs(power_of_linear([1, 1, 1], 3))[(1, 1, 1)] == 6


def test_macaulay_single_generator():
    m = macaulay_matrix([Polynomial.variable_power(0, 2, 2, QQ)], 3)
    assert m.shape == (4, 2)
    assert rank_of_rows(m, m.shape[1], QQ) == 2


def test_macaulay_empty():
    m = macaulay_matrix([Polynomial.zero(2, QQ)], 5)
    assert m.shape == (6, 0)
    with pytest.raises(PreconditionError, match="^an empty generator list has no ring"):
        macaulay_matrix([], 5)


def test_macaulay_two_squares():
    gens = [Polynomial.variable_power(i, 2, 2, QQ) for i in range(2)]
    m = macaulay_matrix(gens, 2)
    assert rank_of_rows(m, m.shape[1], QQ) == 2  # only x1 x2 survives in the quotient


def test_macaulay_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneousError):
        x(0) + Polynomial.constant(1, 2, QQ)
    with pytest.raises(DimensionMismatchError):
        macaulay_matrix([x(0, 2), x(0, 3)], 2)
    with pytest.raises(FieldMismatchError):
        macaulay_matrix([x(0), x(1, 2, GF_DEFAULT)], 2)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_macaulay_columns_are_the_labelled_products(field):
    gens = [parse_polynomial(g, nvars=3, field=field)
            for g in ("x1^2", "x1*x2 - 3/2*x3^2", "0", "x1^3 + x2^3 - x1*x2*x3")]
    for j in range(6):
        m = macaulay_matrix(gens, j)
        cols = macaulay_columns(gens, j)
        assert m.shape == (len(monomials_of_degree(3, j)), len(cols))
        for c, (g_idx, mono) in enumerate(cols):
            want = (gens[g_idx] * Polynomial.monomial(mono, field)).to_vector(j)
            assert m[:, c].tolist() == want.tolist()


def _forms(n, field, values, degrees):
    """Forms in n variables: one degree drawn from `degrees`, then up to five
    terms of that degree with coefficients drawn from `values`."""
    return degrees.flatmap(lambda d: st.builds(
        lambda terms: Polynomial.from_terms(n, field, dict(terms)),
        st.lists(st.tuples(st.sampled_from(monomials_of_degree(n, d)), values), max_size=5)))


def small_polys(degrees=st.integers(0, 4)):
    return _forms(2, QQ, st.integers(-4, 4), degrees)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_multiply_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_contract_is_bilinear_module_action(data):
    # f + g needs f and g of one degree
    degree = st.just(data.draw(st.integers(0, 4)))
    f, g, big = data.draw(small_polys(degree)), data.draw(small_polys(degree)), \
        data.draw(small_polys())
    lhs = contract(f + g, big)
    rhs = contract(f, big) + contract(g, big)
    assert lhs == rhs
    assert contract(f * g, big) == contract(f, contract(g, big))


@pytest.mark.parametrize("field", (PrimeField(2), PrimeField(3), GF_DEFAULT, GF_PARANOIA),
                         ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_mod_p_is_the_rational_result_reduced(field, data):
    # the constructor is the one place coefficients are reduced; small primes
    # make cancellation frequent, and negative coefficients are residues near
    # p, whose products overflow int64 over GF(1073741789) unless reduced
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(0, 3))

    def terms(degree):
        return data.draw(st.dictionaries(st.sampled_from(monomials_of_degree(n, degree)),
                                         st.integers(-9, 9), max_size=6))

    a, b, big = terms(d), terms(d), terms(data.draw(st.integers(0, 5)))
    c = data.draw(st.integers(-9, 9))
    point = data.draw(st.tuples(*[st.integers(-9, 9)] * n))
    fq, gq, bq = (Polynomial.from_terms(n, QQ, t) for t in (a, b, big))
    fp, gp, bp = (Polynomial.from_terms(n, field, t) for t in (a, b, big))
    for want, got in ((fq, fp), (fq + gq, fp + gp), (fq - gq, fp - gp), (fq * bq, fp * bp),
                      (fq.scale(c), fp.scale(c)), (contract(fq, bq), contract(fp, bp))):
        reduced = {m: v % field.p for m, v in coeffs(want).items() if v % field.p}
        assert coeffs(got) == reduced
        assert all(type(v) is int and 0 < v < field.p for v in coeffs(got).values())
    assert fp.evaluate(point) == fq.evaluate(point) % field.p


def test_contraction_over_the_largest_prime_reduces_each_product():
    # -1 is the residue p - 1, and (p - 1)^2 * 4! overflows int64 unless the
    # product of the coefficients is reduced before the falling factorial meets it
    for field in (QQ, GF_PARANOIA):
        f = Polynomial.monomial((4, 0), field, -1)
        assert contract(f, f) == Polynomial.constant(24, 2, field)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_macaulay_rank_monotone_under_generators(d1, d2):
    gens = [Polynomial.variable_power(0, d1 + 1, 2, QQ)]
    before = rank_of_rows(macaulay_matrix(gens, 4), len(macaulay_columns(gens, 4)), QQ)
    gens.append(power_of_linear([1, 2], d2 + 1))
    after = rank_of_rows(macaulay_matrix(gens, 4), len(macaulay_columns(gens, 4)), QQ)
    assert after >= before


def test_parse_format_round_trip():
    p = parse_polynomial("3*x1^3*x3 - x2^4 + 1/2*x1*x2^3", nvars=3)
    assert coeffs(p) == {(3, 0, 1): 3, (1, 3, 0): Fraction(1, 2), (0, 4, 0): -1}
    assert parse_polynomial(format_polynomial(p), nvars=3) == p


def _polys(field):
    values = (st.fractions(-50, 50, max_denominator=12) if field == QQ
              else st.integers(0, field.characteristic - 1))
    return st.integers(1, 3).flatmap(lambda n: _forms(n, field, values, st.integers(0, 3)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_then_parse_is_the_identity(field, data):
    p = data.draw(_polys(field))
    assert parse_polynomial(format_polynomial(p), p.nvars, field) == p


def test_parse_rejects_inhomogeneous_when_required():
    with pytest.raises(NonHomogeneousError, match=r"^non-homogeneous input: 'x1\^2 \+ x2'$"):
        parse_polynomial("x1^2 + x2")
    with pytest.raises(PreconditionError):
        parse_polynomial("x1 + + ^")


@pytest.mark.parametrize("text", ["x1+", "x1-", "x1*", "*x1", "x1**x2", "x1*-x2", "+", "-"])
def test_parse_refuses_a_dangling_operator(text):
    with pytest.raises(PreconditionError, match=f"^malformed polynomial: {re.escape(repr(text))}$"):
        parse_polynomial(text, nvars=2)


@pytest.mark.parametrize("text, want", [("-x1 + x2", "-x1 + x2"), ("+x1", "x1"),
                                        ("x1+-x2", "x1 - x2"), ("x1 x2", "x1*x2"),
                                        ("- -2*x1*x2", "2*x1*x2")])
def test_parse_keeps_signs_and_juxtaposition(text, want):
    assert format_polynomial(parse_polynomial(text, nvars=2)) == want


def test_parse_prime_field():
    p = parse_polynomial("-x1 + 1/2*x2", nvars=2, field=GF_DEFAULT)
    assert coeffs(p) == {(1, 0): GF_DEFAULT.p - 1, (0, 1): GF_DEFAULT.coerce(Fraction(1, 2))}


def test_format_balanced_prime_coefficients():
    p = Polynomial.from_terms(2, GF_DEFAULT, {(1, 0): GF_DEFAULT.p - 1})
    assert format_polynomial(p) == "-x1"


def test_zero_polynomial_is_every_degree():
    z = Polynomial.zero(2, QQ)
    assert z.degree is None
    assert z.to_vector(0).tolist() == [0] and z.to_vector(7).tolist() == [0] * 8


def test_standard_linear_form():
    ell = standard_linear_form(3, QQ)
    assert ell == x(0, 3) + x(1, 3) + x(2, 3)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("degrees", [(1,), (2,), (3, 3), (3, 3, 2), (2, 2, 2, 2), (4, 4, 4, 4)])
def test_power_ideal_refuses_a_characteristic_up_to_the_socle_degree(degrees):
    # ell = x1 + .. + xn is asked for only with a characteristic above
    # sum(d_i - 1), the socle degree of R/(x^d); no ideal is resolved here
    socle = sum(d - 1 for d in degrees)
    for p in SMALL_PRIMES:
        field = PrimeField(p)
        assert len(power_ideal(degrees, None, field)) == len(degrees)
        if p <= socle:
            with pytest.raises(PreconditionError, match=f"^GF\\({p}\\) .* socle degree {socle} "):
                power_ideal(degrees, 2, field)
        else:
            assert power_ideal(degrees, 2, field)[-1] == power_of_linear([1] * len(degrees), 2, field)
    assert len(power_ideal(degrees, 5, QQ)) == len(degrees) + 1
