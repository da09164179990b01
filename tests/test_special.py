from itertools import permutations

import pytest

from bettiforge import (
    GF_DEFAULT,
    QQ,
    DegreeSequence,
    Polynomial,
    PrimeField,
    annihilator,
    build_lifted_family,
    check_colon_equals_plus,
    check_syzygy_property,
    check_xn_regular,
    colon_ideal,
    elementary_symmetric,
    enumerate_point_set,
    esym_annihilator_generators,
    gorenstein_linked_hilbert,
    ideal_slices,
    lattice_path_count,
    minimal_generators,
    power_ideal,
    random_generic_level_spotcheck,
    sqfree_leading_set,
    syzygies_in_degree,
)
from bettiforge.errors import ParityError, PreconditionError
from bettiforge.exactalg import rank_of_rows
from bettiforge.polyring import monomial_count
from bettiforge.special import _difference_product, _normalize_sign

from helpers import coeffs, quadric_sum_sweep, sorted_multisets


def vp(i, d, n, field=QQ):
    return Polynomial.variable_power(i, d, n, field)


def test_lifted_family_all_quadrics():
    fam = build_lifted_family(DegreeSequence(3, (2, 2, 2), 2), QQ)
    assert fam.fs[0] == vp(0, 2, 3) - vp(2, 2, 3)
    assert fam.fs[1] == vp(1, 2, 3) - vp(2, 2, 3)
    from bettiforge import power_of_linear

    assert fam.f_ell == power_of_linear([1, 1, 1], 2) - vp(2, 2, 3)


def test_lifted_family_cubic_factor():
    fam = build_lifted_family(DegreeSequence(2, (3, 2), 3), QQ)
    # x (x^2 - 4 y^2)
    assert fam.fs[0] == vp(0, 3, 2) - (vp(0, 1, 2) * vp(1, 2, 2)).scale(4)


def test_lifted_family_degree_one():
    fam = build_lifted_family(DegreeSequence(2, (1, 2), 2), QQ)
    assert fam.fs[0] == vp(0, 1, 2)


def test_point_set_three_quadrics():
    pts = enumerate_point_set(DegreeSequence(3, (2, 2, 2), 2))
    assert pts.count == 3
    assert set(pts.points) == {(1, -1, 1), (-1, 1, 1), (-1, -1, 1)}


def test_point_set_two_three():
    assert enumerate_point_set(DegreeSequence(2, (2, 2), 3)).count == 2


def test_point_set_degree_one_forces_zero():
    # the reduced sum t must be odd; both inputs have t = 3
    pts = enumerate_point_set(DegreeSequence(3, (1, 2, 2), 3))
    assert set(pts.points) == {(0, 1, 1), (0, -1, 1)}
    pts = enumerate_point_set(DegreeSequence(4, (1, 2, 2, 2), 2))
    assert pts.count == 3
    assert all(p[0] == 0 for p in pts.points)
    # at even t (here 2) the set is empty, so the function refuses the input
    with pytest.raises(ParityError):
        enumerate_point_set(DegreeSequence(3, (1, 2, 2), 2))


def test_point_set_parity_rejected():
    with pytest.raises(ParityError):
        enumerate_point_set(DegreeSequence(3, (2, 3, 2), 2))


def test_xn_regular_small_cases():
    assert check_xn_regular(DegreeSequence(3, (2, 2, 2), 2))
    assert check_xn_regular(DegreeSequence(4, (2, 2, 3, 2), 2))
    with pytest.raises(ParityError):
        check_xn_regular(DegreeSequence(3, (2, 3, 2), 2))


@pytest.mark.parametrize("degrees,e", [((3, 3, 2), 4), ((2, 3, 3), 2), ((4, 4, 2), 2)])
def test_xn_regular_refuses_a_characteristic_up_to_the_reduced_socle_degree(degrees, e):
    # the lifted forms build ell^e of the reduction, without x_n^2, over the
    # field: p must exceed its socle degree, sum(d_i - 1) over the rest
    ds = DegreeSequence(len(degrees), degrees, e)
    socle = sum(d - 1 for d in ds.split_quadric()[2].degrees)
    for p in (2, 3, 5, 7):
        if p <= socle:
            with pytest.raises(PreconditionError, match=f"^GF\\({p}\\) .* socle degree {socle} "):
                check_xn_regular(ds, PrimeField(p))
    above = next(p for p in (2, 3, 5, 7, 11) if p > socle)
    assert check_xn_regular(ds, PrimeField(above))


@pytest.mark.parametrize("ds", quadric_sum_sweep(range(1, 5)),
                         ids=lambda ds: f"{ds.degrees}-{ds.ell_power}")
def test_lifted_certificates_hold_on_the_quadric_sweep(ds):
    assert check_xn_regular(ds) and check_colon_equals_plus(ds)


def test_colon_equals_plus_small_cases():
    for ds in (DegreeSequence(3, (2, 2, 2), 2),
               DegreeSequence(4, (2, 2, 3, 2), 2),
               DegreeSequence(5, (2, 2, 2, 2, 2), 2)):
        assert check_colon_equals_plus(ds)


def test_syzygy_property_all_quadrics():
    ds = DegreeSequence(3, (2, 2, 2), 2)
    normalized = ds.split_quadric()[0]
    gens = power_ideal(normalized.degrees, normalized.ell_power, GF_DEFAULT)
    checked = 0
    for j in range(2, 7):
        for rel in syzygies_in_degree(gens, j):
            assert check_syzygy_property(ds, rel)
            # for the all-quadric case the weighted combination is the plain sum
            from bettiforge import membership

            total = rel.components[0]
            for a in rel.components[1:]:
                total = total + a
            assert membership(total, gens)
            checked += 1
    assert checked > 0


def test_syzygy_property_koszul_relation():
    ds = DegreeSequence(3, (3, 2, 2), 2)
    normalized, _, _ = ds.split_quadric()
    gens = power_ideal(normalized.degrees, normalized.ell_power, GF_DEFAULT)
    from bettiforge import RelationVector

    # the Koszul relation between the first two generators
    rel = RelationVector((gens[1], -gens[0],
                          Polynomial.zero(3, GF_DEFAULT), Polynomial.zero(3, GF_DEFAULT)))
    assert rel.check(gens)
    assert check_syzygy_property(ds, rel)


def test_syzygy_property_fails_for_some_syzygy_at_even_t():
    # (3,2,2) with e=2 has even reduced sum t=4: the predicate is still
    # evaluated, but some degree-4 syzygy fails it.  The syzygies passing it
    # form a proper subspace, so this holds for any basis of the degree-4
    # syzygies, and the parity guard belongs to the sweep over a basis.
    ds = DegreeSequence(3, (3, 2, 2), 2)
    normalized = ds.split_quadric()[0]
    gens = power_ideal(normalized.degrees, normalized.ell_power, GF_DEFAULT)
    assert not all(check_syzygy_property(ds, rel) for rel in syzygies_in_degree(gens, 4))


def test_syzygy_property_rejects_non_relation():
    ds = DegreeSequence(3, (2, 2, 2), 2)
    from bettiforge import RelationVector

    bogus = RelationVector((Polynomial.constant(1, 3, GF_DEFAULT),) * 4)
    with pytest.raises(PreconditionError):
        check_syzygy_property(ds, bogus)


def orbit_span_dim(polys, degree):
    if not polys:
        return 0
    return rank_of_rows([p.to_vector() for p in polys], monomial_count(polys[0].nvars, degree),
                        polys[0].field)


def test_esym_generators_three_one():
    gens = esym_annihilator_generators(3, 1)
    orbit = gens[3:]
    assert all(g.degree == 2 for g in orbit)
    assert orbit_span_dim(gens, 2) == 5


def test_esym_generators_five_two():
    from bettiforge import power_of_linear

    gens = esym_annihilator_generators(5, 2)
    orbit = gens[5:]
    assert orbit_span_dim(orbit, 2) == 5
    col = colon_ideal([vp(i, 2, 5) for i in range(5)], power_of_linear([1] * 5, 2))
    assert col.dim(2) == 10
    assert gorenstein_linked_hilbert(DegreeSequence(5, (2,) * 5, 2))[2] == 5


def test_esym_generators_four_two():
    gens = esym_annihilator_generators(4, 2)
    assert orbit_span_dim(gens, 2) == 9


def test_esym_generators_boundary_degree_one():
    gens = esym_annihilator_generators(3, 2)
    orbit = gens[3:]
    assert all(g.degree == 1 for g in orbit)
    assert orbit_span_dim(orbit, 1) == 2


def test_esym_range_errors():
    with pytest.raises(PreconditionError):
        esym_annihilator_generators(3, 3)
    with pytest.raises(PreconditionError):
        esym_annihilator_generators(3, 0)


def _orbit_by_permutations(nvars, d, field):
    """The difference-product orbit as the S_n walk over all n! permutations."""
    m = nvars - d
    pairs = [(2 * k, 2 * k + 1) for k in range((m + 1) // 2)]
    base = _difference_product(pairs, None if m % 2 else m, nvars, field)
    seen = {}
    for sigma in permutations(range(nvars)):
        image = _normalize_sign(Polynomial.from_terms(nvars, field, {
            tuple(mono[sigma.index(v)] for v in range(nvars)): c
            for mono, c in coeffs(base).items()}))
        seen.setdefault(tuple(sorted(coeffs(image).items())), image)
    return [seen[k] for k in sorted(seen)]


ESYM_PAIRS = [(n, d) for n in range(2, 7) for d in range(1, n)]


@pytest.mark.parametrize("n,d", ESYM_PAIRS)
def test_esym_orbit_matches_the_permutation_walk(n, d):
    assert esym_annihilator_generators(n, d)[n:] == _orbit_by_permutations(n, d, QQ)


@pytest.mark.parametrize("n,d", ESYM_PAIRS + [(7, d) for d in range(1, 7)])
def test_esym_generators_generate_the_annihilator(n, d):
    # Ann(e_{n-d}) in every degree, with n + lattice_path_count(n, d) minimal
    # generators; at d = n - 1 the orbit is linear and n - 1 squares are redundant
    gens = esym_annihilator_generators(n, d, GF_DEFAULT)
    ann = annihilator(elementary_symmetric(n, n - d, GF_DEFAULT))
    generated = ideal_slices(gens, max_degree=ann.bound)
    assert all(ann.contains(g) for g in gens)
    assert [generated.dim(j) for j in range(ann.bound + 1)] == \
        [ann.dim(j) for j in range(ann.bound + 1)]
    squares = 1 if d == n - 1 else n
    assert len(minimal_generators(ann)) == squares + lattice_path_count(n, d)


def test_leading_set_examples():
    assert lattice_path_count(4, 2) == 5
    assert len(sqfree_leading_set(4, 2)) == 5
    assert sqfree_leading_set(3, 1) == [(1, 1, 0), (1, 0, 1)]
    assert lattice_path_count(3, 1) == 2
    assert lattice_path_count(5, 2) == 5


def test_leading_set_count_small_range():
    for n in range(2, 9):
        for d in range(1, n):
            assert len(sqfree_leading_set(n, d)) == lattice_path_count(n, d)


def test_spotcheck_levelness():
    assert random_generic_level_spotcheck(3, (2, 2, 2, 2), seed=0)
    assert random_generic_level_spotcheck(3, (3, 3, 2, 3), seed=1)
    assert random_generic_level_spotcheck(2, (2, 2, 2), seed=2)


@pytest.mark.parametrize("n", range(2, 5))
def test_spotcheck_is_level_on_every_degree_set_with_a_quadric(n):
    for degrees in sorted_multisets((2, 3, 4), n + 1):
        if 2 in degrees:
            for seed in (0, 1):
                assert random_generic_level_spotcheck(n, degrees, seed), (degrees, seed)


def test_spotcheck_preconditions():
    with pytest.raises(PreconditionError):
        random_generic_level_spotcheck(3, (3, 3, 3, 3), seed=0)
    with pytest.raises(PreconditionError):
        random_generic_level_spotcheck(3, (2, 2, 2), seed=0)
    with pytest.raises(PreconditionError, match="at least 1"):
        random_generic_level_spotcheck(1, (0, 2), seed=1)
