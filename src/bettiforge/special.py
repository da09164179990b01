"""Lifting constructions, the product-of-roots point sets, regularity and
syzygy certificates, explicit generators for annihilators of elementary
symmetric polynomials, lattice-path counting, and the seeded levelness
spot-check for generic quadric-containing ideals."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod

from .errors import ConsistencyError, PreconditionError, RetryExhausted
from .exactalg import GF_DEFAULT, GF_PARANOIA, QQ
from .formulas import syzygy_coefficient
from .hilbert import froberg_series, multiplicity_of_truncation
from .polyring import (
    Polynomial,
    dot,
    monomial_count,
    power_ideal,
    power_of_linear,
    require_general_ell,
    standard_linear_form,
)
from .resolver import (
    colon_ideal,
    ideal_slices,
    linked_ideal,
    membership,
    rank_of_rows,
    socle_dims,
)


def _root_product(base, roots, xn):
    """prod over r in roots of (base - r * x_n)."""
    out = Polynomial.constant(1, base.nvars, base.field)
    xn_poly = Polynomial.variable(xn, base.nvars, base.field)
    for r in roots:
        out = out * (base - xn_poly.scale(r))
    return out


def _symmetric_roots(d):
    return [(d - 1) - 2 * j for j in range(d)]


def _family_polys(reduced, field):
    """The lifted forms in n = reduced.nvars + 1 variables: per variable a product
    of shifted linear factors, plus the analogous product built on x_1 + ... + x_n."""
    nvars = reduced.nvars + 1
    xn = nvars - 1
    fs = []
    for i, d in enumerate(reduced.degrees):
        base = Polynomial.variable(i, nvars, field)
        fs.append(_root_product(base, _symmetric_roots(d), xn))
    ell = standard_linear_form(nvars, field)
    f_ell = _root_product(ell, _symmetric_roots(reduced.ell_power), xn)
    return fs, f_ell


@dataclass
class LiftedFamily:
    nvars: int
    reduced_degrees: tuple
    ell_power: int
    field: object
    fs: list
    f_ell: Polynomial


def _divisible_by_xn4(poly):
    return bool((poly.exponents()[:, -1] >= 4).all())


def build_lifted_family(ds, field=GF_DEFAULT):
    """Construct the lifted forms for a sequence with its quadric in the last slot.

    Verifies the expansion identity f_i = x_i^d - c x_i^(d-2) x_n^2 + (x_n^4
    multiples) and that the lifted ideal plus (x_n^2) cuts out the original
    ideal degree by degree through its socle.
    """
    normalized, _, reduced = ds.split_quadric()
    n, e = ds.nvars, reduced.require_ell()
    fs, f_ell = _family_polys(reduced, field)
    xn2 = Polynomial.variable_power(n - 1, 2, n, field)

    for i, d in enumerate(reduced.degrees):
        expected = Polynomial.variable_power(i, d, n, field)
        c = syzygy_coefficient(d)
        if c and d >= 2:
            expected = expected - Polynomial.variable_power(i, d - 2, n, field).scale(c) * xn2
        if not _divisible_by_xn4(fs[i] - expected):
            raise ConsistencyError(f"lifted form {i} fails its expansion identity")
    expected = power_of_linear([1] * n, e, field)
    c = syzygy_coefficient(e)
    if c and e >= 2:
        expected = expected - power_of_linear([1] * n, e - 2, field).scale(c) * xn2
    if not _divisible_by_xn4(f_ell - expected):
        raise ConsistencyError("lifted linear-form product fails its expansion identity")

    original = power_ideal(normalized.degrees, e, field)
    quot_i = ideal_slices(original)
    lifted_plus = ideal_slices(fs + [f_ell, xn2], max_degree=quot_i.bound)
    for g in original:
        if not lifted_plus.contains(g):
            raise ConsistencyError("original generator missing from lifted ideal + (x_n^2)")
    for j in range(quot_i.bound + 1):
        if quot_i.dim(j) != lifted_plus.dim(j):
            raise ConsistencyError(f"lifted ideal + (x_n^2) differs in degree {j}")
    return LiftedFamily(n, reduced.degrees, e, field, fs, f_ell)


@dataclass
class PointSet:
    points: list
    count: int


def enumerate_point_set(ds):
    """The affine-chart points cut out by the lifted forms, with the count identity.

    Coordinates a_i run over the symmetric residues of d_i and the last
    coordinate is 1; membership requires 1 + sum a_i to be a symmetric residue
    of the linear-form power.  The cardinality must equal the odd-degree
    truncation coefficient.  A degree-1 entry has the single residue 0, so
    every point has coordinate 0 there.

    Requires the reduced sum t = sum_{i<n} (d_i - 1) + e - 1 to be odd and
    raises ParityError otherwise.  A symmetric residue of d has the parity of
    d - 1, so 1 + sum a_i has the parity of t while the residues of e have the
    parity of e - 1: at even t the set is empty and the count identity fails
    (for (1,2,2) with e=2 the reduction has length 2).
    """
    _, _, reduced = ds.split_quadric()
    reduced.require_odd()
    last_values = set(_symmetric_roots(reduced.ell_power))
    points = []
    for a in product(*[_symmetric_roots(d) for d in reduced.degrees]):
        if 1 + sum(a) in last_values:
            points.append(a + (1,))
    expected = multiplicity_of_truncation(reduced.all_degrees())
    if len(points) != expected:
        raise ConsistencyError(
            f"point count {len(points)} != truncation coefficient {expected}")
    fs, f_ell = _family_polys(reduced, QQ)
    for pt in points:
        for f in fs + [f_ell]:
            if f.evaluate(pt):
                raise ConsistencyError(f"lifted form does not vanish at {pt}")
    return PointSet(points, len(points))


def check_xn_regular(ds, field=GF_DEFAULT):
    """Certify that x_n is a nonzerodivisor on the lifted quotient and on the
    lifted colon quotient.

    The kernel K of multiplication by x_n has HF_K(j-1) = HF_red(j) - HF(j) +
    HF(j-1), where HF_red is the Artinian reduction modulo x_n.  Checking that
    this vanishes for j <= max((t-1)/2, tau) + 1, tau the reduction's
    complete-intersection socle bound, is complete: past that point the
    quotient's Hilbert function is pinned between the point count of the cut
    locus (which imposes independent conditions from degree tau on, being a
    subset of a product grid) and the multiplicity identity checked here, so K
    cannot reappear.  The same certificate runs for the (n-1)-form ideal, and
    the colon quotient inherits regularity from it because it embeds by
    multiplication; its low-degree slices are also checked directly.  An
    ell^e inside (x_i^d_i), where the certificate is not argued, is refused,
    and so is a characteristic `require_general_ell` refuses for the
    reduction.
    """
    if ds.nvars < 2:
        # with n = 1, ell = x_1: at the even e parity allows, the lifted form of
        # ell^e has the factor ell - x_1 = 0
        raise PreconditionError("check regular needs n >= 2 variables")
    _, _, reduced = ds.split_quadric()
    n, e, t = ds.nvars, reduced.require_ell(), reduced.total_sum

    points = enumerate_point_set(ds)
    ds.require_minimal()
    # the field-side forms (`_family_polys`) lift ℓ^e over `field`
    require_general_ell(reduced.degrees, field)
    red_gens = power_ideal(reduced.degrees, e, QQ)
    red = ideal_slices(red_gens)
    if not red.artinian or sum(red.hilbert()) != points.count:
        raise ConsistencyError("reduction multiplicity does not match the point count")

    tau = reduced.variable_sum
    grid_expected = ideal_slices(red_gens[:-1])
    if not grid_expected.artinian or sum(grid_expected.hilbert()) != prod(reduced.degrees):
        raise ConsistencyError("grid reduction must have multiplicity prod(d_i)")

    fs, f_ell = _family_polys(reduced, field)
    fs_q, _ = _family_polys(reduced, QQ)
    for a in product(*[_symmetric_roots(d) for d in reduced.degrees]):
        pt = a + (1,)
        for f in fs_q:
            if f.evaluate(pt):
                raise ConsistencyError("grid point misses the product forms")

    bound = max((t - 1) // 2, tau) + 1
    quot_j = ideal_slices(fs, max_degree=max(tau + 2, bound))
    grid_vals = grid_expected.hilbert() + [0] * (tau + 2)
    for j in range(tau + 2):
        if quot_j.hf(j) - quot_j.hf(j - 1) != grid_vals[j]:
            return False

    xn_poly = Polynomial.variable(n - 1, n, field)
    rank_cache = {}

    def image_rank(g, k):
        key = (int(g.positions[0]), g.degree, k)
        if key not in rank_cache:
            if k < 0:
                rank_cache[key] = 0
            else:
                h = quot_j.hf(k + g.degree)
                rank_cache[key] = h and rank_of_rows(quot_j.products_class_matrix(g, k), h, field)
        return rank_cache[key]

    red_vals = red.hilbert() + [0] * (bound + 1)
    hf_i = [quot_j.hf(j) - image_rank(f_ell, j - e) for j in range(bound + 1)]
    for j in range(bound + 1):
        prev = hf_i[j - 1] if j else 0
        if hf_i[j] - prev != red_vals[j]:
            return False

    xnf = xn_poly * f_ell
    for j in range(1, tau - e + 3):
        if image_rank(xnf, j - 1) != image_rank(f_ell, j - 1):
            return False
    return True


def check_colon_equals_plus(ds, field=GF_DEFAULT):
    """Degreewise equality of the x_n-colon and the x_n-plus of both the ideal
    and its linked colon ideal.

    Adding x_n^2 to either ideal changes nothing (the quadric generator is
    already there), so the plus ideal always sits inside the colon and equality
    is a per-degree dimension check.
    """
    normalized, _, reduced = ds.split_quadric()
    reduced.require_odd()
    ds.require_minimal()
    n = ds.nvars
    gens = power_ideal(normalized.degrees, normalized.ell_power, field)
    xn_poly = Polynomial.variable(n - 1, n, field)

    def colon_vs_plus(quot, plus_dims):
        s = quot.socle_degree
        nmon = [monomial_count(n, j) for j in range(s + 3)]
        ranks = []
        for j in range(s + 2):
            h = quot.hf(j + 1)
            ranks.append(h and rank_of_rows(quot.products_class_matrix(xn_poly, j), h, field))
        for j in range(s + 2):
            colon_dim = nmon[j] - ranks[j]
            plus_dim = quot.dim(j) + (ranks[j - 1] if j else 0)
            if plus_dims is not None and plus_dims[j] != plus_dim:
                raise ConsistencyError("two routes to the plus ideal disagree")
            if colon_dim != plus_dim:
                return False
        return True

    quot_i = ideal_slices(gens)
    plus = ideal_slices(gens + [xn_poly], max_degree=quot_i.socle_degree + 1)
    plus_dims = [plus.dim(j) for j in range(quot_i.socle_degree + 2)]
    if not colon_vs_plus(quot_i, plus_dims):
        return False
    return colon_vs_plus(linked_ideal(normalized, field), None)


@lru_cache(maxsize=None)
def _syzygy_weights(normalized, field):
    """The generators of a normalized sequence and the weights of
    `check_syzygy_property`: c(d_i) x_i^(d_i - 2) for i < n, 1 for x_n^2 and
    c(e) ell^(e-2), each zero where the degree is below 2."""
    n, e = normalized.nvars, normalized.require_ell()
    c, zero = syzygy_coefficient, Polynomial.zero(n, field)
    weights = [Polynomial.variable_power(i, d - 2, n, field).scale(c(d)) if d >= 2 else zero
               for i, d in enumerate(normalized.degrees[:-1])]
    weights += [Polynomial.constant(1, n, field),
                power_of_linear([1] * n, e - 2, field).scale(c(e)) if e >= 2 else zero]
    return power_ideal(normalized.degrees, e, field), weights


def check_syzygy_property(ds, relation):
    """Feed a verified relation through the weighted-combination membership test.

    For generators (x_1^d1, .., x_{n-1}^d_{n-1}, x_n^2, ell^e) and a relation
    (a_1..a_{n+1}), report whether the combination sum_i c_i a_i x_i^(d_i - 2)
    + a_n + c(e) a_{n+1} ell^(e-2) falls back into the ideal.

    The predicate is defined at any parity and is evaluated as such.  That
    every syzygy satisfies it holds only when the reduced sum
    t = sum_{i<n} (d_i - 1) + e - 1 is odd; at even t some do not (for
    (3,2,2) with e=2 some degree-4 syzygies fail).  The parity hypothesis
    therefore belongs to the sweep that asserts the property for a whole
    syzygy basis (`bettiforge check syzygy`), not to this single-relation test.
    """
    normalized, _, _ = ds.split_quadric()
    gens, weights = _syzygy_weights(normalized, relation.components[0].field)
    if len(relation.components) != ds.nvars + 1 or not relation.check(gens):
        raise PreconditionError("not a relation of the normalized generators")
    return membership(dot(relation.components, weights), gens)


# ---------------------------------------------------------------------------
# annihilators of elementary symmetric polynomials


def _difference_product(pairs, extra, nvars, field):
    """prod over (a, b) in pairs of (x_a - x_b), times x_extra unless extra is
    None, from its 2^k signed terms: the pairs are disjoint, so each choice of
    one end per pair is its own monomial, negated once per b chosen."""
    extra = () if extra is None else (extra,)
    terms = {}
    for ends in product(*pairs):
        mono = [0] * nvars
        for v in ends + extra:
            mono[v] = 1
        terms[tuple(mono)] = (-1) ** sum(v == b for v, (_, b) in zip(ends, pairs))
    return Polynomial.from_terms(nvars, field, terms)


def _disjoint_pairs(free, count):
    """Every set of `count` disjoint pairs (a, b), a < b, from the sorted tuple `free`."""
    if count == 0:
        return [()]
    return [((a, b),) + rest for i, a in enumerate(free) for b in free[i + 1:]
            for rest in _disjoint_pairs(tuple(v for v in free[i + 1:] if v != b), count - 1)]


def _normalize_sign(poly):
    lead = poly.values[0]
    char = poly.field.characteristic
    if lead < 0 or (char and lead > char // 2):
        return poly.scale(-1)
    return poly


def esym_annihilator_generators(nvars, d, field=QQ):
    """Squares plus the symmetric orbit of a difference product generating the
    annihilator of e_{n-d}: with m = n - d, the products of (m+1)/2 disjoint
    differences x_a - x_b, times one further variable when m is even, each up to
    sign.

    The colon ideal (x_i^2) : ℓ^d comes from `power_ideal`, over a field
    `require_general_ell` allows.  Each orbit element is checked against it
    and the graded dimensions are matched in the two generating degrees.
    """
    if not 1 <= d <= nvars - 1:
        raise PreconditionError("need 1 <= d <= n-1")
    m = nvars - d
    *squares, ell_d = power_ideal((2,) * nvars, d, field)
    orbit = []
    for pairs in _disjoint_pairs(tuple(range(nvars)), (m + 1) // 2):
        used = {v for pair in pairs for v in pair}
        extras = [v for v in range(nvars) if v not in used] if m % 2 == 0 else [None]
        orbit += [_normalize_sign(_difference_product(pairs, v, nvars, field)) for v in extras]
    orbit.sort(key=lambda g: sorted(zip(g.exponents().tolist(), g.values.tolist())))

    colon = colon_ideal(squares, ell_d)
    for g in orbit:
        if not colon.contains(g):
            raise ConsistencyError("orbit element escapes the colon ideal")
    gens = squares + orbit
    level = (nvars - d) // 2 + 1
    check_bound = max(2, level)
    generated = ideal_slices(gens, max_degree=check_bound)
    for j in (2, level):
        if generated.dim(j) != colon.dim(j):
            raise ConsistencyError(f"generated ideal misses the colon ideal in degree {j}")
    return gens


def sqfree_leading_set(nvars, d):
    """Squarefree monomials x_{i_1}..x_{i_(l+1)}, i_j <= d + 2(j-1), as exponent tuples."""
    if not 1 <= d <= nvars - 1:
        raise PreconditionError("need 1 <= d <= n-1")
    level = (nvars - d) // 2 + 1
    out = []
    for combo in combinations(range(1, nvars + 1), level):
        if all(i <= d + 2 * k for k, i in enumerate(combo)):
            e = [0] * nvars
            for i in combo:
                e[i - 1] = 1
            out.append(tuple(e))
    expected = lattice_path_count(nvars, d)
    if len(out) != expected:
        raise ConsistencyError(f"leading-set size {len(out)} != reflection count {expected}")
    return out


def lattice_path_count(nvars, d):
    """Reflection-principle count: C(n, l+1) - C(n, l+1+d) with l = floor((n-d)/2)."""
    if not 1 <= d <= nvars - 1:
        raise PreconditionError("need 1 <= d <= n-1")
    level = (nvars - d) // 2 + 1
    return comb(nvars, level) - comb(nvars, level + d)


GENERIC_ATTEMPTS = 8


def random_generic_level_spotcheck(nvars, degrees, seed):
    """Draw seeded random forms of the given degrees over the large prime field
    and test levelness, insisting on the truncated-series Hilbert function as a
    genericity witness (degenerate draws are retried)."""
    degrees = tuple(degrees)
    if len(degrees) != nvars + 1:
        raise PreconditionError("need n+1 form degrees")
    if 2 not in degrees:
        raise PreconditionError("at least one generator must be a quadric")
    if min(degrees) < 1:
        # a constant form generates the unit ideal, whose Hilbert function no draw matches
        raise PreconditionError("form degrees must be at least 1")
    field = GF_PARANOIA
    rng = random.Random(seed)
    expected = froberg_series(nvars, degrees).coefficients
    for _ in range(GENERIC_ATTEMPTS):
        forms = []
        for deg in degrees:
            coeffs = [rng.randrange(field.p) for _ in range(monomial_count(nvars, deg))]
            forms.append(Polynomial.from_vector(coeffs, nvars, deg, field))
        if any(f.is_zero() for f in forms):
            continue
        quot = ideal_slices(forms)
        if not quot.artinian or tuple(quot.hilbert()) != expected:
            continue
        return socle_dims(quot).is_level
    raise RetryExhausted(f"no generic draw within {GENERIC_ATTEMPTS} attempts (seed {seed})")
