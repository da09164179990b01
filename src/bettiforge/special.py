"""Lifting constructions, the product-of-roots point sets, regularity and
syzygy certificates, explicit generators for annihilators of elementary
symmetric polynomials, lattice-path counting, and the seeded levelness
spot-check for generic quadric-containing ideals."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, prod

from .errors import ConsistencyError, MinimalityError, PreconditionError, RetryExhausted
from .exactalg import GF_DEFAULT, GF_PARANOIA, QQ
from .formulas import syzygy_coefficient
from .hilbert import froberg_series, multiplicity_of_truncation
from .polyring import (
    Polynomial,
    monomials_of_degree,
    power_ideal,
    power_of_linear,
    standard_linear_form,
)
from .resolver import (
    GradedQuotient,
    colon_ideal,
    ideal_slices,
    membership,
    quotient_hilbert,
    rank_of_rows,
    socle_dims,
)


def _root_product(base, roots, xn, nvars, field):
    """prod over r in roots of (base - r * x_n)."""
    out = Polynomial.constant(1, nvars, field)
    xn_poly = Polynomial.variable(xn, nvars, field)
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
        fs.append(_root_product(base, _symmetric_roots(d), xn, nvars, field))
    ell = standard_linear_form(nvars, field)
    f_ell = _root_product(ell, _symmetric_roots(reduced.ell_power), xn, nvars, field)
    return fs, f_ell


@dataclass
class LiftedFamily:
    nvars: int
    reduced_degrees: tuple
    ell_power: int
    field: object
    fs: list
    f_ell: Polynomial


def _divisible_by_xn4(poly, nvars):
    return all(m[nvars - 1] >= 4 for m in poly.coeffs)


def build_lifted_family(ds, field=None):
    """Construct the lifted forms for a sequence with its quadric in the last slot.

    Verifies the expansion identity f_i = x_i^d - c x_i^(d-2) x_n^2 + (x_n^4
    multiples) and that the lifted ideal plus (x_n^2) cuts out the original
    ideal degree by degree through its socle.
    """
    field = GF_DEFAULT if field is None else field
    normalized, _, reduced = ds.split_quadric()
    n, e = ds.nvars, reduced.require_ell()
    fs, f_ell = _family_polys(reduced, field)
    xn2 = Polynomial.variable_power(n - 1, 2, n, field)

    for i, d in enumerate(reduced.degrees):
        expected = Polynomial.variable_power(i, d, n, field)
        c = syzygy_coefficient(d)
        if c and d >= 2:
            expected = expected - Polynomial.variable_power(i, d - 2, n, field).scale(c) * xn2
        if not _divisible_by_xn4(fs[i] - expected, n):
            raise ConsistencyError(f"lifted form {i} fails its expansion identity")
    expected = power_of_linear([1] * n, e, field)
    c = syzygy_coefficient(e)
    if c and e >= 2:
        expected = expected - power_of_linear([1] * n, e - 2, field).scale(c) * xn2
    if not _divisible_by_xn4(f_ell - expected, n):
        raise ConsistencyError("lifted linear-form product fails its expansion identity")

    original = power_ideal(normalized.degrees, e, field)
    slices_i = ideal_slices(original, n, field)
    lifted_plus = ideal_slices(fs + [f_ell, xn2], n, field,
                               max_degree=slices_i.bound)
    for g in original:
        if not lifted_plus.contains(g):
            raise ConsistencyError("original generator missing from lifted ideal + (x_n^2)")
    for j in range(slices_i.bound + 1):
        if slices_i.dim(j) != lifted_plus.dim(j):
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
            if not QQ.is_zero(f.evaluate(pt)):
                raise ConsistencyError(f"lifted form does not vanish at {pt}")
    return PointSet(points, len(points))


def check_xn_regular(ds, field=None):
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
    multiplication; its low-degree slices are also checked directly.
    """
    if ds.nvars < 2:
        # with n = 1, ell = x_1: at the even e parity allows, the lifted form of
        # ell^e has the factor ell - x_1 = 0
        raise PreconditionError("check regular needs n >= 2 variables")
    field = GF_DEFAULT if field is None else field
    _, _, reduced = ds.split_quadric()
    n, e, t = ds.nvars, reduced.require_ell(), reduced.total_sum

    points = enumerate_point_set(ds)
    red_gens = power_ideal(reduced.degrees, e, QQ)
    red = quotient_hilbert(red_gens, n - 1, QQ)
    if not red.artinian or sum(red.values) != points.count:
        raise ConsistencyError("reduction multiplicity does not match the point count")

    tau = reduced.variable_sum
    grid_expected = quotient_hilbert(red_gens[:-1], n - 1, QQ)
    if not grid_expected.artinian or sum(grid_expected.values) != prod(reduced.degrees):
        raise ConsistencyError("grid reduction must have multiplicity prod(d_i)")

    fs, f_ell = _family_polys(reduced, field)
    fs_q, _ = _family_polys(reduced, QQ)
    for a in product(*[_symmetric_roots(d) for d in reduced.degrees]):
        pt = a + (1,)
        for f in fs_q:
            if not QQ.is_zero(f.evaluate(pt)):
                raise ConsistencyError("grid point misses the product forms")

    depth = tau + 2
    slices_j = ideal_slices(fs, n, field, max_degree=depth)
    hf_j = slices_j.hilbert_values()
    grid_vals = list(grid_expected.values) + [0] * (tau + 2)
    for j in range(tau + 2):
        prev = hf_j[j - 1] if j else 0
        if hf_j[j] - prev != grid_vals[j]:
            return False

    quot_j = GradedQuotient(slices_j)
    xn_poly = Polynomial.variable(n - 1, n, field)
    rank_cache = {}

    def image_rank(g, k):
        key = (g.leading_monomial(), g.homogeneous_degree(), k)
        if key not in rank_cache:
            if k < 0:
                rank_cache[key] = 0
            else:
                mat = quot_j.products_class_matrix(g, k)
                h = quot_j.hf(k + g.homogeneous_degree())
                rank_cache[key] = rank_of_rows(mat, h, field) if h else 0
        return rank_cache[key]

    bound = max((t - 1) // 2, tau) + 1
    red_vals = list(red.values) + [0] * (bound + 1)
    hf_i = [hf_j[j] - image_rank(f_ell, j - e) for j in range(bound + 1)]
    for j in range(bound + 1):
        prev = hf_i[j - 1] if j else 0
        if hf_i[j] - prev != red_vals[j]:
            return False

    xnf = xn_poly * f_ell
    for j in range(1, tau - e + 3):
        if image_rank(xnf, j - 1) != image_rank(f_ell, j - 1):
            return False
    return True


def check_colon_equals_plus(ds, field=None):
    """Degreewise equality of the x_n-colon and the x_n-plus of both the ideal
    and its linked colon ideal.

    Adding x_n^2 to either ideal changes nothing (the quadric generator is
    already there), so the plus ideal always sits inside the colon and equality
    is a per-degree dimension check.
    """
    field = GF_DEFAULT if field is None else field
    normalized, _, reduced = ds.split_quadric()
    reduced.require_odd()
    if not ds.is_minimal:
        raise MinimalityError(f"ell^{ds.ell_power} already lies in (x_i^d_i): e exceeds sum of "
                              f"(d_i - 1) = {ds.variable_sum}, so the colon ideal is the unit ideal")
    n = ds.nvars
    *mono_gens, ell_pow = power_ideal(normalized.degrees, normalized.ell_power, field)
    xn_poly = Polynomial.variable(n - 1, n, field)

    def colon_vs_plus(slices, plus_dims):
        quot = GradedQuotient(slices)
        s = slices.socle_degree
        nmon = [len(monomials_of_degree(n, j)) for j in range(s + 3)]
        ranks = []
        for j in range(s + 2):
            if quot.hf(j + 1) == 0:
                ranks.append(0)
                continue
            mat = quot.products_class_matrix(xn_poly, j)
            ranks.append(rank_of_rows(mat, quot.hf(j + 1), field))
        for j in range(s + 2):
            colon_dim = nmon[j] - ranks[j]
            plus_dim = slices.dim(j) + (ranks[j - 1] if j else 0)
            if plus_dims is not None and plus_dims[j] != plus_dim:
                raise ConsistencyError("two routes to the plus ideal disagree")
            if colon_dim != plus_dim:
                return False
        return True

    slices_i = ideal_slices(mono_gens + [ell_pow], n, field)
    plus = ideal_slices(mono_gens + [ell_pow, xn_poly], n, field,
                        max_degree=slices_i.socle_degree + 1)
    plus_dims = [plus.dim(j) for j in range(plus.bound + 1)]
    if not colon_vs_plus(slices_i, plus_dims):
        return False
    slices_g = colon_ideal(mono_gens, ell_pow)
    return colon_vs_plus(slices_g, None)


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
    n, e = ds.nvars, normalized.require_ell()
    field = relation.components[0].field
    gens = power_ideal(normalized.degrees, e, field)
    if len(relation.components) != n + 1 or not relation.check(gens):
        raise PreconditionError("not a relation of the normalized generators")
    combo = relation.components[n - 1]
    for i, d in enumerate(normalized.degrees[:-1]):
        c = syzygy_coefficient(d)
        if c and d >= 2:
            term = relation.components[i] * Polynomial.variable_power(i, d - 2, n, field)
            combo = combo + term.scale(c)
    c = syzygy_coefficient(e)
    if c and e >= 2:
        combo = combo + (relation.components[n] * power_of_linear([1] * n, e - 2, field)).scale(c)
    return membership(combo, gens)


# ---------------------------------------------------------------------------
# annihilators of elementary symmetric polynomials


def _difference_product(pairs, extra, nvars, field):
    out = Polynomial.constant(1, nvars, field)
    for a, b in pairs:
        out = out * (Polynomial.variable(a, nvars, field) - Polynomial.variable(b, nvars, field))
    if extra is not None:
        out = out * Polynomial.variable(extra, nvars, field)
    return out


def _normalize_sign(poly):
    lead = poly.coeffs[poly.leading_monomial()]
    char = poly.field.characteristic
    if lead < 0 or (char and lead > char // 2):
        return poly.scale(-1)
    return poly


def esym_annihilator_generators(nvars, d, field=None):
    """Squares plus the symmetric orbit of a difference product generating the
    annihilator of e_{n-d}; orbit shape depends on the parity of n + d.

    Each orbit element is checked against the colon ideal and the graded
    dimensions are matched in the two generating degrees.
    """
    field = QQ if field is None else field
    if not 1 <= d <= nvars - 1:
        raise PreconditionError("need 1 <= d <= n-1")
    m = nvars - d
    squares = [Polynomial.variable_power(i, 2, nvars, field) for i in range(nvars)]
    if (nvars + d) % 2 == 1:
        pairs = [(2 * k, 2 * k + 1) for k in range((m + 1) // 2)]
        base = _difference_product(pairs, None, nvars, field)
    else:
        pairs = [(2 * k, 2 * k + 1) for k in range(m // 2)]
        base = _difference_product(pairs, m, nvars, field)
    seen = {}
    for sigma in permutations(range(nvars)):
        image = Polynomial(nvars, field, {
            tuple(mono[sigma.index(v)] for v in range(nvars)): c
            for mono, c in base.coeffs.items()})
        image = _normalize_sign(image)
        key = tuple(sorted(image.coeffs.items()))
        seen.setdefault(key, image)
    orbit = [seen[k] for k in sorted(seen)]

    ell_d = power_of_linear([1] * nvars, d, field)
    colon = colon_ideal(squares, ell_d)
    for g in orbit:
        if not colon.contains(g):
            raise ConsistencyError("orbit element escapes the colon ideal")
    gens = squares + orbit
    level = (nvars - d) // 2 + 1
    check_bound = max(2, level)
    generated = ideal_slices(gens, nvars, field, max_degree=check_bound)
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


def random_generic_level_spotcheck(nvars, degrees, seed, retries=8):
    """Draw seeded random forms of the given degrees over the large prime field
    and test levelness, insisting on the truncated-series Hilbert function as a
    genericity witness (degenerate draws are retried)."""
    degrees = tuple(degrees)
    if len(degrees) != nvars + 1:
        raise PreconditionError("need n+1 form degrees")
    if 2 not in degrees:
        raise PreconditionError("at least one generator must be a quadric")
    field = GF_PARANOIA
    rng = random.Random(seed)
    expected = froberg_series(nvars, degrees).coefficients
    for _ in range(retries):
        forms = []
        for deg in degrees:
            coeffs = {m: rng.randrange(field.p) for m in monomials_of_degree(nvars, deg)}
            forms.append(Polynomial(nvars, field, coeffs))
        if any(f.is_zero() for f in forms):
            continue
        slices = ideal_slices(forms, nvars, field)
        values = slices.hilbert_values()
        if 0 not in values:
            continue
        top = max(j for j, v in enumerate(values) if v)
        if tuple(values[:top + 1]) != expected:
            continue
        return socle_dims(slices).is_level
    raise RetryExhausted(f"no generic draw within {retries} attempts (seed {seed})")
