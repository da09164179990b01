"""Macaulay inverse systems: annihilators through catalecticant kernels, dual
generators of colon algebras, the elementary-symmetric contraction identity,
and weak/strong Lefschetz rank checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .errors import ConsistencyError, NonArtinianError, PreconditionError, UnitIdealError
from .exactalg import QQ, RowBasis, rank_of_rows
from .polyring import (
    Polynomial,
    contract,
    exponent_array,
    falling_weights,
    monomial_count,
    power_of_linear,
    product_positions,
    ring_of,
    standard_linear_form,
)
from .resolver import (
    GradedQuotient,
    _kernel_row_basis,
    default_artinian_bound,
    ideal_slices,
    quotient_model,
)


def _guard_characteristic(field, degree):
    # contraction multiplies falling factorials of exponents <= degree; a prime
    # at most that size would kill them
    if 0 < field.characteristic <= degree:
        raise PreconditionError(
            f"prime {field.characteristic} must exceed the top degree {degree} for contraction")


def annihilator(dual_form):
    """Ann(F) = {f : f ∘ F = 0} as a GradedQuotient, computed per degree as the
    kernel of the catalecticant map into the dual in complementary degree, whose
    entry (w, m), the coefficient of x^w in x^m ∘ F, is F's at x^(m+w) times (m+w)!/w!.

    The quotient is Artinian Gorenstein with socle degree deg F; slices run one
    degree past that, where the ideal is everything.
    """
    if dual_form.is_zero():
        raise PreconditionError("the zero form has no apolar algebra")
    e = dual_form.degree
    nvars, field = dual_form.nvars, dual_form.field
    _guard_characteristic(field, e)
    coeffs = dual_form.to_vector()
    bases = {}
    for j in range(e + 1):
        monos, duals = exponent_array(nvars, j), exponent_array(nvars, e - j)
        weights = falling_weights(monos[:, None] + duals[None], monos[:, None], field)
        # residues below p < 2**31: the product fits int64 and is reduced at once
        rows = field.reduce(coeffs[product_positions(monos, duals)] * weights).T
        bases[j] = _kernel_row_basis(rows, len(monos), field)
    bases[e + 1] = RowBasis.full(monomial_count(nvars, e + 1), field)
    quot = GradedQuotient(nvars, field, bases)
    if quot.hf(e) != 1:
        raise ConsistencyError("apolar algebra must have a one-dimensional socle degree piece")
    return quot


def dual_generator_of_colon(dual_of_ideal, f):
    """Dual generator of (J : f) when J has dual generator G: it is f ∘ G."""
    out = contract(f, dual_of_ideal)
    if out.is_zero():
        raise UnitIdealError("f ∘ G = 0: the colon ideal is the unit ideal")
    return out


@dataclass
class EsymDual:
    form: Polynomial
    scalar: int


def elementary_symmetric(nvars, k, field):
    """e_k(x_1..x_n): all squarefree degree-k monomials."""
    coeffs = {}
    for S in combinations(range(nvars), k):
        e = [0] * nvars
        for v in S:
            e[v] = 1
        coeffs[tuple(e)] = 1
    return Polynomial.from_terms(nvars, field, coeffs)


def elementary_symmetric_dual(nvars, d, field=QQ):
    """Contract the d-th power of x_1 + .. + x_n against x_1 ... x_n.

    The result must equal d! * e_{n-d}; both the symmetric form and the scalar
    are returned after the coefficientwise check.
    """
    if not 0 <= d <= nvars - 1:
        raise PreconditionError("need 0 <= d <= n-1 for a nonconstant contraction")
    _guard_characteristic(field, nvars)
    product = Polynomial.monomial((1,) * nvars, field)
    contracted = contract(power_of_linear([1] * nvars, d, field), product)
    esym = elementary_symmetric(nvars, nvars - d, field)
    if contracted != esym.scale(factorial(d)):
        raise ConsistencyError("contraction of the power failed the d! e_{n-d} identity")
    return EsymDual(esym, factorial(d))


@dataclass
class LefschetzCheck:
    source_degree: int
    power: int
    dim_source: int
    dim_target: int
    rank: int

    @property
    def maximal(self):
        return self.rank == min(self.dim_source, self.dim_target)


@dataclass
class LefschetzReport:
    element: Polynomial
    mode: str
    checks: list
    verdict: str

    @property
    def holds(self):
        return self.verdict in ("SLP", "WLP")


def lefschetz_check(source, ell=None, mode="SLP"):
    """Rank every multiplication map by powers of the candidate linear form.

    SLP mode checks all powers j >= 1 with i + j inside the socle range, WLP
    mode only j = 1.  The verdict speaks for the tested form only.  The maps
    by ℓ are built once per degree, and up to sign the map by ℓ^j from
    degree i is the one by ℓ from degree i + j − 1 after the one by ℓ^(j−1).
    """
    mode = mode.upper()
    if mode not in ("SLP", "WLP"):
        raise PreconditionError("mode must be SLP or WLP")
    if ell is not None and ell.degree != 1:
        raise PreconditionError("the Lefschetz element must be a nonzero linear form")
    quot = quotient_model(source)
    if not quot.artinian:
        raise NonArtinianError("Lefschetz checks need an Artinian quotient")
    n, fld = quot.nvars, quot.field
    s = quot.socle_degree
    _guard_characteristic(fld, max(s, 1))
    if ell is None:
        ell = standard_linear_form(n, fld)
    powers = range(1, 2) if mode == "WLP" else range(1, s + 1)
    checks = []
    step = [quot.mult_poly(ell, d) for d in range(s)]
    maps = step[:]
    for jpow in powers:
        for i in range(0, s - jpow + 1):
            h0, h1 = quot.hf(i), quot.hf(i + jpow)
            if jpow > 1:
                # 0 - step·map: the sign flips with each power, which leaves
                # every rank as it is
                maps[i] = fld.sub_matmul(fld.zeros((h1, h0)), step[i + jpow - 1], maps[i])
            if h0 == 0 and h1 == 0:
                continue
            rank = rank_of_rows(maps[i], h0, fld) if h0 else 0
            checks.append(LefschetzCheck(i, jpow, h0, h1, rank))
    all_max = all(c.maximal for c in checks)
    if mode == "WLP":
        verdict = "WLP" if all_max else "neither"
    elif all_max:
        verdict = "SLP"
    else:
        verdict = "WLP-only" if all(c.maximal for c in checks if c.power == 1) else "neither"
    return LefschetzReport(ell, mode, checks, verdict)


def semiregularity_check(gens):
    """Does each form multiply with maximal rank on the quotient by its predecessors?

    Verified degree by degree up to the top degree of the full Artinian
    quotient plus the largest generator degree.  A failure is always genuine;
    a pass certifies the range checked.  The zero form maps each graded piece
    into itself with rank 0, maximal only where the quotient vanishes.
    """
    gens = list(gens)
    nvars, field = ring_of(gens)
    max_degree = default_artinian_bound(gens) + \
        max((g.degree for g in gens if not g.is_zero()), default=0)
    for k, g in enumerate(gens):
        d = 0 if g.is_zero() else g.degree
        quot = ideal_slices([Polynomial.zero(nvars, field), *gens[:k]], max_degree)
        for i in range(0, max_degree - d + 1):
            h0 = quot.hf(i)
            h1 = quot.hf(i + d)
            if h0 == 0:
                continue
            rank = 0 if g.is_zero() else rank_of_rows(quot.mult_poly(g, i), h0, field)
            if rank != min(h0, h1):
                return False
    return True
