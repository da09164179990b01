"""The brute-force side: exact degree-by-degree linear algebra over a field.

`GradedQuotient` is the one graded object for an ideal I and its quotient
R/I: I's reduced basis in each degree and, read off those bases, the Hilbert
function, socle degree, class matrices and multiplication maps of R/I.  Its
constructor asks a builder for one basis per degree and ends them where R/I
vanishes; `ideal_slices` builds from generators (`slice_at_degree`),
`colon_ideal` and `linked_ideal` from a colon, and `apolarity.annihilator`
from a dual form.  Minimal generators, socles and graded Betti numbers are
read from it; first syzygies and ideal membership work on the generators.

The ring comes from the polynomials: every public function here that takes
generators reads (nvars, field) off them with `polyring.ring_of`, which
refuses mixed rings, and hands it to the per-degree
worker `slice_at_degree`. The zero ideal is written [0].

Betti numbers are computed as the graded dimensions of the homology of the
Koszul complex on the variables with coefficients in the quotient algebra,
which is the defining Tor description; only ranks of small matrices over the
chosen field are ever needed, and nothing here shares code with the closed
formulas it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import ConsistencyError, NonArtinianError, PreconditionError, UnitIdealError
from .exactalg import Accumulator, RowBasis, SparseRows, rank_of_rows
from .formulas import BettiTable
from .polyring import (
    Polynomial,
    dot,
    exponent_array,
    macaulay_columns,
    macaulay_matrix,
    monomial_count,
    multiples_matrix,
    power_ideal,
    product_positions,
    ring_of,
)


def _split_generators(gens):
    """Separate single-term generators (handled combinatorially) from dense ones."""
    monos = [g.exponents()[0] for g in gens if len(g.positions) == 1]
    return monos, [g for g in gens if len(g.positions) > 1]


def slice_at_degree(gens, j, nvars, field):
    """Reduced basis of the degree-j piece of the ideal generated by `gens`.

    Multiples of single-term generators give unit rows for free; the remaining
    generators contribute a small block living on the complementary monomials,
    which is what actually gets eliminated.
    """
    mono_gens, dense_gens = _split_generators(gens)
    exps = exponent_array(nvars, j)
    hit = np.zeros(len(exps), dtype=bool)
    if mono_gens:
        hit = (exps[:, None, :] >= np.array(mono_gens)[None]).all(axis=2).any(axis=1)
    mono_pivots, candidates = np.flatnonzero(hit), np.flatnonzero(~hit)

    blocks = [field.zeros((0, len(candidates)))]
    for g in dense_gens:
        if g.degree <= j:
            block = multiples_matrix(g, exponent_array(nvars, j - g.degree), candidates, len(exps))
            blocks.append(block[np.count_nonzero(block, axis=1) > 0])

    block = RowBasis.from_rows(np.concatenate(blocks), len(candidates), field)
    pivots = np.concatenate([mono_pivots, candidates[block.pivots]])
    order = np.argsort(pivots, kind="stable")
    tails = np.concatenate([field.zeros((mono_pivots.size, block.codim)), block.tails])
    return RowBasis(len(exps), field, pivots[order], tails[order])


class GradedQuotient:
    """A homogeneous ideal I and its quotient R/I, degree by degree up to `top`.

    The ideal side is I's reduced basis in each degree (`bases`, `dim`,
    `contains`). The quotient side reads its standard monomials off those
    bases (their support columns): the Hilbert function, the socle degree, a
    class matrix sending each monomial to its residue coordinates, and
    multiplication maps between graded pieces.

    The constructor asks `basis_at(j)` for I's basis in degree j = 0, 1, ..,
    `top` and stops at the first where R/I vanishes, the witness that I holds
    every later degree: past it `hf` reads 0, `dim` (read off `hf`) the
    monomial count, and `contains` True, with no basis to read.  `bound` is
    that witness when R/I is `artinian` within `top`, else `top`.
    """

    def __init__(self, nvars, field, basis_at, top):
        if top < 0:
            raise PreconditionError(f"a quotient needs a degree bound of at least 0, not {top}")
        self.nvars = nvars
        self.field = field
        self.bases = {}
        for j in range(top + 1):
            self.bases[j] = basis_at(j)
            if self.bases[j].codim == 0:
                break
        self.bound, self.artinian = j, self.bases[j].codim == 0
        self._classes = {}
        self._mult_nonzeros = {}

    def _within_bound(self, j):
        """Is degree j computed? Past the bound only if R/I already vanished there."""
        if j <= self.bound:
            return True
        if self.artinian:
            return False
        raise PreconditionError(f"degree {j} beyond the computed bound {self.bound}")

    def dim(self, j):
        return monomial_count(self.nvars, j) - self.hf(j)

    def contains(self, poly):
        poly.check_ring(self.nvars, self.field)
        return poly.is_zero() or not self._within_bound(poly.degree) or \
            self.bases[poly.degree].contains(poly.to_vector())

    def hf(self, j):
        """Hilbert function of R/I in degree j."""
        if j < 0 or not self._within_bound(j):
            return 0
        return self.bases[j].codim

    @property
    def socle_degree(self):
        """Top degree with nonzero quotient; requires vanishing inside the bound."""
        if not self.artinian:
            raise NonArtinianError("quotient did not vanish inside the computed bound")
        return max(self.bound - 1, 0)

    def hilbert(self):
        """The Hilbert function through the socle degree, or through the bound
        when R/I has not vanished inside it."""
        top = self.socle_degree if self.artinian else self.bound
        return [self.hf(j) for j in range(top + 1)]

    def class_matrix(self, j):
        if j not in self._classes:
            self._classes[j] = self.bases[j].class_matrix()
        return self._classes[j]

    def mult_variable(self, v, j):
        """Matrix of multiplication by x_v from degree j to j+1, columns over std monomials."""
        standard = exponent_array(self.nvars, j)[self.bases[j].support]
        shift = product_positions(standard, np.eye(1, self.nvars, v, dtype=np.int64))[:, 0]
        return self.class_matrix(j + 1)[shift].T.copy()

    def mult_nonzeros(self, j):
        """The nonzeros of the maps `mult_variable(v, j)` side by side,
        [x_0 | x_1 | ... ], row by row: their rows, variables, columns within
        the variable's block, values and negated values."""
        if j not in self._mult_nonzeros:
            stacked = np.hstack([self.mult_variable(v, j) for v in range(self.nvars)])
            rows, at = np.nonzero(stacked)
            var, cols = np.divmod(at, self.hf(j))
            vals = stacked[rows, at]
            self._mult_nonzeros[j] = rows, var, cols, vals, self.field.reduce(-vals)
        return self._mult_nonzeros[j]

    def products_class_matrix(self, g, k, monos=None):
        """Rows = class of (m * g) in degree k + deg g, m over the degree-k
        monomials, or over those at the positions in the array or list `monos`.

        One `multiples_matrix` lays out m * g on two column ranges of the
        target basis: its support columns, where a term is its own
        coordinate, then the pivots with a nonzero tail.  A pivot's class is
        minus its tail, so the rows are finished by one `sub_matmul` of the
        second range by those tails into the first, exact by the field's
        product (`_sub_mod` over GF(p)).  A basis with no nonzero tail, as a
        monomial ideal's, forms no product."""
        exps = exponent_array(self.nvars, k)
        if monos is not None:
            exps = exps[monos]
        base = self.bases[k + g.degree]
        live = np.flatnonzero(np.count_nonzero(base.tails, axis=1))
        cols = np.concatenate([base.support, base.pivots[live]])
        out = multiples_matrix(g, exps, cols, base.ncols)
        on_support, on_pivots = out[:, :len(base.support)], out[:, len(base.support):]
        return self.field.sub_matmul(on_support, on_pivots, base.tails[live]) if live.size else out

    def mult_poly(self, g, j):
        """The map by homogeneous g from R/I in degree j to degree j + deg g:
        one row per standard monomial m of degree j, in support order, holding
        the class of m * g over the hf(j + deg g) standard monomials of the
        target.  Its rank is that of `products_class_matrix(g, j)`, whose other
        rows are combinations of these, since I_j * g lies in I."""
        return self.products_class_matrix(g, j, self.bases[j].support)


def default_artinian_bound(gens):
    """A degree by which any Artinian quotient of these generators has vanished."""
    return sum(g.degree - 1 for g in gens if not g.is_zero()) + 1


def ideal_slices(gens, max_degree=None):
    """R/(gens) as a GradedQuotient with bases through `max_degree`, by default
    a degree by which an Artinian quotient has vanished, or through the first
    degree where R/I vanishes, if that comes first."""
    gens = list(gens)
    nvars, field = ring_of(gens)
    if max_degree is None:
        if len(gens) < nvars:
            raise NonArtinianError("fewer generators than variables can never be Artinian")
        max_degree = default_artinian_bound(gens)
    return GradedQuotient(nvars, field, lambda j: slice_at_degree(gens, j, nvars, field),
                          max_degree)


def quotient_model(source):
    """`source` itself when it is a GradedQuotient, else R/(source) for generators."""
    return source if isinstance(source, GradedQuotient) else ideal_slices(source)


def minimal_generators(ideal):
    """Degreewise bases of I_j modulo R_1 * I_{j-1}; their count per degree is beta_{1,j}.

    Basis row k of I_j is a generator when it lies outside R_1 * I_{j-1} plus
    the rows before it.  Written in the coordinates of I_j's reduced basis (a
    vector's entries at the pivot columns) in reverse order, so that row k is
    coordinate dim - 1 - k, that holds exactly when dim - 1 - k is not a pivot
    of R_1 * I_{j-1}.  Its spanning rows x_v * b, for every variable x_v and
    every basis row b of I_{j-1}, hold about one nonzero each, so they go to
    one `Accumulator.absorb` per degree as `SparseRows` in those coordinates,
    which over GF(p) reduces them without a dense block.  Only the generator
    rows of I_j's basis are laid out at full width, not all dim of them.
    """
    nvars, field = ideal.nvars, ideal.field
    out = []
    for j, base in ideal.bases.items():
        if base.dim == 0:
            continue
        spanned = Accumulator(base.dim, field)
        prev = ideal.bases.get(j - 1)
        if prev is not None and prev.dim:
            coord = np.full(base.ncols, -1)
            coord[base.pivots] = np.arange(base.dim)[::-1]
            # prev's basis rows as coordinates: 1 at each pivot, then the tails
            r, s = np.nonzero(prev.tails.astype(bool))
            rows = np.concatenate([np.arange(prev.dim), r])
            cols = np.concatenate([prev.pivots, prev.support[s]])
            vals = np.concatenate([np.full(prev.dim, field.one), prev.tails[r, s]])
            # shifted by each variable; what lands off I_j's pivots is no coordinate
            shifts = product_positions(exponent_array(nvars, j - 1), np.eye(nvars, dtype=np.int64))
            at = coord[shifts[cols]]
            e, v = np.nonzero(at >= 0)
            rows, cols = v * prev.dim + rows[e], at[e, v]
            order = np.lexsort((cols, rows))
            spanned.absorb(SparseRows(nvars * prev.dim, rows[order], cols[order], vals[e][order]))
        new = base.dim - 1 - spanned.support[::-1]
        gens = field.zeros((new.size, base.ncols))
        gens[np.arange(new.size), base.pivots[new]] = field.one
        gens[:, base.support] = base.tails[new]
        for row in gens:
            out.append(Polynomial.from_vector(row, nvars, j, field))
    return out


# ---------------------------------------------------------------------------
# Betti numbers as Koszul homology


@lru_cache(maxsize=None)
def _koszul_layout(n, i):
    """The blocks of the i-th Koszul differential on n variables, one row per
    (i-1)-subset T (row block) and one column per variable v: is v outside T,
    the index of T + {v} among the i-subsets (column block), and is the sign
    of x_v there odd, v at an odd position of T + {v}.  Subsets are indexed
    in `combinations` order, in which T + {v} grows with v."""
    index = {S: b for b, S in enumerate(combinations(range(n), i))}
    lows = list(combinations(range(n), i - 1))
    outside = np.zeros((len(lows), n), bool)
    hi = np.zeros((len(lows), n), np.int64)
    odd = np.zeros((len(lows), n), bool)
    for rb, T in enumerate(lows):
        for v in set(range(n)) - set(T):
            S = tuple(sorted(T + (v,)))
            outside[rb, v], hi[rb, v], odd[rb, v] = True, index[S], S.index(v) % 2
    return outside, hi, odd


def _koszul_differential(quot, i, j):
    """The degree-j piece of the i-th Koszul differential over R/I as
    `SparseRows`, or None when it is empty.  Row block T, an (i-1)-subset of
    the variables, times R/I in degree j-i+1 meets column block T + {v} times
    degree j-i in ±x_v.  The nonzeros of every x_v (`mult_nonzeros`) are
    already in row order, and within a row block T + {v} grows with v, so
    offsetting them block by block emits the coordinates sorted."""
    n = quot.nvars
    if i < 1 or i > n:
        return None
    d = j - i
    h0, h1 = quot.hf(d), quot.hf(d + 1)
    if h0 == 0 or h1 == 0:
        return None
    outside, hi, odd = _koszul_layout(n, i)
    rows, var, cols, pos, neg = quot.mult_nonzeros(d)
    block, at = np.nonzero(outside[:, var])
    var = var[at]
    return SparseRows(len(outside) * h1, block * h1 + rows[at], hi[block, var] * h0 + cols[at],
                      np.where(odd[block, var], neg[at], pos[at]))


def _koszul_differential_rank(quot, i, j):
    """Rank of the degree-j piece of the i-th Koszul differential over R/I."""
    mat = _koszul_differential(quot, i, j)
    return 0 if mat is None else rank_of_rows(mat, comb(quot.nvars, i) * quot.hf(j - i), quot.field)


def betti_from_quotient(quot):
    """Graded Betti table of R/I, as graded Koszul homology dimensions; none for R/I = 0."""
    if quot.hf(0) == 0:
        raise UnitIdealError("the ideal is the unit ideal: R/I = 0 has no Betti table")
    n = quot.nvars
    s = quot.socle_degree
    ranks = {}
    for i in range(1, n + 1):
        for j in range(i, i + s + 1):
            ranks[(i, j)] = _koszul_differential_rank(quot, i, j)
    table = BettiTable()
    for i in range(0, n + 1):
        for j in range(i, i + s + 1):
            h = quot.hf(j - i)
            if h == 0:
                continue
            beta = comb(n, i) * h - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if beta < 0:
                raise ConsistencyError(f"negative homology dimension at ({i},{j})")
            if beta:
                table.set(i, j, beta)
    if table.column(0) != {0: 1}:
        raise ConsistencyError("resolution does not start from a cyclic module")
    return table


def minimal_betti_oracle(gens):
    """Full graded Betti table of R/(gens) for an Artinian quotient."""
    return betti_from_quotient(ideal_slices(gens))


# ---------------------------------------------------------------------------
# colon ideals, socle, syzygies, membership


def _kernel_row_basis(matrix_rows, ncols, field):
    """RowBasis of the kernel of the map with the given rows (shape h x ncols)."""
    reducer = RowBasis.from_rows(matrix_rows, ncols, field)
    return RowBasis(ncols, field, reducer.support, field.reduce(-reducer.tails.T))


def colon_ideal(gens, f):
    """Degreewise ((gens) : f): the kernel of multiply-by-f into the quotient.

    The generators must span an Artinian ideal; the colon is the whole ring
    from degree socle(R/(gens)) - deg f + 1 on, or earlier.
    """
    if f.is_zero():
        raise PreconditionError("cannot colon by the zero polynomial")
    gens = list(gens)
    nvars, field = ring_of([*gens, f])
    quot = ideal_slices(gens)

    def basis_at(j):
        ncols = monomial_count(nvars, j)
        return (_kernel_row_basis(quot.products_class_matrix(f, j).T, ncols, field)
                if quot.hf(j + f.degree) else RowBasis.full(ncols, field))

    return GradedQuotient(nvars, field, basis_at, max(0, quot.socle_degree - f.degree + 1))


def linked_ideal(ds, field):
    """The link (x_i^d_i) : ell^e, refused when ell^e lies in (x_i^d_i)."""
    ds.require_minimal()
    *monomials, ell_power = power_ideal(ds.degrees, ds.ell_power, field)
    return colon_ideal(monomials, ell_power)


@dataclass
class SocleReport:
    dims: dict
    is_level: bool

    @property
    def socle_degree(self):
        return max(self.dims)


def socle_dims(source):
    """Per-degree dimensions of (0 : m) in the quotient, plus the levelness verdict:
    in degree j, the kernel of the top Koszul differential, R/I in degree j to
    n copies of degree j + 1 by ±x_1, .., ±x_n."""
    quot = quotient_model(source)
    dims = {}
    for j in range(quot.socle_degree + 1):
        dim = quot.hf(j) - _koszul_differential_rank(quot, quot.nvars, j + quot.nvars)
        if dim:
            dims[j] = dim
    return SocleReport(dims, len(dims) == 1)


@dataclass
class RelationVector:
    """A first syzygy: polynomials (a_1..a_r) with sum a_i g_i = 0."""

    components: tuple

    def check(self, gens):
        return dot(self.components, gens).is_zero()


def syzygies_in_degree(gens, j):
    """Basis of the degree-j first syzygies of the given generators.

    The kernel of the Macaulay matrix, one relation per non-pivot column in
    increasing order, each scaled so that its first nonzero coefficient (in
    `macaulay_columns` order) is 1.
    """
    gens = list(gens)
    nvars, field = ring_of(gens)
    owner = np.array([g_idx for g_idx, _ in macaulay_columns(gens, j)], dtype=np.int64)
    kernel = _kernel_row_basis(macaulay_matrix(gens, j), len(owner), field)
    out = []
    for vec in kernel.full_rows():
        vec = field.reduce(vec * field.inv(vec[np.flatnonzero(vec)[0]]))
        # generator k's columns are its shifting monomials of degree j - deg g_k, in order
        rel = RelationVector(tuple(Polynomial.from_vector(vec[owner == k], nvars,
                                                          j - (g.degree or 0), field)
                                   for k, g in enumerate(gens)))
        if not rel.check(gens):
            raise ConsistencyError("kernel vector is not a relation")
        out.append(rel)
    return out


def membership(f, gens):
    """Exact degreewise ideal membership for a homogeneous polynomial."""
    gens = list(gens)
    nvars, field = ring_of([f, *gens])
    return f.is_zero() or slice_at_degree(gens, f.degree, nvars, field).contains(f.to_vector())
