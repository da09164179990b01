"""Exact coefficient fields and the exact linear algebra everything else rides on.

A field object fixes how its elements are stored and supplies the few array
operations the kernels need (`zeros`, `array`, `reduce`, `inv`, `sub_matmul`,
`safe_terms`).  GF(p), p < 2**31 prime, keeps residues in [0, p) in int64
arrays, so every product fits a 64-bit intermediate; QQ keeps normalized
`fractions.Fraction` entries in object arrays.  One elimination routine,
`_eliminate`, serves both fields, and every structure here is built on it.

Ranks take a shorter road first (after Faugère–Lachartre, PASCO 2010).  Each
nonzero row has a leading column; one row per distinct leading column, the
sparsest, gives an echelon block of k pivots with no arithmetic, on the rows
or on the columns, whichever gives more.  If no other nonzero line is left,
the rank is k.  A matrix more than half full goes to `_eliminate`.
Otherwise the other rows are reduced against that block and
rank = k + rank(S) for their Schur complement S, in every field.  Over GF(p)
with k·(p−1)² + p <= 2**53, S is formed exactly in float64 BLAS (delayed
reduction, as in FFLAS-FFPACK); over QQ and past the bound (GF(1073741789)
always) it is formed in the field by `_eliminate` run over the k pivot
columns only.  The input is never modified.

The public surface: the field classes (`PrimeField`, `RationalField`, the
instances `QQ`, `GF_DEFAULT`, `GF_PARANOIA`, and `field_from_spec`),
`rank_of_rows` for ranks, `RowBasis` for a subspace in fully reduced form
(reduction, membership, quotient classes, kernels built from its pivots and
tails), and `Accumulator`, a `RowBasis` that grows block by block.  Matrices
are plain field arrays throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import FieldMismatchError, PreconditionError

DEFAULT_PRIME = 65521
PARANOIA_PRIME = 1073741789
# columns per float64 matmul in `_schur_complement`
_SCHUR_BLOCK = 128


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class _ArrayField:
    """The array operations both fields share; each field supplies `dtype`,
    `zero`, `safe_terms` and `reduce`."""

    def zeros(self, shape):
        return np.full(shape, self.zero, dtype=self.dtype)

    def sub_matmul(self, c, a, b):
        """Set c to the reduced c - a @ b in place and return it; the inner
        dimension is summed `safe_terms` products at a time.

        Only the inner indices where a's column and b's row both have a
        nonzero, and the columns of c those rows of b reach, are touched, so
        sparse operands cost what their nonzero parts cost.
        """
        inner = np.flatnonzero((np.count_nonzero(a, axis=0) > 0) & (np.count_nonzero(b, axis=1) > 0))
        cols = np.flatnonzero(np.count_nonzero(b[inner], axis=0))
        a, b = a[:, inner], b[np.ix_(inner, cols)]
        acc = c[:, cols]
        step = min(self.safe_terms, len(inner) or 1)
        for s in range(0, len(inner), step):
            acc = self.reduce(acc - a[:, s:s + step] @ b[s:s + step])
        c[:, cols] = acc
        return c


class RationalField(_ArrayField):
    """The rationals; elements are fractions.Fraction (gcd-reduced, q > 0).

    Arrays have dtype object and hold Fraction entries only, so no division
    ever falls back to floats; sums of products never overflow.
    """

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)
    dtype = object
    safe_terms = math.inf

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def array(self, rows, ncols):
        """A fresh len(rows) x ncols array of `rows`, every entry a Fraction."""
        a = np.asarray(rows, dtype=object).reshape(len(rows), ncols)
        out = self.zeros(a.shape)
        nz = np.nonzero(a)
        out[nz] = [Fraction(x) for x in a[nz]]
        return out

    def reduce(self, a):
        return a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(_ArrayField):
    """GF(p) for a prime p < 2**31; elements are plain ints in [0, p).

    Arrays have dtype int64 and hold residues, so one product fits with room
    to spare and `safe_terms` of them can be summed (after one residue) below
    2**63 before a reduction is due.
    """

    dtype = np.int64

    def __init__(self, p):
        p = int(p)
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if p >= 2**31:
            raise PreconditionError("prime moduli must be < 2**31")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p
        self.safe_terms = 2**62 // ((p - 1) ** 2 + 1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def array(self, rows, ncols):
        """A fresh len(rows) x ncols int64 array of `rows` reduced into [0, p)."""
        a = np.asarray(rows)
        if a.dtype == object:
            a = np.array([self.coerce(x) for x in a.ravel()], dtype=np.int64)
        return (np.asarray(a, dtype=np.int64) % self.p).reshape(len(rows), ncols)

    def reduce(self, a):
        return a % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()
GF_DEFAULT = PrimeField(DEFAULT_PRIME)
GF_PARANOIA = PrimeField(PARANOIA_PRIME)


def field_from_spec(spec):
    """Parse a field description: 'rational', 'prime:p', or a bare prime."""
    if spec is None:
        return GF_DEFAULT
    if isinstance(spec, (RationalField, PrimeField)):
        return spec
    text = str(spec).strip().lower()
    if text in ("rational", "rationals", "qq", "q"):
        return QQ
    if text.startswith("prime:"):
        text = text[len("prime:"):]
    try:
        return PrimeField(int(text))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse field spec {spec!r}") from exc


def same_field(*fields):
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"mixed fields: {first} vs {f}")
    return first


# ---------------------------------------------------------------------------
# the elimination kernel


def _eliminate(a, field, full, stop=None):
    """Row-reduce the field array `a` in place and return its pivot columns.

    Pivot choice is deterministic: columns left to right, lowest remaining
    row.  Each pivot row is scaled to 1 at its pivot.  With `full`, the pivot
    column is cleared in every other row, which leaves the reduced row echelon
    form in the first rank rows; without it only the rows below are cleared,
    which is all the rank needs.  Updates touch only the pivot row's nonzero
    columns, which keeps sparse rows cheap and object arrays affordable.
    With `stop`, only the first `stop` columns are pivoted on.
    """
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols if stop is None else stop):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
        nzc = np.flatnonzero(a[r])
        prow = field.reduce(a[r, nzc] * field.inv(a[r, c]))
        a[r, nzc] = prow
        # after the swap, row r + nz[0] holds the old row r, which was zero at c
        rows = r + nz[1:]
        if full:
            rows = np.concatenate([np.flatnonzero(a[:r, c]), rows])
        if rows.size:
            block = np.ix_(rows, nzc)
            a[block] = field.reduce(a[block] - np.outer(a[rows, c], prow))
        pivots.append(c)
    return pivots


def _starts(x):
    """Mask of the entries of a sorted array that differ from the one before."""
    return np.concatenate(([True], x[1:] != x[:-1]))


def _structural_pivots(major, minor):
    """Free pivots of a matrix given by its nonzero coordinates, sorted by
    (major, minor): for each distinct leading minor index, the major line with
    the fewest nonzeros.  Returns those lines sorted by leading index, their
    leading indices, and the other nonzero lines."""
    first = np.flatnonzero(_starts(major))
    lines, lead = major[first], minor[first]
    order = np.lexsort((np.bincount(major)[lines], lead))
    new = _starts(lead[order])
    return lines[order[new]], lead[order[new]], lines[order[~new]]


def _mod(x, p):
    """x mod p in [0, p), in place, for a float64 array of integers with
    |x| + p <= 2**53.  There x / p is never rounded across an integer, so the
    quotient floor(x / p) is exact, and so is its product with p."""
    q = np.floor(x / p)
    q *= p
    x -= q
    return x


def _sub_mod(c, a, b, p):
    """c = (c - a @ b) mod p, in place, for float64 arrays of residues; exact
    while the inner dimension times (p - 1)**2, plus p, stays within 2**53."""
    c -= a @ b
    return _mod(c, p)


def _column_slab(i, j, v, nrows, start, stop):
    """The dense nrows x (stop - start) block of the entries v at (i, j),
    sorted by j, whose column is in [start, stop)."""
    lo, hi = np.searchsorted(j, (start, stop))
    out = np.zeros((nrows, stop - start))
    out[i[lo:hi], j[lo:hi] - start] = v[lo:hi]
    return out


def _schur_complement(vals, i, j, k, nrest, nother, p):
    """S = C - Y0 T^-1 B mod p for the matrix [[T, B], [Y0, C]] given by its
    nonzero residues `vals` at (i, j), where T is k x k and upper triangular
    with a nonzero diagonal.  `vals` is overwritten.

    Only Y (nrest x k), C and S (nrest x nother) are held dense; T and B are
    unpacked one block of columns at a time.
    """
    top, left = i < k, j < k
    diag = top & (i == j)
    heads = vals[diag].tolist()
    inverse = {x: pow(int(x), -1, p) for x in set(heads)}
    inv = np.empty(k)
    inv[i[diag]] = [inverse[x] for x in heads]
    vals[top] = _mod(vals[top] * inv[i[top]], p)  # T is now unit upper triangular
    by_col = np.argsort(j, kind="stable")
    i, j, vals, top, left = i[by_col], j[by_col], vals[by_col], top[by_col], left[by_col]
    y = np.zeros((nrest, k), order="F")
    y[i[~top & left] - k, j[~top & left]] = vals[~top & left]
    c = np.zeros((nrest, nother))
    c[i[~top & ~left] - k, j[~top & ~left] - k] = vals[~top & ~left]
    t = i[top & left], j[top & left], vals[top & left]
    b = i[top & ~left], j[top & ~left] - k, vals[top & ~left]
    # Y T = Y0: one matmul per block of columns for the earlier blocks, then
    # back-substitution on the block's few nonzeros.
    used = np.zeros(k, bool)  # the columns of Y solved so far that hold a nonzero
    for s in range(0, k, _SCHUR_BLOCK):
        e = min(s + _SCHUR_BLOCK, k)
        ts = _column_slab(*t, e, s, e)
        inner = np.flatnonzero(ts[:s].any(axis=1) & used[:s])
        if inner.size:
            _sub_mod(y[:, s:e], y[:, inner], ts[inner], p)
        for q in range(s + 1, e):
            inner = s + np.flatnonzero(ts[s:q, q - s])
            if inner.size:
                _sub_mod(y[:, q], y[:, inner], ts[inner, q - s], p)
        used[s:e] = y[:, s:e].any(axis=0)
    inner = np.flatnonzero(used & (np.bincount(b[0], minlength=k) > 0))
    y = y[:, inner]
    for s in range(0, nother, _SCHUR_BLOCK):
        e = min(s + _SCHUR_BLOCK, nother)
        _sub_mod(c[:, s:e], y, _column_slab(*b, k, s, e)[inner], p)
    return c


def _exact_schur_complement(g, k, field):
    """S = C - Y0 T^-1 B for the field array g = [[T, B], [Y0, C]], where T is
    k x k and upper triangular with a nonzero diagonal; g is overwritten.

    `_eliminate` over the first k columns pivots on T's diagonal in order: the
    rows of T below a pivot are zero in its column, so only the Y0 rows are
    cleared, and the trailing block is left holding S.
    """
    _eliminate(g, field, full=False, stop=k)
    return g[k:, k:]


def _rank(a, field, owned):
    """Rank of the field array `a`, which is only read unless `owned`.

    The pivots of a structural echelon block (`_structural_pivots` on the rows
    of `a` or on its columns, whichever gives more) count without arithmetic.
    The other lines go into the Schur complement S of the pivot block, and
    rank = k + rank(S).  S is formed in float64 BLAS over GF(p) where that is
    exact (`_schur_complement`), else in the field (`_exact_schur_complement`).
    Dense matrices are eliminated directly.
    """
    nrows, ncols = a.shape
    flat = np.flatnonzero(a.astype(bool))  # astype: 3x faster than != 0 on Fractions
    if not flat.size:
        return 0
    rows, cols = np.divmod(flat, ncols)
    piv, lead, rest = _structural_pivots(rows, cols)
    by_col = np.argsort(cols, kind="stable")
    t_piv, t_lead, t_rest = _structural_pivots(cols[by_col], rows[by_col])
    lines = a
    if t_piv.size > piv.size:
        piv, lead, rest, rows, cols, nrows, ncols = t_piv, t_lead, t_rest, cols, rows, ncols, nrows
        lines = a.T
    k = len(piv)
    if not rest.size:
        # the pivot lines, sorted by leading index, are already in echelon form
        return k
    # A matrix more than half full has few structural pivots, and each level
    # of the recursion would peel off only those few at a fixed cost, so it is
    # eliminated directly.
    if 2 * flat.size > a.size:
        del flat, rows, cols, by_col  # free the coordinates before the elimination's peak
        return len(_eliminate(np.asarray(a, field.dtype) if owned else np.array(a, field.dtype),
                              field, full=False))
    # number the pivot lines, then the rest; the pivot columns, then the others
    live = np.zeros(ncols, bool)
    live[cols] = True
    live[lead] = False
    row_order, col_order = np.concatenate([piv, rest]), np.concatenate([lead, np.flatnonzero(live)])
    p = field.characteristic
    # Exactness: every float64 product in `_schur_complement` is at most
    # (p - 1)**2 and every sum has at most k terms, so with
    # k·(p−1)² + p <= 2**53 all partial sums and the reductions in `_mod` are
    # exact integers.
    if p and k * (p - 1) ** 2 + p <= 2**53:
        row_at = np.empty(nrows, np.int64)
        row_at[row_order] = np.arange(row_order.size)
        col_at = np.empty(ncols, np.int64)
        col_at[col_order] = np.arange(col_order.size)
        schur = _schur_complement(np.take(a, flat).astype(np.float64), row_at[rows], col_at[cols],
                                  k, rest.size, col_order.size - k, p)
    else:
        # one gather in block order; rows then columns would hold two copies
        schur = _exact_schur_complement(lines[np.ix_(row_order, col_order)], k, field)
    return k + _rank(schur, field, owned=True)


def rank_of_rows(rows, ncols, field):
    """Rank of a stack of coefficient rows (an array or a list of rows).

    `rows` is never modified.  An int64 array already reduced into [0, p) is
    read in place; anything else goes through `field.array` first.  The rank
    is k, the number of structural pivots, plus the rank of their Schur
    complement: in float64 over GF(p) with k·(p−1)² + p <= 2⁵³, in the field
    over QQ and past the bound (always for GF(1073741789)).  A matrix more
    than half full comes from `_eliminate`, unless the structural pivots
    already account for every nonzero line.
    """
    p = field.characteristic
    if (p and isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2
            and rows.shape[1] == ncols and rows.size and rows.min() >= 0 and rows.max() < p):
        return _rank(rows, field, owned=False)
    return _rank(field.array(rows, ncols), field, owned=True)


# ---------------------------------------------------------------------------
# reduced row bases


class RowBasis:
    """A subspace of k^ncols in fully reduced form.

    Every basis row equals 1 at its own pivot column, 0 at all other pivot
    columns, and is otherwise supported on the complementary ("support")
    columns; `tails` holds exactly that complementary part, one row per pivot.
    Reduction of any vector therefore leaves a residual supported on the
    support columns, which doubles as the coordinate vector in the quotient.
    """

    __slots__ = ("ncols", "field", "pivots", "support", "tails")

    def __init__(self, ncols, field, pivots, support, tails):
        self.ncols = ncols
        self.field = field
        self.pivots = tuple(pivots)
        self.support = tuple(support)
        self.tails = tails

    @classmethod
    def from_rows(cls, rows, ncols, field):
        a = field.array(rows, ncols)
        pivots = _eliminate(a, field, full=True)
        pivot_set = set(pivots)
        support = [c for c in range(ncols) if c not in pivot_set]
        return cls(ncols, field, pivots, support, a[:len(pivots)][:, support])

    @classmethod
    def full(cls, ncols, field):
        return cls(ncols, field, range(ncols), (), field.zeros((ncols, 0)))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def codim(self):
        return len(self.support)

    def reduce(self, vec):
        """Residual of `vec` modulo the subspace, as coordinates on `support`."""
        fld = self.field
        vec = fld.array([vec], self.ncols)
        return fld.sub_matmul(vec[:, list(self.support)], vec[:, list(self.pivots)], self.tails)[0]

    def contains(self, vec):
        return not np.count_nonzero(self.reduce(vec))

    def full_rows(self):
        """Reconstruct the basis as full-width coefficient rows."""
        out = self.field.zeros((self.dim, self.ncols))
        out[np.arange(self.dim), list(self.pivots)] = self.field.one
        out[:, list(self.support)] = self.tails
        return out

    def class_matrix(self):
        """Matrix (ncols x codim) sending each unit vector to its residual.

        Row c is the coordinate vector of e_c in the quotient k^ncols / span:
        a unit row for support columns, minus the tail for pivot columns.
        """
        out = self.field.zeros((self.ncols, self.codim))
        out[list(self.support), np.arange(self.codim)] = self.field.one
        out[list(self.pivots)] = self.field.reduce(-self.tails)
        return out


class Accumulator(RowBasis):
    """A RowBasis that grows: absorbs blocks of rows, keeping the fully reduced
    basis of their span (sorted pivots, support and tails) that
    `RowBasis.from_rows` would give on all rows absorbed so far."""

    __slots__ = ()

    def __init__(self, ncols, field):
        super().__init__(ncols, field, (), range(ncols), field.zeros((0, ncols)))

    def absorb(self, rows):
        """Add the span of `rows` (a block, one row per vector); return the
        number of new pivots, or None if the block adds none."""
        fld = self.field
        a = fld.array(rows, self.ncols)
        support = list(self.support)
        block = fld.sub_matmul(a[:, support], a[:, list(self.pivots)], self.tails)
        new = _eliminate(block, fld, full=True)
        if not new:
            return None
        block = block[:len(new)]
        fld.sub_matmul(self.tails, self.tails[:, new], block)
        pivots = list(self.pivots) + [support[q] for q in new]
        order = np.argsort(pivots, kind="stable")
        new_set = set(new)
        keep = [k for k in range(len(support)) if k not in new_set]
        self.pivots = tuple(pivots[k] for k in order)
        self.support = tuple(support[k] for k in keep)
        self.tails = np.concatenate([self.tails[:, keep], block[:, keep]])[order]
        return len(new)

