"""Exact coefficient fields and the exact linear algebra everything else rides on.

Field elements are plain numbers: an int in [0, p) for GF(p), a
`fractions.Fraction` for QQ, so Python's own operators do the scalar
arithmetic.  A field object supplies only `coerce` (a number into that form)
and `inv` as scalar operations, next to the few array operations the kernels
need (`zeros`, `array`, `reduce`, `sub_matmul`) and the elimination steps
(`numerators`, `pivot_step`, `pivot_rows`).  GF(p), p < 2**31 prime, keeps
residues in [0, p) in int64 arrays, and its `sub_matmul` is one product of
the whole operands, exact in float64 (`_sub_mod`); QQ keeps normalized
Fraction entries in object arrays, and its `sub_matmul`, a Fraction multiply
per product, touches the operands' nonzero lines only.  One elimination
routine, `_eliminate`, serves both fields, and every structure here is built
on it.  Over QQ it does no Fraction arithmetic: each row is first scaled to
integers (which changes neither the rank nor the reduced row echelon form),
eliminated fraction-free with each row's content divided out after each
step, and divided by its pivot only where a reduced basis is handed out.
The integers are int64 while every entry stays below `_INT64_BOUND` = 2**31
in absolute value, so that each update piv·x − y·z stays below
2·(2**31 − 1)**2 < 2**63; one max checks the bound after every step, and
where it fails, that step is redone on a copy of the array in Python ints,
which carries the rest of the elimination: the int64 steps before it are
kept.

Ranks take a shorter road first (after Faugère–Lachartre, PASCO 2010), and
work on a matrix's nonzero coordinates.  Each nonzero row has a leading
column; one row per distinct leading column, the sparsest, gives an echelon
block of k pivots with no arithmetic, on the rows or on the columns,
whichever gives more.  If no other nonzero line, or no other nonzero column,
is left, the rank is k.  A matrix more than half full goes to `_eliminate`.
Otherwise the other rows are reduced against that block and rank = k +
rank(S) for their Schur complement S, in every field, with S handed on as
coordinates.  Over every GF(p), S is formed exactly in float64 BLAS (delayed
reduction, as in FFLAS-FFPACK) one row block at a time: only one block of S,
and one of the triangular solve that feeds it, each of at most
`_SCHUR_CELLS` cells, is ever dense (GBLA likewise never forms the whole
Schur complement densely: Boyer, Eder, Faugère, Lachartre and Martani, ISSAC
2016).  The solve against the pivot block T goes by its level schedule (as
in Anderson–Saad level scheduling): a pivot column that reads no other is
level 0, any other is one above the highest it reads, and each level is
solved by products alone, one per chunk of its columns.  Each product is one
BLAS call where a sum of k products of residues stays an exact float64
integer, k·(p−1)² + p <= 2**53 (GF(65521) up to k = 2**21); past that bound
(GF(1073741789) always) the second factor is split into 15-bit limbs, each
limb's product is reduced after every `_limb_terms` inner terms, with
t·(p−1)·(2**15−1) + 2p <= 2**53, and the limbs are combined by Horner's rule
mod p (`_limbs`, `_sub_mod`).  Over QQ, S is formed by `_eliminate` run over
the k pivot columns only of the block matrix filled densely, on the integers,
up to row scaling, under the int64 bound above.  The input is never modified.

The reduced row echelon form of `SparseRows` over GF(p) (`_rref`, for
`Accumulator.absorb`) takes the same road, on the rows.  The leading column
of a structural pivot row is a pivot: that row is zero before it, so no
earlier columns span it.  The other rows lead inside those columns, so the
other pivots are those of S, reduced recursively, and the pivot rows' tails
take one triangular solve by T's level schedule.  `absorb` takes
`SparseRows` only; QQ and any level more than half full stay on
`_eliminate`.

The public surface: the field classes (`PrimeField`, `RationalField`, the
instances `QQ`, `GF_DEFAULT`, `GF_PARANOIA`, and `field_from_spec`),
`rank_of_rows` for ranks of dense rows or of `SparseRows` (a matrix given by
its nonzero coordinates), `RowBasis` for a subspace in fully reduced form
(reduction, membership, quotient classes, kernels built from its pivots and
tails), and `Accumulator`, a `RowBasis` that grows block by block.  Apart
from `SparseRows`, matrices are plain field arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FieldMismatchError, PreconditionError

DEFAULT_PRIME = 65521
PARANOIA_PRIME = 1073741789
# `_schur_complement`: columns per level chunk of T and per slab of B, and
# the cells of one dense row block of Y or of S (2 MB of float64)
_SCHUR_BLOCK = 128
_SCHUR_CELLS = 2**18
# bits per limb where `_sub_mod` splits a factor past the one-product bound
_LIMB_BITS = 15
# every entry of an int64 integer elimination over QQ stays below this in
# absolute value (`RationalField.pivot_step`)
_INT64_BOUND = 2**31


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
    """The array constructor both fields share; each field supplies `dtype`,
    `zero`, `reduce` and its own `sub_matmul`: one whole-operand BLAS product
    over GF(p), the nonzero lines only over QQ."""

    def zeros(self, shape):
        return np.full(shape, self.zero, dtype=self.dtype)


class RationalField(_ArrayField):
    """The rationals; elements are fractions.Fraction (gcd-reduced, q > 0).

    Arrays have dtype object and hold Fraction entries only, so no division
    ever falls back to floats; sums of products never overflow.

    Eliminations do no Fraction arithmetic.  `numerators` scales each row to
    integers, which changes neither the rank nor the reduced row echelon form,
    and `pivot_step` keeps them integers (fraction-free, after Bareiss, Math.
    Comp. 22, 1968), so a reduced row is divided by its pivot only where a
    basis is handed out (`pivot_rows`).  The integers are int64 while every
    entry stays below `_INT64_BOUND` in absolute value; the step that would
    pass it moves the array to Python ints in an object array
    (`pivot_step`).
    """

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)
    dtype = object

    def coerce(self, x):
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def array(self, rows, ncols):
        """A fresh len(rows) x ncols array of `rows`, every entry a Fraction."""
        a = np.asarray(rows, dtype=object).reshape(len(rows), ncols)
        out = self.zeros(a.shape)
        nz = np.nonzero(a)
        out[nz] = [Fraction(x) for x in a[nz]]
        return out

    def reduce(self, a):
        return a

    def sub_matmul(self, c, a, b):
        """Set c to c - a @ b in place and return it.  Each product is a
        Fraction multiply, so only the inner indices where a's column and b's
        row both have a nonzero, and the columns of c those rows reach, count."""
        inner = np.flatnonzero((np.count_nonzero(a, axis=0) > 0) & (np.count_nonzero(b, axis=1) > 0))
        cols = np.flatnonzero(np.count_nonzero(b[inner], axis=0))
        c[:, cols] -= a[:, inner] @ b[np.ix_(inner, cols)]
        return c

    def numerators(self, rows, vals):
        """The nonzero rationals `vals` in the sorted `rows` as integers: each
        row times the lcm of its denominators, then divided by the gcd of the
        products.  int64 if every one is below `_INT64_BOUND` in absolute
        value, else Python ints in an object array."""
        if not vals.size:
            return np.zeros(0, np.int64)
        first = _starts(rows)
        starts, row = np.flatnonzero(first), np.cumsum(first) - 1
        vals = vals.tolist()
        num = np.array([x.numerator for x in vals], object)
        den = np.array([x.denominator for x in vals], object)
        num *= np.lcm.reduceat(den, starts)[row] // den
        num //= np.gcd.reduceat(num, starts)[row]
        if np.abs(num).max() >= _INT64_BOUND:
            return num
        return num.astype(np.int64)

    def row_numerators(self, a):
        """The array `a` with each row scaled to integers, as by `numerators`."""
        rows, cols = np.nonzero(a.astype(bool))
        vals = self.numerators(rows, a[rows, cols])
        out = np.zeros(a.shape, vals.dtype)
        out[rows, cols] = vals
        return out

    def pivot_step(self, a, r, c, rows):
        """Clear column c of the integer array `a` in `rows` with pivot row r:
        row_i <- a[r, c]·row_i − a[i, c]·row_r on the union of their nonzero
        columns, then row_i is divided by the gcd of its entries.  Returns the
        array that holds the result: `a`, or a copy of it in Python ints.

        Exactness: in int64 every entry is below `_INT64_BOUND` = 2**31 in
        absolute value, so each new entry is at most 2·(2**31 − 1)**2 < 2**63;
        one max over the new entries checks that they are still below the
        bound.  Where one is not, nothing is written, and the step is redone
        on `a.astype(object)`, whose Python ints keep every later step exact.
        """
        if not rows.size:
            return a
        cols = np.flatnonzero(a[r].astype(bool) | a[rows].astype(bool).any(axis=0))
        block = np.ix_(rows, cols)
        new = a[r, c] * a[block] - np.outer(a[rows, c], a[r, cols])
        content = np.gcd.reduce(new, axis=1)
        content[content == 0] = 1
        new //= content[:, None]
        if new.dtype != object and np.abs(new).max() >= _INT64_BOUND:
            return self.pivot_step(a.astype(object), r, c, rows)
        a[block] = new
        return a

    def pivot_rows(self, a, pivots):
        """The rows of `a`, each divided by its entry at its pivot, as a
        Fraction array: the reduced rows once `_eliminate` has run with `full`."""
        out = self.zeros(a.shape)
        rows, cols = np.nonzero(a.astype(bool))
        heads = a[np.arange(len(pivots)), pivots].tolist()
        out[rows, cols] = [Fraction(x, heads[i])
                           for x, i in zip(a[rows, cols].tolist(), rows.tolist())]
        return out

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(_ArrayField):
    """GF(p) for a prime p < 2**31; elements are plain ints in [0, p).

    Arrays have dtype int64 and hold residues, so a product of two residues,
    or a sum of fewer than 2**32 of them, stays below 2**63.  A sum of
    products goes to `_sub_mod`, exact in float64.
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

    def coerce(self, x):
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def array(self, rows, ncols):
        """A fresh len(rows) x ncols int64 array of `rows` reduced into [0, p)."""
        a = np.asarray(rows)
        if a.dtype.kind == "u":
            a = a % self.p  # exact in the unsigned type; int64 wraps from 2**63
        elif a.dtype.kind not in "ib":
            # objects, or the float64 numpy makes of ints past int64 mixed with
            # small ones: each entry is coerced from the original number
            items = np.asarray(rows, dtype=object).ravel()
            a = np.array([self.coerce(x) for x in items], dtype=np.int64)
        return (np.asarray(a, dtype=np.int64) % self.p).reshape(len(rows), ncols)

    def reduce(self, a):
        return a % self.p

    def sub_matmul(self, c, a, b):
        """Set the int64 residues c to (c - a @ b) mod p in place and return
        it: one product of the whole operands, exact in float64 (`_sub_mod`,
        with b split into limbs past `_limbs`' bound)."""
        p = self.p
        c[...] = _sub_mod(c.astype(np.float64), a.astype(np.float64), _limbs(b, p, a.shape[1]), p)
        return c

    def numerators(self, rows, vals):
        """Residues need no scaling: `vals` as they are."""
        return vals

    def row_numerators(self, a):
        """Residues need no scaling: `a` as it is."""
        return a

    def pivot_step(self, a, r, c, rows):
        """Scale pivot row r of `a` to 1 at column c and clear column c in
        `rows`, on the pivot row's nonzero columns."""
        nzc = np.flatnonzero(a[r])
        prow = self.reduce(a[r, nzc] * self.inv(a[r, c]))
        a[r, nzc] = prow
        if rows.size:
            block = np.ix_(rows, nzc)
            a[block] = self.reduce(a[block] - np.outer(a[rows, c], prow))
        return a

    def pivot_rows(self, a, pivots):
        """`_eliminate` has already scaled every pivot to 1."""
        return a

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
    """Parse a field description: 'rational', 'prime:p', or a bare prime; an
    absent or empty one means GF_DEFAULT."""
    if not spec:
        return GF_DEFAULT
    if isinstance(spec, (RationalField, PrimeField)):
        return spec
    text = str(spec).strip().lower()
    if text in ("rational", "rationals", "qq", "q"):
        return QQ
    if text.startswith("prime:"):
        text = text[len("prime:"):]
    try:
        p = int(text)
    except ValueError as exc:
        raise PreconditionError(f"cannot parse field spec {spec!r}") from exc
    return PrimeField(p)


def same_field(*fields):
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"mixed fields: {first} vs {f}")
    return first


# ---------------------------------------------------------------------------
# the elimination kernel


def _eliminate(a, field, full, stop=None):
    """Row-reduce the array `a` in place; return it, or its copy in Python
    ints past the int64 bound over QQ (`RationalField.pivot_step`), and its
    pivot columns.

    Pivot choice is deterministic: columns left to right, lowest remaining
    row.  The field's `pivot_step` clears each pivot column: over GF(p) `a`
    holds residues and each pivot row is scaled to 1 at its pivot, over QQ
    `a` holds integers (`RationalField.numerators`) and every row stays an
    integer multiple of what GF(p) arithmetic would leave there.  With
    `full`, the pivot column is cleared in every other row, which leaves the
    reduced row echelon form, up to row scaling over QQ (`pivot_rows`), in
    the first rank rows; without it only the rows below are cleared, which is
    all the rank needs.  With `stop`, only the first `stop` columns are
    pivoted on.
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
        # after the swap, row r + nz[0] holds the old row r, which was zero at c
        rows = r + nz[1:]
        if full:
            rows = np.concatenate([np.flatnonzero(a[:r, c]), rows])
        a = field.pivot_step(a, r, c, rows)
        pivots.append(c)
    return a, pivots


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
    quotient floor(x / p) is exact, and so is its product with p.  `_sub_mod`
    keeps every value it reduces within that bound, for every p < 2**31: one
    product where k·(p−1)² + p <= 2**53, else limbs and chunks."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _limbs(v, p, terms):
    """The int64 residues v as float64 limbs, most significant first, stacked
    on a new first axis.  Where a sum of `terms` products of residues is an
    exact float64 integer, terms·(p − 1)² + p <= 2**53, that is v alone;
    else the limbs v_l < 2**w, w = `_LIMB_BITS`, with v = Σ_l v_l·2**(w·l)."""
    if terms * (p - 1) ** 2 + p <= 2**53:
        return v[None].astype(np.float64)
    top = _LIMB_BITS * (((p - 1).bit_length() - 1) // _LIMB_BITS)
    return np.stack([(v >> s) & (2**_LIMB_BITS - 1)
                     for s in range(top, -1, -_LIMB_BITS)]).astype(np.float64)


def _limb_terms(p):
    """Inner terms t per product with a limb before a reduction is due:
    t·(p − 1)·(2**w − 1) + 2p <= 2**53 (256 for GF(1073741789))."""
    return (2**53 - 2 * p) // ((p - 1) * (2**_LIMB_BITS - 1))


def _sub_mod(c, a, b, p):
    """c = (c - a @ B) mod p, in place, for float64 arrays of residues c and a,
    and B given by its limbs b (`_limbs`, over at least a's inner terms).

    Exactness: where b is one limb and a's inner terms are within `_limbs`'
    bound, a @ B is summed in one product.  Else every limb is below 2**w,
    and each limb's product a @ b_l is summed `_limb_terms` inner terms at a
    time, each chunk added to the reduced sum so far and reduced again, so
    every partial sum stays below t·(p − 1)·(2**w − 1) + p; the limbs' sums
    are combined by Horner's rule, acc = (acc·2**w + part_l) mod p, below
    p·2**w + p.  Every float64 value is then an exact integer within
    2**53 − p, where `_mod` is exact.
    """
    if len(b) == 1 and a.shape[1] * (p - 1) ** 2 + p <= 2**53:
        c -= a @ b[0]
        return _mod(c, p)
    step = _limb_terms(p)
    parts = np.zeros((len(b), *c.shape))
    for s in range(0, a.shape[1], step):
        parts += a[:, s:s + step] @ b[:, s:s + step]
        _mod(parts, p)
    acc = parts[0]
    for part in parts[1:]:
        acc *= 2**_LIMB_BITS
        acc += part
        _mod(acc, p)
    c -= acc
    return _mod(c, p)


def _column_slab(i, j, v, nrows, start, stop):
    """The dense nrows x (stop - start) block of the entries at (i, j), sorted
    by j, whose column is in [start, stop), for each limb in v (`_limbs`)."""
    lo, hi = np.searchsorted(j, (start, stop))
    out = np.zeros((len(v), nrows, stop - start))
    out[:, i[lo:hi], j[lo:hi] - start] = v[:, lo:hi]
    return out


def _levels(a, q, k):
    """The dependency level of each column of a k x k unit upper triangular T
    with its off-diagonal nonzeros at (a, q), a < q: 0 for a column with none,
    else 1 + the highest level among the columns a it reads.  A column is at
    level L or above when it reads one at level L - 1 or above, so each level
    takes one vectorized pass: depth + 1 passes."""
    level = np.zeros(k, np.int64)
    deep = np.ones(k, bool)  # the columns at the current level or above
    while True:
        reads = deep[a]
        if not reads.any():
            return level
        deep = np.zeros(k, bool)
        deep[q[reads]] = True
        level += deep


def _level_schedule(i, j, v, k):
    """Y T = Y0, for T the k x k unit upper triangular matrix with its
    off-diagonal entries at (i, j), given by their limbs v (`_limbs`), as a
    list of steps (cols, rows, block): Y[:, cols] -= Y[:, rows] @ block, in
    order, with the block's limbs stacked on its first axis.

    The columns of one level depend only on lower levels, so each level is
    solved by products alone, at most `_SCHUR_BLOCK` columns at a time, and
    `rows` are the distinct earlier columns the chunk reads.
    """
    level = _levels(i, j, k)
    cols = np.argsort(level, kind="stable")  # by level, then index
    at = np.empty(k, np.int64)
    at[cols] = np.arange(k)
    pos = at[j]
    order = np.argsort(pos, kind="stable")
    i, v, pos = i[order], v[:, order], pos[order]
    ends = np.searchsorted(level[cols], np.arange(level.max(initial=0) + 2))
    steps = []
    for lo, hi in zip(ends[1:], ends[2:]):  # levels 1 and up
        for s in range(lo, hi, _SCHUR_BLOCK):
            e = min(s + _SCHUR_BLOCK, hi)
            a, b = np.searchsorted(pos, (s, e))
            rows = np.flatnonzero(np.bincount(i[a:b]))
            block = np.zeros((len(v), rows.size, e - s))
            block[:, np.searchsorted(rows, i[a:b]), pos[a:b] - s] = v[:, a:b]
            steps.append((cols[s:e], rows, block))
    return steps


def _solve(y, steps, p):
    """Y T = Y0 in place for the float64 residues y = Y0, by T's level schedule
    `steps` (`_level_schedule`), skipping the steps that read only zeros."""
    for cols, rows, block in steps:
        x = y[:, rows]
        if x.any():
            y[:, cols] = _sub_mod(y[:, cols], x, block, p)
    return y


def _schur_complement(vals, i, j, k, nrest, nother, p):
    """S = C - Y0 T^-1 B mod p, as coordinates: the nonzero int64 residues of
    S with their rows and columns, sorted by (row, column), for the matrix
    [[T, B], [Y0, C]] given by its nonzero int64 residues `vals` at (i, j),
    where T is k x k and upper triangular with a nonzero diagonal.

    Y T = Y0 is solved on all k columns by the level schedule of T
    (`_level_schedule`), built once, and S = C - Y B is formed from the
    columns of Y = Y0 T^-1 that meet B, with B unpacked `_SCHUR_BLOCK` columns
    at a time.  Each row of Y and S depends only on its own rows of Y0 and C,
    so the rest rows go through in blocks of `_SCHUR_CELLS` // max(k, nother)
    rows: only one row block of Y and one of S are ever dense, and
    each block of S is emitted as coordinates before the next is formed.  In a
    block, a level step whose columns of Y read only zeros is skipped, and B
    is unpacked only in the rows of the nonzero columns of Y and only in the
    slabs those rows reach.  The entries of T and B are split into limbs once
    per call (`_limbs`, for sums of at most k inner terms), and every level
    block and slab of B is built from those limbs.
    """
    top, left = i < k, j < k
    c = ~top & ~left
    ci, cj, cv = i[c] - k, j[c] - k, vals[c]
    t, d, b, y0 = top & left & (i != j), top & (i == j), top & ~left, ~top & left
    diag = np.empty(k, np.int64)
    diag[i[d]] = vals[d]
    ti, tj, tv = i[t], j[t], vals[t]
    bi, bj, bv = i[b], j[b] - k, vals[b]
    yi, yj, yv = i[y0] - k, j[y0], vals[y0]
    del i, j, vals, top, left, t, d, b, y0, c  # `_rank` makes i and j for this call
    meets_b = np.zeros(k, bool)  # the pivot columns whose rows hold B
    meets_b[bi] = True
    heads = diag.tolist()
    # dividing the rows of T and B by T's diagonal makes T unit upper
    # triangular; in int64, where each product, below p**2 < 2**62, is exact
    inverse = {x: pow(x, -1, p) for x in set(heads)}
    inv = np.array([inverse[x] for x in heads])
    steps = _level_schedule(ti, tj, _limbs(tv * inv[ti] % p, p, k), k)
    order = np.argsort(bj, kind="stable")  # B by column, for `_column_slab`
    b = bi[order], bj[order], _limbs(bv[order] * inv[bi[order]] % p, p, k)
    step = max(1, _SCHUR_CELLS // max(k, nother, 1))
    out = [(np.zeros(0, np.int64),) * 3]
    for r in range(0, nrest, step):
        e = min(r + step, nrest)
        mine = (ci >= r) & (ci < e)
        s = np.zeros((e - r, nother))
        s[ci[mine] - r, cj[mine]] = cv[mine]
        mine = (yi >= r) & (yi < e)
        y = np.zeros((e - r, k), order="F")
        y[yi[mine] - r, yj[mine]] = yv[mine]
        _solve(y, steps, p)
        inner = np.flatnonzero(y.any(axis=0) & meets_b)
        # keep only the nonzero columns of Y that meet B, compacted in place:
        # inner[n] >= n, so a block is written only over columns no later
        # block reads
        for t in range(0, inner.size, _SCHUR_BLOCK):
            cols = inner[t:t + _SCHUR_BLOCK]
            y[:, t:t + cols.size] = y[:, cols]
        y = y[:, :inner.size]
        # the entries of B in those rows, renumbered as in y, and only the
        # slabs they reach
        at = np.full(k, -1)
        at[inner] = np.arange(inner.size)
        mine = at[b[0]] >= 0
        part = at[b[0][mine]], b[1][mine], b[2][:, mine]
        for t in np.flatnonzero(np.bincount(part[1] // _SCHUR_BLOCK)) * _SCHUR_BLOCK:
            u = min(t + _SCHUR_BLOCK, nother)
            _sub_mod(s[:, t:u], y, _column_slab(*part, inner.size, t, u), p)
        si, sj = np.nonzero(s.astype(bool))
        out.append((si + r, sj, s[si, sj].astype(np.int64)))
    return tuple(np.concatenate(x) for x in zip(*out))


def _exact_schur_complement(g, k, field):
    """S = C - Y0 T^-1 B for the array g = [[T, B], [Y0, C]], where T is k x k
    and upper triangular with a nonzero diagonal; g may be overwritten.  Over
    QQ, the one field `_rank` sends here, g holds integers
    (`RationalField.numerators`) and S comes back up to row scaling, which
    keeps its rank, in int64 or, past `_INT64_BOUND`, in Python ints; over
    GF(p), where it is the tests' reference for `_schur_complement`, g holds
    residues and S is exact.

    `_eliminate` over the first k columns pivots on T's diagonal in order: the
    rows of T below a pivot are zero in its column, so only the Y0 rows are
    cleared, and the trailing block is left holding S.
    """
    return _eliminate(g, field, full=False, stop=k)[0][k:, k:]


@dataclass
class SparseRows:
    """A matrix with `nrows` rows given by coordinates: the nonzero field
    elements `vals` at (`rows`, `cols`), sorted by row, then column.

    Like a list of rows it has a length, the row count, and iterates over its
    rows, here each row's nonzero values.
    """

    nrows: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __len__(self):
        return self.nrows

    def __iter__(self):
        ends = np.searchsorted(self.rows, np.arange(self.nrows + 1)).tolist()
        return (self.vals[a:b] for a, b in zip(ends, ends[1:]))


def _coordinates(a):
    """The nonzero entries of the dense array `a`, sorted by (row, column),
    as rows, columns and values."""
    rows, cols = np.nonzero(a.astype(bool))
    return rows, cols, a[rows, cols]


def _rank(rows, cols, vals, nrows, ncols, field):
    """Rank of the nrows x ncols matrix with the nonzero entries `vals` at
    (`rows`, `cols`), sorted by (row, column): residues over GF(p), integers
    over QQ (`RationalField.numerators`).

    The pivots of a structural echelon block (`_structural_pivots` on the rows
    or on the columns, whichever gives more) count without arithmetic.  The
    other lines go into the Schur complement S of the pivot block, and
    rank = k + rank(S), ranked here from S's coordinates.  S is formed in
    float64 BLAS over every GF(p) (`_schur_complement`, exact by `_sub_mod`'s
    limb and chunk bound), where only one row block of S and one of Y are
    ever dense, and by `_eliminate` over QQ (`_exact_schur_complement`, on the
    block matrix filled densely from the coordinates).  A matrix more than
    half full is eliminated densely.
    """
    if not vals.size:
        return 0
    piv, lead, rest = _structural_pivots(rows, cols)
    by_col = np.argsort(cols, kind="stable")
    t_piv, t_lead, t_rest = _structural_pivots(cols[by_col], rows[by_col])
    del by_col  # free it before the Schur complement's peak
    if t_piv.size > piv.size:
        piv, lead, rest, rows, cols, nrows, ncols = t_piv, t_lead, t_rest, cols, rows, ncols, nrows
    k = len(piv)
    live = np.zeros(ncols, bool)  # the nonzero columns besides the leading ones
    live[cols] = True
    live[lead] = False
    if not (rest.size and live.any()):
        # the pivot lines, sorted by leading index, are already in echelon
        # form, and with no other nonzero line or column they span the rest
        return k
    # A matrix more than half full has few structural pivots, and each level
    # of the recursion would peel off only those few at a fixed cost, so it is
    # eliminated directly.
    if 2 * vals.size > nrows * ncols:
        a = np.zeros((nrows, ncols), vals.dtype)
        a[rows, cols] = vals
        return len(_eliminate(a, field, full=False)[1])
    # number the pivot lines, then the rest; the pivot columns, then the others
    row_order, col_order = np.concatenate([piv, rest]), np.concatenate([lead, np.flatnonzero(live)])
    row_at = np.empty(nrows, np.int64)
    row_at[row_order] = np.arange(row_order.size)
    col_at = np.empty(ncols, np.int64)
    col_at[col_order] = np.arange(col_order.size)
    nrest, nother = rest.size, col_order.size - k
    p = field.characteristic
    # Exactness: every product in `_schur_complement` goes through `_sub_mod`,
    # whose sums of at most k terms stay exact float64 integers for every
    # p < 2**31 (`_limbs`)
    if p:
        schur = _schur_complement(vals, row_at[rows], col_at[cols], k, nrest, nother, p)
    else:
        g = np.zeros((k + nrest, k + nother), vals.dtype)
        g[row_at[rows], col_at[cols]] = vals
        schur = _coordinates(_exact_schur_complement(g, k, field))
        del g
    # only S's coordinates are needed below this level
    del piv, lead, rest, t_piv, t_lead, t_rest, live, row_order, col_order, row_at, col_at
    return k + _rank(*schur, nrest, nother, field)


def rank_of_rows(rows, ncols, field):
    """Rank of a stack of coefficient rows, never modified: `SparseRows`, an
    array, or a list of rows.

    `SparseRows` are ranked from their coordinates as they are; anything
    else goes through `field.array` and is scanned once for its coordinates.
    Over QQ each row is then scaled to integers (`RationalField.numerators`).
    The rank is k, the number of structural pivots, plus the rank of their
    Schur complement (`_rank`): exact in float64 over every GF(p), one
    product where k·(p−1)² + p <= 2⁵³, else 15-bit limbs (`_sub_mod`), with
    at most 2¹⁸ cells dense per block; by `_eliminate` over QQ.
    """
    nrows = len(rows)
    if isinstance(rows, SparseRows):
        r, c, v = rows.rows, rows.cols, rows.vals
    else:
        r, c, v = _coordinates(field.array(rows, ncols))
    return _rank(r, c, field.numerators(r, v), nrows, ncols, field)


def _reduced(a, field):
    """The ascending int64 pivot columns of the reduced row echelon form of
    the field array `a`, which may be overwritten, and its tails: each
    reduced row, one per pivot, on the other columns."""
    b, pivots = _eliminate(field.row_numerators(a), field, full=True)
    pivots = np.array(pivots, np.int64)
    return pivots, np.delete(field.pivot_rows(b[:pivots.size], pivots), pivots, axis=1)


def _rref(rows, cols, vals, nrows, ncols, field):
    """The ascending pivot columns of the reduced row echelon form of the
    nrows x ncols matrix with the nonzero field elements `vals` at (`rows`,
    `cols`), sorted by (row, column), and its tails: each reduced row on the
    other columns, in order.  Over GF(p): the leading columns L of the
    structural pivot rows T, the pivots P_S of S = C - Y0 T^-1 B with its
    reduced rows R_S, and the pivot rows' tails X from T X = B - B[:, P_S] R_S.
    QQ, and a matrix more than half full, go to `_eliminate`.
    """
    if not vals.size:
        return np.zeros(0, np.int64), field.zeros((0, ncols))
    p = field.characteristic
    if not p or 2 * vals.size > nrows * ncols:
        a = field.zeros((nrows, ncols))
        a[rows, cols] = vals
        return _reduced(a, field)
    # every row divided by its leading entry, which makes T unit upper triangular
    first = _starts(rows)
    heads = vals[first].tolist()
    inverse = {x: pow(x, -1, p) for x in set(heads)}
    vals = vals * np.array([inverse[x] for x in heads])[np.cumsum(first) - 1] % p
    piv, lead, rest = _structural_pivots(rows, cols)
    k, other = lead.size, np.delete(np.arange(ncols), lead)
    if not other.size:
        return lead, field.zeros((k, 0))
    # a rest row with one nonzero is a multiple of the pivot row at its lead,
    # the sparsest row there, and reduces to zero
    rest = rest[np.bincount(rows)[rest] > 1]
    nrest = rest.size
    row_at = np.full(nrows, -1)
    row_at[np.concatenate([piv, rest])] = np.arange(k + nrest)
    col_at = np.empty(ncols, np.int64)
    col_at[np.concatenate([lead, other])] = np.arange(ncols)
    keep = row_at[rows] >= 0
    i, j, vals = row_at[rows[keep]], col_at[cols[keep]], vals[keep]
    schur = (_schur_complement(vals, i, j, k, nrest, other.size, p) if nrest
             else (np.zeros(0, np.int64),) * 3)
    sp, stails = _rref(*schur, nrest, other.size, field)
    b, t = (i < k) & (j >= k), (j < k) & (i < j)
    rhs = np.zeros((k, other.size), np.int64)
    rhs[i[b], j[b] - k] = vals[b]
    rhs = field.sub_matmul(rhs[:, np.delete(np.arange(other.size), sp)], rhs[:, sp], stails)
    # T X = rhs as Y T~ = rhs^T J for Y = X^T J, J the index reversal
    steps = _level_schedule(k - 1 - j[t], k - 1 - i[t], _limbs(vals[t], p, k), k)
    x = _solve(np.asfortranarray(rhs[::-1].T, dtype=np.float64), steps, p)[:, ::-1].T
    pivots = np.concatenate([lead, other[sp]])
    order = np.argsort(pivots)
    return pivots[order], np.concatenate([x.astype(np.int64), stails])[order]


# ---------------------------------------------------------------------------
# reduced row bases


class RowBasis:
    """A subspace of k^ncols in fully reduced form.

    Every basis row equals 1 at its own pivot column, 0 at all other pivot
    columns, and is otherwise supported on the complementary ("support")
    columns; `tails` holds exactly that part, one row per pivot.  `pivots`
    and `support` are ascending int64 arrays of column indices, the support
    derived from the pivots, and index field arrays directly.  Reduction of
    any vector therefore leaves a residual on the support columns, the
    coordinate vector in the quotient.
    """

    __slots__ = ("ncols", "field", "pivots", "support", "tails")

    def __init__(self, ncols, field, pivots, tails):
        self.ncols = ncols
        self.field = field
        self.pivots = np.asarray(pivots, np.int64)
        self.support = np.delete(np.arange(ncols), self.pivots)
        self.tails = tails

    @classmethod
    def from_rows(cls, rows, ncols, field):
        return cls(ncols, field, *_reduced(field.array(rows, ncols), field))

    @classmethod
    def full(cls, ncols, field):
        return cls(ncols, field, np.arange(ncols), field.zeros((ncols, 0)))

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
        return fld.sub_matmul(vec[:, self.support], vec[:, self.pivots], self.tails)[0]

    def contains(self, vec):
        return not np.count_nonzero(self.reduce(vec))

    def full_rows(self):
        """Reconstruct the basis as full-width coefficient rows."""
        out = self.field.zeros((self.dim, self.ncols))
        out[np.arange(self.dim), self.pivots] = self.field.one
        out[:, self.support] = self.tails
        return out

    def class_matrix(self):
        """Matrix (ncols x codim) sending each unit vector to its residual.

        Row c is the coordinate vector of e_c in the quotient k^ncols / span:
        a unit row for support columns, minus the tail for pivot columns.
        """
        out = self.field.zeros((self.ncols, self.codim))
        out[self.support, np.arange(self.codim)] = self.field.one
        out[self.pivots] = self.field.reduce(-self.tails)
        return out


class Accumulator(RowBasis):
    """A RowBasis that grows: absorbs blocks of `SparseRows`, keeping the fully
    reduced basis of their span (sorted pivots and tails) that
    `RowBasis.from_rows` would give on all rows absorbed so far."""

    __slots__ = ()

    def __init__(self, ncols, field):
        super().__init__(ncols, field, (), field.zeros((0, ncols)))

    def absorb(self, rows):
        """Add the span of the `SparseRows` of field elements `rows`; return the
        number of new pivots, or None if they add none.  They and the basis so
        far are reduced together from their coordinates (`_rref`)."""
        both = zip(_coordinates(self.full_rows()), (rows.rows + self.dim, rows.cols, rows.vals))
        pivots, tails = _rref(*map(np.concatenate, both), self.dim + len(rows), self.ncols, self.field)
        new = len(pivots) - self.dim
        if new:
            super().__init__(self.ncols, self.field, pivots, tails)
        return new or None

