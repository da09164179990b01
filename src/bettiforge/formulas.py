"""Closed-form graded Betti tables for powers of general linear forms.

`betti_formula` covers (x_1^d1, .., x_n^dn, ell^e) when T = sum over all n+1
of (d_i - 1) is odd or a generator is a square: it dispatches to the kernels
`betti_aci_odd`, `betti_gorenstein_odd` and `betti_sum_formula`, which take
their sequence literally.

Table convention: entries are beta[(i, j)] with i the homological index and j
the internal degree; when rendered, the table row is j - i.  The last-row
solver uses the alternating-sum identity
    sum_i (-1)^i beta_{i,j} = [T^j] HS(T) (1-T)^n,
so every produced table is validated against its Hilbert series before it is
returned.
"""

from __future__ import annotations

from .errors import ConsistencyError, MinimalityError, PreconditionError
from .hilbert import (
    froberg_series,
    gorenstein_linked_hilbert,
    series_numerator,
)


class BettiTable:
    """Sparse map (i, j) -> beta_{i,j} with nonnegative integer values."""

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (i, j), v in dict(entries).items():
                self.set(i, j, v)

    def set(self, i, j, value):
        value = int(value)
        if value < 0:
            raise ConsistencyError(f"negative Betti number beta_{{{i},{j}}} = {value}")
        if value:
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def add(self, i, j, value):
        self.set(i, j, self.get(i, j) + int(value))

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    @property
    def max_index(self):
        return max((i for i, _ in self.entries), default=0)

    @property
    def max_row(self):
        return max((j - i for i, j in self.entries), default=0)

    def totals(self):
        out = [0] * (self.max_index + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def column(self, i):
        return {j: v for (i2, j), v in self.entries.items() if i2 == i}

    def alternating_numerator(self):
        """j -> sum_i (-1)^i beta_{i,j}, the Hilbert numerator the table encodes."""
        out = {}
        for (i, j), v in self.entries.items():
            out[j] = out.get(j, 0) + ((-1) ** i) * v
        return {j: v for j, v in out.items() if v}

    def is_self_dual(self, nvars, socle_degree):
        dual = {(nvars - i, socle_degree + nvars - j): v
                for (i, j), v in self.entries.items()}
        return dual == self.entries

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        body = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.items())
        return f"BettiTable({{{body}}})"


def koszul_betti(degrees):
    """Koszul-complex table of a sequence of form degrees: beta_{i,j} counts the
    size-i subsets whose degrees sum to j."""
    if len(degrees) < 1:
        raise PreconditionError("need at least one form degree")
    ways = {(0, 0): 1}
    for d in degrees:
        nxt = dict(ways)
        for (i, j), v in ways.items():
            key = (i + 1, j + d)
            nxt[key] = nxt.get(key, 0) + v
        ways = nxt
    table = BettiTable()
    for (i, j), v in ways.items():
        table.set(i, j, v)
    return table


def _validate_against_series(table, series, nvars, what):
    want = series_numerator(series, nvars)
    got = table.alternating_numerator()
    for j, v in enumerate(want):
        if got.pop(j, 0) != v:
            raise ConsistencyError(
                f"{what}: alternating sums disagree with the Hilbert series at degree {j}")
    if got:
        j = min(got)
        raise ConsistencyError(
            f"{what}: alternating sums disagree with the Hilbert series at degree {j}")


def _solve_row(table, numerator, row, index_range):
    """Fill row `row` (cells (i, i+row)) from the alternating-sum identity."""
    for i in index_range:
        j = i + row
        if (i, j) in table.entries:
            continue
        known = sum(((-1) ** i2) * v
                    for (i2, j2), v in table.entries.items() if j2 == j and i2 != i)
        n_j = numerator[j] if j < len(numerator) else 0
        value = ((-1) ** i) * (n_j - known)
        if value < 0:
            raise ConsistencyError(
                f"solved entry beta_{{{i},{j}}} = {value} is negative; "
                "the closed formula does not apply to this input")
        if value:
            table.set(i, j, value)


def betti_aci_odd(ds):
    """Betti table of (x_1^d1,..,x_n^dn, ell^e) when sum over all n+1 of (d_i - 1) is odd.

    Rows below the socle degree coincide with the Koszul table of the n+1
    degrees; the socle-degree row is forced by the Hilbert series.
    """
    degrees = ds.all_degrees()
    ds.require_odd()
    if not ds.is_minimal:
        raise MinimalityError(
            f"ell power {ds.ell_power} exceeds {ds.variable_sum}; not minimally generated")
    fro = froberg_series(ds.nvars, degrees)
    series = list(fro.coefficients)
    s = len(series) - 1
    table = BettiTable()
    table.set(0, 0, 1)
    koszul = koszul_betti(degrees)
    for (i, j), v in koszul.items():
        if i >= 1 and j - i <= s - 1:
            table.set(i, j, v)
    numerator = series_numerator(series, ds.nvars)
    _solve_row(table, numerator, s, range(1, ds.nvars + 1))
    _validate_against_series(table, series, ds.nvars, "almost-complete-intersection table")
    return table


def betti_gorenstein_odd(ds):
    """Betti table of the linked Gorenstein quotient when the same parity holds.

    With 2s the socle degree: rows 0..s-1 copy the Koszul table of the n
    variable powers, rows s+1..2s follow by Gorenstein duality, and row s is
    forced by the Hilbert series.
    """
    ds.require_odd()
    n = ds.nvars
    socle = ds.linked_socle_degree
    s, rem = divmod(socle, 2)
    if rem:
        raise ConsistencyError("odd parity should force an even linked socle degree")
    series = gorenstein_linked_hilbert(ds)
    table = BettiTable()
    table.set(0, 0, 1)
    koszul = koszul_betti(ds.degrees)
    copied = [(i, j, v) for (i, j), v in koszul.items() if j - i <= s - 1]
    for i, j, v in copied:
        if i >= 1:
            table.set(i, j, v)
    for i, j, v in copied:
        table.set(n - i, socle + n - j, v)
    numerator = series_numerator(series, n)
    _solve_row(table, numerator, s, range(1, n + 1))
    _validate_against_series(table, series, n, "linked Gorenstein table")
    return table


def betti_sum_formula(ds, target="aci"):
    """Betti table when one variable power is a quadric, via the one-variable-less table.

    Writing bar-beta for the table of the reduced sequence (quadric removed,
    one variable fewer), every entry is
        beta_{i,j} = bar-beta_{i,j} + bar-beta_{i-1,j-2}.
    The odd-parity kernel checks the reduced sequence's parity and minimality.
    """
    if target not in ("aci", "gorenstein"):
        raise PreconditionError(f"unknown target {target!r}")
    if ds.nvars < 2:
        raise PreconditionError("need at least two variables to drop the quadric")
    _, _, reduced = ds.split_quadric()
    base = betti_aci_odd(reduced) if target == "aci" else betti_gorenstein_odd(reduced)
    table = BettiTable()
    for (i, j), v in base.items():
        table.add(i, j, v)
        table.add(i + 1, j + 2, v)
    return table


def betti_formula(ds, target="aci"):
    """The table of the ideal (target "aci") or of its Gorenstein link.

    Odd T takes the odd-parity kernel, even T with a variable quadric the sum
    formula; anything else raises ParityError.  The ACI target first applies
    `DegreeSequence.aci_orientation`, so the square may be on any generator;
    the link (x_i^d_i) : ell^e singles ell out, so that target keeps it.
    """
    if target == "aci":
        ds = ds.aci_orientation()
    if not ds.is_odd and 2 in ds.degrees:
        return betti_sum_formula(ds, target)
    if target == "aci":
        return betti_aci_odd(ds)
    if target == "gorenstein":
        return betti_gorenstein_odd(ds)
    raise PreconditionError(f"unknown target {target!r}")


def predict_level(table, socle_degree):
    """Is the last resolution column concentrated in the single degree n + socle?"""
    imax = table.max_index
    last = {j for (i, j) in table.entries if i == imax}
    return last == {imax + socle_degree}


def syzygy_coefficient(d):
    """sum over j of (d - 1 - 2j)^2 for 0 <= j <= floor((d-1)/2)."""
    return sum((d - 1 - 2 * j) ** 2 for j in range(0, (d - 1) // 2 + 1))


def syzygy_coefficients(degrees):
    return [syzygy_coefficient(d) for d in degrees]
