"""Forms over an exact field, the contraction action, Macaulay matrices.

Every polynomial is a form: homogeneous of one degree, or zero.  The degree-d
monomials are listed by `exponent_array`, an int64 array, in graded
lexicographic order with x1 > x2 > ... > xn, largest first (x1^d first, xn^d
last), and all matrix rows/columns follow that listing so kernels and
certificates are reproducible; `monomial_count` counts it without building
it.  A `Polynomial` holds its degree, the ascending positions of its terms in
that listing and their coefficients, so arithmetic on forms is array
arithmetic on `exponent_array` and `product_positions`.

Coefficients are field arrays (see `exactalg`).  `Polynomial.__init__` is the
one place they are normalized: it reduces every value into the field, sums
repeated positions and drops zeros, so the arithmetic below hands it raw
products.  Over GF(p) every product of two residues is reduced before it
meets a third factor.

A generator list carries its own ring: `ring_of` reads (nvars, field) off the
polynomials and refuses a list whose members do not share one, so no function
that takes generators also takes a ring.  The zero ideal is written [0], the
zero polynomial of its ring; an empty list has no ring.

Macaulay matrices are plain field arrays, so `rank_of_rows` and `RowBasis`
take them as they are.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, perm, prod

import numpy as np

from .errors import DimensionMismatchError, NonHomogeneousError, PreconditionError
from .exactalg import QQ, same_field


def monomial_count(nvars, degree):
    """The number of degree-`degree` monomials in `nvars` variables."""
    return comb(degree + nvars - 1, degree) if nvars else int(degree == 0)


@lru_cache(maxsize=None)
def exponent_array(nvars, degree):
    """All degree-`degree` monomials in `nvars` variables as a read-only int64
    array, one row per monomial, largest first (grlex): one block of rows per
    leading exponent e, from `degree` down to 0, whose other columns are the
    listing of degree - e in the other variables."""
    out = np.full((monomial_count(nvars, degree), nvars), degree, np.int64)
    if nvars > 1:
        at = 0
        for e in range(degree, -1, -1):
            tail = exponent_array(nvars - 1, degree - e)
            out[at:at + len(tail), 0], out[at:at + len(tail), 1:] = e, tail
            at += len(tail)
    out.flags.writeable = False
    return out


def monomials_of_degree(nvars, degree):
    """The rows of `exponent_array` as exponent tuples."""
    return tuple(map(tuple, exponent_array(nvars, degree).tolist()))


@lru_cache(maxsize=None)
def _grlex_weights(nvars, top):
    """weights[i, r] = C(r + nvars - 2 - i, nvars - 1 - i) for r <= top, nvars >= 2.

    Among the monomials that agree with x^m before variable i, that many come
    before it in exponent_array (those with a larger exponent at i), where
    r is the degree m leaves after variable i.  A monomial's position is the
    sum of these counts over i < nvars - 1.
    """
    out = np.array([[comb(r + nvars - 2 - i, nvars - 1 - i) for r in range(top + 1)]
                    for i in range(nvars - 1)], dtype=np.int64)
    out.flags.writeable = False
    return out


def _degrees_left(exps):
    """Column i holds exps[:, i+1:].sum(1), for i < nvars - 1."""
    return np.cumsum(exps[:, :0:-1], axis=1)[:, ::-1]


def product_positions(monos, terms):
    """Positions of x^m * x^w in exponent_array, m over the rows of `monos`
    and w over the rows of `terms` (int64 exponent arrays, monomials x variables).

    Returns a (len(monos) x len(terms)) int64 array.  The degree left after
    each variable adds across the two factors, so each weight lookup of
    `_grlex_weights` is one broadcast sum.
    """
    out = np.zeros((len(monos), len(terms)), dtype=np.int64)
    if out.size == 0 or monos.shape[1] < 2:
        return out
    left_m, left_w = _degrees_left(monos), _degrees_left(terms)
    weights = _grlex_weights(monos.shape[1], int(left_m[:, 0].max() + left_w[:, 0].max()))
    for i, row in enumerate(weights):
        out += row[left_m[:, i, None] + left_w[None, :, i]]
    return out


def positions_of(exps):
    """Positions of the rows of the int64 exponent array `exps`, all of one
    degree, in exponent_array."""
    return product_positions(exps, exponent_array(exps.shape[1], 0))[:, 0]


class Polynomial:
    """A form over an exact field: `degree` (None for zero only), the ascending
    int64 `positions` of its terms in exponent_array(nvars, degree), the
    largest monomial first, and the field array `values` of their nonzero
    coefficients."""

    __slots__ = ("nvars", "field", "degree", "positions", "values")

    def __init__(self, nvars, field, degree=None, positions=(), values=()):
        """sum_t values[t] * (the monomial at positions[t]) in degree `degree`,
        with values reduced into the field, repeated positions summed and zeros
        dropped.  Any array shape is read in C order."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        values = field.array([values], len(positions))[0]
        if len(positions) > 1:
            order = positions.argsort(kind="stable")
            positions, values = positions[order], values[order]
            new = positions[1:] != positions[:-1]
            if not new.all():
                first = np.concatenate(([0], new.nonzero()[0] + 1))
                # the values are residues below p < 2**31 over GF(p), so fewer
                # than 2**32 repeats of one position sum below 2**63
                positions = positions[first]
                values = field.reduce(np.add.reduceat(values, first))
        keep = values.nonzero()[0]
        self.nvars = nvars
        self.field = field
        self.degree = degree if len(keep) else None
        self.positions = positions[keep]
        self.values = values[keep]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, nvars, field, terms):
        """The form sum c * x^m over the items (m, c) of the dict `terms`, m an
        exponent tuple of length nvars; terms whose c is zero in the field are
        dropped, and the rest must share one degree."""
        terms = {tuple(m): v for m, c in terms.items() if (v := field.coerce(c))}
        if any(len(m) != nvars for m in terms):
            raise DimensionMismatchError("exponent tuple length != nvars")
        degrees = sorted({sum(m) for m in terms})
        if len(degrees) > 1:
            raise NonHomogeneousError(f"not homogeneous: degrees {degrees}")
        if not terms:
            return cls(nvars, field)
        exps = np.array(list(terms), dtype=np.int64)
        return cls(nvars, field, degrees[0], positions_of(exps), list(terms.values()))

    @classmethod
    def zero(cls, nvars, field):
        return cls(nvars, field)

    @classmethod
    def constant(cls, value, nvars, field):
        return cls.monomial((0,) * nvars, field, value)

    @classmethod
    def variable(cls, i, nvars, field):
        return cls.variable_power(i, 1, nvars, field)

    @classmethod
    def variable_power(cls, i, d, nvars, field):
        return cls.monomial([d if k == i else 0 for k in range(nvars)], field)

    @classmethod
    def monomial(cls, expo, field, coeff=1):
        return cls.from_terms(len(expo), field, {tuple(expo): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return self.degree is None

    def exponents(self):
        """The terms' exponent vectors, an int64 array with one row per term."""
        return exponent_array(self.nvars, self.degree or 0)[self.positions]

    def check_ring(self, nvars, field):
        """Refuse a ring other than the polynomial's own."""
        if self.nvars != nvars:
            raise DimensionMismatchError("polynomials live in different rings")
        same_field(self.field, field)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self.check_ring(other.nvars, other.field)
        return _sum(self.nvars, self.field, [(p.degree, p.positions, p.values)
                                             for p in (self, other) if not p.is_zero()])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return dot([self], [other])

    def scale(self, c):
        # c is coerced into the field, so over GF(p) each product fits int64
        return Polynomial(self.nvars, self.field, self.degree, self.positions,
                          self.values * self.field.coerce(c))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.degree == other.degree
                and self.positions.tolist() == other.positions.tolist()
                and self.values.tolist() == other.values.tolist())

    def evaluate(self, point):
        """Evaluate at a point given as a coordinate sequence."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point length != nvars")
        return self.field.coerce(sum(coef * prod(x ** e for x, e in zip(point, mono))
                                     for mono, coef in zip(self.exponents().tolist(),
                                                           self.values.tolist())))

    def to_vector(self, degree=None):
        """Field array of coefficients over the degree-d monomial basis; d is
        the form's own degree unless given, and must be given for zero."""
        d = self.degree if degree is None else degree
        if d is None:
            raise PreconditionError("zero polynomial needs an explicit degree")
        if self.degree not in (None, d):
            raise NonHomogeneousError("polynomial is not homogeneous of the requested degree")
        vec = self.field.zeros(monomial_count(self.nvars, d))
        vec[self.positions] = self.values
        return vec

    @classmethod
    def from_vector(cls, vec, nvars, degree, field):
        return cls(nvars, field, degree, np.arange(len(vec)), vec)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def _sum(nvars, field, terms):
    """The form summing the terms (degree, positions, values), which must share a degree."""
    degrees = sorted({d for d, _, _ in terms})
    if len(degrees) > 1:
        raise NonHomogeneousError(f"not homogeneous: degrees {degrees}")
    if not terms:
        return Polynomial(nvars, field)
    return Polynomial(nvars, field, degrees[0], np.concatenate([p for _, p, _ in terms]),
                      np.concatenate([v for _, _, v in terms]))


def dot(left, right):
    """sum_i left[i] * right[i] over two sequences of forms of one ring, in one
    canonicalization; the nonzero products must share a degree."""
    nvars, field = left[0].nvars, left[0].field
    for p in (*left, *right):
        p.check_ring(nvars, field)
    # a product of two residues below p < 2**31 fits int64; the constructor
    # reduces it before summing
    return _sum(nvars, field, [(a.degree + b.degree,
                                product_positions(a.exponents(), b.exponents()).reshape(-1),
                                np.multiply.outer(a.values, b.values).reshape(-1))
                               for a, b in zip(left, right) if not (a.is_zero() or b.is_zero())])


def falling_weights(b, a, field):
    """prod_i b_i (b_i - 1) ... (b_i - a_i + 1) over the last axis of the int64
    exponent arrays b and a, as a field array.  Over GF(p) each factor is a
    residue below p < 2**31, so every product fits int64 and is reduced
    before the next multiply."""
    top = int(b.max(initial=0)) + 1
    table = field.array([[field.coerce(perm(x, y)) for y in range(top)] for x in range(top)], top)
    out = np.full(b.shape[:-1], field.one, dtype=field.dtype)
    for i in range(b.shape[-1]):
        out = field.reduce(out * table[b[..., i], a[..., i]])
    return out


def contract(f, big):
    """Apolarity action f ∘ F: each variable acts as the matching partial derivative.

    Linear in both arguments; drops degrees by deg f; zero once deg f exceeds deg F.
    No divided-power normalization is applied.  A term pair (x^a, x^b) gives
    x^(b-a) weighted by the falling factorials of b over a, when a <= b.
    """
    f.check_ring(big.nvars, big.field)
    field = f.field
    if f.is_zero() or big.is_zero():
        return Polynomial.zero(f.nvars, field)
    a, b = f.exponents(), big.exponents()
    left = b[None, :, :] - a[:, None, :]
    k, t = np.nonzero((left >= 0).all(axis=2))
    # residues below p < 2**31: each product fits int64 and is reduced before the next
    values = field.reduce(f.values[k] * big.values[t])
    return Polynomial(f.nvars, field, big.degree - f.degree, positions_of(left[k, t]),
                      values * falling_weights(b[t], a[k], field))


def power_of_linear(coeffs, d, field=QQ):
    """(sum_i c_i x_i)^d, multiplied out one factor at a time."""
    if d < 0:
        raise PreconditionError("exponent must be >= 0")
    nvars = len(coeffs)
    ell = Polynomial(nvars, field, 1, np.arange(nvars), [field.coerce(c) for c in coeffs])
    out = Polynomial.constant(1, nvars, field)
    for _ in range(d):
        out = out * ell
    return out


def standard_linear_form(nvars, field=QQ):
    """x1 + ... + xn."""
    return power_of_linear([1] * nvars, 1, field)


def require_general_ell(degrees, field):
    """Refuse a characteristic p with 0 < p <= Σ(d_i − 1), the socle degree of
    R/(x^d): up to there ℓ = x_1 + .. + x_n can fail the strong Lefschetz
    property of R/(x^d) (Cook II, J. Algebra 369, 2012), and an ideal built
    with it is not the general one the closed formulas describe."""
    p, socle = field.characteristic, sum(d - 1 for d in degrees)
    if 0 < p <= socle:
        raise PreconditionError(f"GF({p}) is too small for ℓ = x1 + .. + xn: the characteristic "
                                f"must exceed the socle degree {socle} of R/(x^d)")


def power_ideal(degrees, ell_power, field):
    """Generators x_1^d1, .., x_n^dn, then ℓ^e, ℓ = x_1 + .. + x_n, unless
    ell_power is None; ℓ^e only over a characteristic `require_general_ell`
    allows."""
    n = len(degrees)
    gens = [Polynomial.variable_power(i, d, n, field) for i, d in enumerate(degrees)]
    if ell_power is not None:
        require_general_ell(degrees, field)
        gens.append(power_of_linear([1] * n, ell_power, field))
    return gens


def ring_of(gens):
    """(nvars, field) of a non-empty list of polynomials sharing one ring."""
    if not gens:
        raise PreconditionError("an empty generator list has no ring; "
                                "the zero ideal is generated by the zero polynomial")
    nvars, field = gens[0].nvars, gens[0].field
    for g in gens:
        g.check_ring(nvars, field)
    return nvars, field


def macaulay_columns(generators, j):
    """Column labels (generator index, shifting monomial) of the degree-j Macaulay matrix."""
    cols = []
    for g_idx, g in enumerate(generators):
        if g.is_zero() or g.degree > j:
            continue
        for m in monomials_of_degree(g.nvars, j - g.degree):
            cols.append((g_idx, m))
    return cols


def macaulay_matrix(generators, j):
    """Field array whose column space is the degree-j slice of the generated ideal.

    Rows run over the degree-j monomials in the fixed order; the columns follow
    `macaulay_columns`, one per product m * g with m a monomial of degree j - deg g.
    """
    nvars, field = ring_of(generators)
    nrows = monomial_count(nvars, j)
    blocks = [field.zeros((nrows, 0))]
    for g in generators:
        if g.is_zero() or g.degree > j:
            continue
        rows = product_positions(exponent_array(nvars, j - g.degree), g.exponents())
        block = field.zeros((nrows, len(rows)))
        block[rows, np.arange(len(rows))[:, None]] = g.values
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# text syntax: terms like ``3*x1^2*x3 - x2^4`` with variables x1..xn


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|x(?P<var>\d+)(?:\^(?P<pow>\d+))?|(?P<op>[+\-*]))")


def parse_polynomial(text, nvars=None, field=QQ):
    """Parse the CLI polynomial syntax into a Polynomial; the terms must share one degree."""
    terms = []
    sign = 1
    coeff = None
    expo = {}
    pending = None  # the operator still waiting for a factor: "*" or a sign
    malformed = PreconditionError(f"malformed polynomial: {text!r}")

    def flush():
        nonlocal sign, coeff, expo
        terms.append((sign, Fraction(coeff if coeff is not None else 1), dict(expo)))
        sign, coeff, expo = 1, None, {}

    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PreconditionError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("op"):
            op = m.group("op")
            # "*" joins two factors of one term; a sign may follow a sign
            if pending == "*" or op == "*" and coeff is None and not expo:
                raise malformed
            pending = op
            if op == "*":
                continue
            if coeff is not None or expo:
                flush()
            if op == "-":
                sign = -sign
            continue
        pending = None
        if m.group("num"):
            try:
                value = Fraction(m.group("num"))
            except ZeroDivisionError:
                raise PreconditionError(f"zero denominator in polynomial: {text!r}") from None
            coeff = value if coeff is None else coeff * value
        else:
            var = int(m.group("var")) - 1
            if var < 0:
                raise PreconditionError("variables are x1, x2, ...")
            power = int(m.group("pow") or 1)
            expo[var] = expo.get(var, 0) + power
    if pending:
        raise malformed
    if coeff is not None or expo:
        flush()
    if not terms:
        raise PreconditionError(f"empty polynomial: {text!r}")
    max_var = max((max(e, default=-1) for _, _, e in terms), default=-1)
    if nvars is None:
        nvars = max_var + 1 if max_var >= 0 else 1
    elif max_var >= nvars:
        raise PreconditionError(f"variable x{max_var + 1} exceeds nvars={nvars}")
    coeffs = {}
    for sgn, c, e in terms:
        mono = tuple(e.get(i, 0) for i in range(nvars))
        prev = coeffs.get(mono, Fraction(0))
        coeffs[mono] = prev + sgn * c
    try:
        return Polynomial.from_terms(nvars, field, coeffs)
    except NonHomogeneousError:
        raise NonHomogeneousError(f"non-homogeneous input: {text!r}") from None
    except ZeroDivisionError as exc:  # a denominator divisible by p
        raise PreconditionError(f"{exc} in polynomial: {text!r}") from None


def format_polynomial(p):
    if p.is_zero():
        return "0"
    char = p.field.characteristic
    parts = []
    for mono, coef in zip(p.exponents().tolist(), p.values.tolist()):
        if char and coef > char // 2:
            coef -= char
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        body = "*".join(factors)
        cstr = str(coef)
        negative = cstr.startswith("-")
        if negative:
            cstr = cstr[1:]
        if body and cstr == "1":
            term = body
        elif body:
            term = f"{cstr}*{body}"
        else:
            term = cstr
        if not parts:
            parts.append(("-" if negative else "") + term)
        else:
            parts.append(("- " if negative else "+ ") + term)
    return " ".join(parts)
