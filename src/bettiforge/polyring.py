"""Sparse graded multivariate polynomials, the contraction action, Macaulay matrices.

Monomials are exponent tuples.  The fixed monomial order is graded
lexicographic with x1 > x2 > ... > xn; within one degree, bases are listed in
decreasing order (x1^d first, xn^d last), and all matrix rows/columns follow
that listing so kernels and certificates are reproducible.

Coefficients are the field's plain numbers (ints in [0, p) or Fractions, see
`exactalg`).  `Polynomial.__init__` is the one place they are normalized: it
coerces every value into the field and drops zeros, so the arithmetic below
adds up raw Python products and hands them to the constructor.

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
from math import comb, prod

import numpy as np

from .errors import DimensionMismatchError, NonHomogeneousError, PreconditionError
from .exactalg import QQ, same_field


def monomial_degree(mono):
    return sum(mono)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """Does x^a divide x^b?"""
    return all(x <= y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def monomials_of_degree(nvars, degree):
    """All degree-`degree` monomials in `nvars` variables, largest first (grlex)."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for tail in monomials_of_degree(nvars - 1, degree - e):
            out.append((e,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars, degree):
    """Monomial -> position in monomials_of_degree(nvars, degree)."""
    return {m: k for k, m in enumerate(monomials_of_degree(nvars, degree))}


@lru_cache(maxsize=None)
def exponent_array(nvars, degree):
    """monomials_of_degree(nvars, degree) as a read-only int64 array, one row per monomial."""
    monos = monomials_of_degree(nvars, degree)
    out = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _grlex_weights(nvars, top):
    """weights[i, r] = C(r + nvars - 2 - i, nvars - 1 - i) for r <= top, nvars >= 2.

    Among the monomials that agree with x^m before variable i, that many come
    before it in monomials_of_degree (those with a larger exponent at i), where
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
    """Positions of x^m * x^w in monomials_of_degree, m over the rows of `monos`
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


@lru_cache(maxsize=None)
def variable_shift_map(nvars, degree, var):
    """Positions of x_var * m in degree+1, for m running over degree-`degree` monomials."""
    unit = np.zeros((1, nvars), dtype=np.int64)
    unit[0, var] = 1
    out = product_positions(exponent_array(nvars, degree), unit)[:, 0]
    out.flags.writeable = False
    return out


def monomial_key(mono):
    """Sort key: larger key = larger monomial in the fixed graded-lex order."""
    return (monomial_degree(mono), mono)


class Polynomial:
    """Sparse polynomial over an exact field; `coeffs` maps exponent tuples to nonzero values."""

    __slots__ = ("nvars", "field", "coeffs")

    def __init__(self, nvars, field, coeffs=None):
        self.nvars = nvars
        self.field = field
        clean = {}
        if coeffs:
            for mono, val in coeffs.items():
                val = field.coerce(val)
                if val:
                    if len(mono) != nvars:
                        raise DimensionMismatchError("exponent tuple length != nvars")
                    clean[tuple(mono)] = val
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars, field):
        return cls(nvars, field)

    @classmethod
    def constant(cls, value, nvars, field):
        return cls(nvars, field, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i, nvars, field):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, field, {tuple(e): 1})

    @classmethod
    def variable_power(cls, i, d, nvars, field):
        e = [0] * nvars
        e[i] = d
        return cls(nvars, field, {tuple(e): 1})

    @classmethod
    def monomial(cls, expo, field, coeff=1):
        return cls(len(expo), field, {tuple(expo): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Top total degree, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return max(monomial_degree(m) for m in self.coeffs)

    def is_homogeneous(self, degree=None):
        """Zero counts as homogeneous of every degree."""
        if not self.coeffs:
            return True
        degs = {monomial_degree(m) for m in self.coeffs}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def homogeneous_degree(self):
        if not self.coeffs:
            return None
        degs = {monomial_degree(m) for m in self.coeffs}
        if len(degs) > 1:
            raise NonHomogeneousError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def leading_monomial(self):
        return max(self.coeffs, key=monomial_key)

    def _check_ring(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomials live in different rings")
        same_field(self.field, other.field)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self.coeffs)
        for m, v in other.coeffs.items():
            out[m] = out.get(m, 0) + v
        return Polynomial(self.nvars, self.field, out)

    def __neg__(self):
        return Polynomial(self.nvars, self.field, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        out = {}
        for m1, v1 in self.coeffs.items():
            for m2, v2 in other.coeffs.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + v1 * v2
        return Polynomial(self.nvars, self.field, out)

    def scale(self, c):
        return Polynomial(self.nvars, self.field, {m: c * v for m, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.coeffs.items())))

    def evaluate(self, point):
        """Evaluate at a point given as a coordinate sequence."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point length != nvars")
        return self.field.coerce(sum(coef * prod(x ** e for x, e in zip(point, mono))
                                     for mono, coef in self.coeffs.items()))

    def to_vector(self, degree=None):
        """Coefficient list over the degree-d monomial basis (requires homogeneity)."""
        d = self.homogeneous_degree() if degree is None else degree
        if d is None:
            raise PreconditionError("zero polynomial needs an explicit degree")
        if not self.is_homogeneous(d):
            raise NonHomogeneousError("polynomial is not homogeneous of the requested degree")
        idx = monomial_index(self.nvars, d)
        vec = [self.field.zero] * len(idx)
        for m, v in self.coeffs.items():
            vec[idx[m]] = v
        return vec

    @classmethod
    def from_vector(cls, vec, nvars, degree, field):
        monos = monomials_of_degree(nvars, degree)
        return cls(nvars, field, {m: v for m, v in zip(monos, vec)})

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def _falling(b, a):
    """b (b-1) ... (b-a+1) as a plain integer."""
    out = 1
    for k in range(a):
        out *= b - k
    return out


def contract(f, big):
    """Apolarity action f ∘ F: each variable acts as the matching partial derivative.

    Linear in both arguments; drops degrees by deg f; zero once deg f exceeds deg F.
    No divided-power normalization is applied.
    """
    f._check_ring(big)
    out = {}
    for mf, cf in f.coeffs.items():
        for mF, cF in big.coeffs.items():
            if not monomial_divides(mf, mF):
                continue
            v = cf * cF
            for b, a in zip(mF, mf):
                if a:
                    v *= _falling(b, a)
            m = tuple(b - a for b, a in zip(mF, mf))
            out[m] = out.get(m, 0) + v
    return Polynomial(f.nvars, f.field, out)


def power_of_linear(coeffs, d, field=QQ):
    """(sum_i c_i x_i)^d, multiplied out one factor at a time."""
    if d < 0:
        raise PreconditionError("exponent must be >= 0")
    nvars = len(coeffs)
    ell = Polynomial(nvars, field, dict(zip(monomials_of_degree(nvars, 1), coeffs)))
    out = Polynomial.constant(1, nvars, field)
    for _ in range(d):
        out = out * ell
    return out


def standard_linear_form(nvars, field=QQ):
    """x1 + ... + xn."""
    return Polynomial(nvars, field, {m: 1 for m in monomials_of_degree(nvars, 1)})


def power_ideal(degrees, ell_power, field):
    """Generators x_1^d1, .., x_n^dn, then (x_1 + .. + x_n)^e unless ell_power is None."""
    n = len(degrees)
    gens = [Polynomial.variable_power(i, d, n, field) for i, d in enumerate(degrees)]
    if ell_power is not None:
        gens.append(power_of_linear([1] * n, ell_power, field))
    return gens


def ring_of(gens):
    """(nvars, field) of a non-empty list of homogeneous polynomials sharing one ring."""
    if not gens:
        raise PreconditionError("an empty generator list has no ring; "
                                "the zero ideal is generated by the zero polynomial")
    for g in gens:
        gens[0]._check_ring(g)
        g.homogeneous_degree()
    return gens[0].nvars, gens[0].field


def macaulay_columns(generators, j):
    """Column labels (generator index, shifting monomial) of the degree-j Macaulay matrix."""
    cols = []
    for g_idx, g in enumerate(generators):
        d = g.homogeneous_degree()
        if d is None or d > j:
            continue
        for m in monomials_of_degree(g.nvars, j - d):
            cols.append((g_idx, m))
    return cols


def term_exponents(g):
    """g's terms as an int64 exponent array (one row per term), and their coefficients."""
    terms = np.array(list(g.coeffs), dtype=np.int64).reshape(len(g.coeffs), g.nvars)
    return terms, list(g.coeffs.values())


def macaulay_matrix(generators, j):
    """Field array whose column space is the degree-j slice of the generated ideal.

    Rows run over the degree-j monomials in the fixed order; the columns follow
    `macaulay_columns`, one per product m * g with m a monomial of degree j - deg g.
    """
    nvars, field = ring_of(generators)
    nrows = len(monomials_of_degree(nvars, j))
    blocks = [field.zeros((nrows, 0))]
    for g in generators:
        d = g.homogeneous_degree()
        if d is None or d > j:
            continue
        terms, coeffs = term_exponents(g)
        rows = product_positions(exponent_array(nvars, j - d), terms)
        block = field.zeros((nrows, len(rows)))
        block[rows, np.arange(len(rows))[:, None]] = field.array([coeffs], len(coeffs))
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# text syntax: terms like ``3*x1^2*x3 - x2^4`` with variables x1..xn


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|x(?P<var>\d+)(?:\^(?P<pow>\d+))?|(?P<op>[+\-*]))")


def parse_polynomial(text, nvars=None, field=QQ, require_homogeneous=False):
    """Parse the CLI polynomial syntax into a Polynomial."""
    terms = []
    sign = 1
    coeff = None
    expo = {}

    def flush():
        nonlocal sign, coeff, expo
        if coeff is None and not expo:
            raise PreconditionError(f"malformed polynomial: {text!r}")
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
            if op == "*":
                continue
            if coeff is not None or expo:
                flush()
            if op == "-":
                sign = -sign
            continue
        if m.group("num"):
            value = Fraction(m.group("num"))
            coeff = value if coeff is None else coeff * value
        else:
            var = int(m.group("var")) - 1
            if var < 0:
                raise PreconditionError("variables are x1, x2, ...")
            power = int(m.group("pow") or 1)
            expo[var] = expo.get(var, 0) + power
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
    poly = Polynomial(nvars, field, coeffs)
    if require_homogeneous and not poly.is_homogeneous():
        raise NonHomogeneousError(f"non-homogeneous input: {text!r}")
    return poly


def format_polynomial(p):
    if p.is_zero():
        return "0"
    char = p.field.characteristic
    parts = []
    for mono in sorted(p.coeffs, key=monomial_key, reverse=True):
        coef = p.coeffs[mono]
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
