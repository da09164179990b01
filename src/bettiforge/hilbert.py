"""Hilbert series arithmetic for Artinian quotients.

Series are plain integer coefficient lists h_0..h_s with a nonzero trailing
entry; no rational-function representation is kept since every algebra in
scope is Artinian.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import MinimalityError, ParityError, PreconditionError


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees (d_1..d_n) for the variable powers, plus an optional power e for
    the sum-of-variables linear form ell.  Parity checks on T = total_sum and the
    moves of a quadric generator (`split_quadric`, `aci_orientation`) live here."""

    nvars: int
    degrees: tuple
    ell_power: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if len(self.degrees) != self.nvars:
            raise PreconditionError("need exactly one degree per variable")
        if any(d < 1 for d in self.degrees):
            raise PreconditionError("degrees must be >= 1")
        if self.ell_power is not None and self.ell_power < 1:
            raise PreconditionError("the linear-form power must be >= 1")

    @property
    def variable_sum(self):
        """sum (d_i - 1) over the variable powers."""
        return sum(d - 1 for d in self.degrees)

    @property
    def total_sum(self):
        """T = sum (d_i - 1) over all n+1 generators."""
        return self.variable_sum + self.require_ell() - 1

    @property
    def is_odd(self):
        return self.total_sum % 2 == 1

    def require_odd(self):
        if not self.is_odd:
            raise ParityError(self.total_sum)

    def require_ell(self):
        if self.ell_power is None:
            raise PreconditionError("this operation needs the linear-form power")
        return self.ell_power

    @property
    def is_minimal(self):
        """The arithmetic bound: ell^e stays outside the monomial complete intersection."""
        return self.require_ell() <= self.variable_sum

    def require_minimal(self):
        """Refuse an ell^e inside (x_i^d_i), whose link is the unit ideal."""
        if not self.is_minimal:
            raise MinimalityError(f"ell power {self.ell_power} exceeds {self.variable_sum}: "
                                  "the colon ideal is the unit ideal")

    @property
    def linked_socle_degree(self):
        """Socle degree of the linked Gorenstein quotient."""
        return self.variable_sum - self.require_ell()

    def split_quadric(self):
        """(normalized, position, reduced): the first quadric among the variable
        powers moved to x_n, its 0-based position, and the (n-1)-variable sequence
        without x_n^2, whose total_sum is the reduced t = T - 1."""
        try:
            k = self.degrees.index(2)
        except ValueError:
            raise PreconditionError("no quadric among the variable degrees") from None
        rest = self.degrees[:k] + self.degrees[k + 1:]
        return (DegreeSequence(self.nvars, rest + (2,), self.ell_power), k,
                DegreeSequence(self.nvars - 1, rest, self.ell_power))

    def aci_orientation(self):
        """The same ideal with ell on the smallest degree (at even T, the smallest
        besides one quadric kept back as x_n^2), the most lenient choice for
        `is_minimal`.  Any n+1 general linear forms are projectively equivalent
        (y_i = -x_i for i < n and y_n = ell give x_n = sum y_i)."""
        rest = list(self.all_degrees())
        last = [rest.pop(rest.index(2))] if not self.is_odd and 2 in rest else []
        e = min(rest)
        rest.remove(e)
        return DegreeSequence(self.nvars, rest + last, e)

    def all_degrees(self):
        return self.degrees + (self.require_ell(),)


def ci_hilbert(degrees):
    """Hilbert function of k[x_1..x_n]/(x_1^d1,..,x_n^dn): prod (1+T+..+T^(di-1))."""
    if len(degrees) < 1:
        raise PreconditionError("need at least one degree")
    DegreeSequence(len(degrees), degrees)  # refuses degrees below 1
    series = [1]
    for d in degrees:
        out = [0] * (len(series) + d - 1)
        for i, v in enumerate(series):
            for k in range(d):
                out[i + k] += v
        series = out
    return series


def ci_peak_interval(degrees):
    """Maximal interval on which the complete-intersection Hilbert function peaks."""
    ds = sorted(degrees)
    t = sum(d - 1 for d in ds)
    dmax = ds[-1]
    if 2 * dmax <= t + 1:
        if t % 2 == 0:
            return (t // 2, t // 2)
        return ((t - 1) // 2, (t + 1) // 2)
    t_prime = sum(d - 1 for d in ds[:-1])
    return (t_prime, dmax - 1)


@dataclass(frozen=True)
class FrobergSeries:
    """Truncated series plus the value of the first non-positive coefficient
    (None when no non-positive coefficient appears inside the bound)."""

    coefficients: tuple
    first_nonpositive: int | None

    @property
    def socle_degree(self):
        return len(self.coefficients) - 1


def froberg_series(nvars, degrees, max_degree=None):
    """[prod (1 - T^di) / (1 - T)^nvars] truncated at the first non-positive coefficient."""
    if len(degrees) < 1:
        raise PreconditionError("need at least one form degree")
    DegreeSequence(len(degrees), degrees)  # refuses degrees below 1
    if nvars < 1:
        raise PreconditionError("need at least one variable")
    if max_degree is None:
        max_degree = sum(d - 1 for d in degrees) + 1
    coeffs = [comb(nvars - 1 + j, nvars - 1) for j in range(max_degree + 1)]
    for d in degrees:
        coeffs = [coeffs[j] - (coeffs[j - d] if j >= d else 0) for j in range(max_degree + 1)]
    for j, v in enumerate(coeffs):
        if v <= 0:
            return FrobergSeries(tuple(coeffs[:j]), v)
    return FrobergSeries(tuple(coeffs), None)


def gorenstein_linked_hilbert(ds):
    """Hilbert function of the Gorenstein algebra linked through the complete intersection.

    Low half copied from the complete-intersection series, completed by symmetry;
    length is (socle degree + 1) with socle degree sum(d_i - 1) - e.
    """
    ds.require_minimal()
    socle = ds.linked_socle_degree
    ci = ci_hilbert(ds.degrees)
    out = [0] * (socle + 1)
    for j in range(socle + 1):
        out[j] = ci[j] if 2 * j <= socle else out[socle - j]
    return out


def multiplicity_of_truncation(degrees):
    """[T^((t-1)/2)] prod (1 - T^di) / (1 - T)^n for n degrees in n variables, t odd."""
    t = sum(d - 1 for d in degrees)
    if t % 2 == 0:
        raise ParityError(t)
    return ci_hilbert(degrees)[(t - 1) // 2]


def series_numerator(series, nvars):
    """Coefficients of series(T) * (1 - T)^nvars."""
    out = [0] * (len(series) + nvars)
    for j, v in enumerate(series):
        for k in range(nvars + 1):
            out[j + k] += v * ((-1) ** k) * comb(nvars, k)
    return out
