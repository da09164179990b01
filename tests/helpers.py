"""Shared builders for the test suite: cached oracle runs and sweeps."""

from functools import lru_cache
from itertools import combinations, product

from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    DegreeSequence,
    betti_from_quotient,
    linked_ideal,
    minimal_betti_oracle,
    monomials_of_degree,
    power_ideal,
    socle_dims,
)

FIELDS = {"qq": QQ, "p": GF_DEFAULT, "P": GF_PARANOIA}


def field_by_key(key):
    return FIELDS[key]


@lru_cache(maxsize=None)
def oracle_table(nvars, degrees, ell, kind, field_key="p"):
    """Resolution-oracle Betti table for the power ideal or its linked colon."""
    field = field_by_key(field_key)
    if kind == "aci":
        return minimal_betti_oracle(power_ideal(degrees, ell, field))
    return betti_from_quotient(linked_ideal(DegreeSequence(nvars, degrees, ell), field))


@lru_cache(maxsize=None)
def oracle_is_level(nvars, degrees, ell):
    """The oracle's verdict on the power ideal: is its socle in a single degree?"""
    return socle_dims(power_ideal(degrees, ell, GF_DEFAULT)).is_level


def sorted_multisets(values, size):
    """All nondecreasing tuples of the given size over `values`."""
    if size == 0:
        return [()]
    out = []

    def rec(prefix, start):
        if len(prefix) == size:
            out.append(tuple(prefix))
            return
        for k in range(start, len(values)):
            rec(prefix + [values[k]], k)

    rec([], 0)
    return out


def odd_parity_sweep(nvals, degree_values=(2, 3, 4), ell_values=(2, 3, 4)):
    """Minimally generated sequences with sum over all n+1 of (d_i - 1) odd."""
    out = []
    for n in nvals:
        for degs in sorted_multisets(degree_values, n):
            for e in ell_values:
                ds = DegreeSequence(n, degs, e)
                if ds.is_odd and ds.is_minimal:
                    out.append(ds)
    return out


def quadric_sum_sweep(nvals, degree_values=(2, 3, 4), ell_values=(2, 3, 4)):
    """Sequences containing a quadric whose reduced parity is odd, minimally generated."""
    out = []
    for n in nvals:
        for degs in sorted_multisets(degree_values, n):
            if 2 not in degs:
                continue
            for e in ell_values:
                ds = DegreeSequence(n, degs, e)
                _, _, reduced = ds.split_quadric()
                if reduced.is_odd and reduced.is_minimal:
                    out.append(ds)
    return out


def ordered_quadric_sweep(nvals, degree_values=(2, 3, 4)):
    """Every ordered choice of the n+1 degrees with at least one quadric, in any
    position: the last entry is the power of ell."""
    return [DegreeSequence(n, degs[:-1], degs[-1])
            for n in nvals for degs in product(degree_values, repeat=n + 1) if 2 in degs]


def renamed_oracle_table(ds, kind):
    """`oracle_table` of the sequence with its variable degrees sorted.

    Renaming the variables fixes ell = x_1 + .. + x_n and permutes the variable
    powers, so the table is that of the ideal as given, at one oracle run per
    multiset of variable degrees.
    """
    return oracle_table(ds.nvars, tuple(sorted(ds.degrees)), ds.ell_power, kind)


def is_symmetric(series):
    return list(series) == list(reversed(list(series)))


def monomial_index(nvars, degree):
    """Monomial -> position in monomials_of_degree(nvars, degree)."""
    return {m: k for k, m in enumerate(monomials_of_degree(nvars, degree))}


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def coeffs(p):
    """A polynomial's terms as {exponent tuple: coefficient}."""
    return dict(zip(map(tuple, p.exponents().tolist()), p.values.tolist()))


def dense_koszul_differential(quot, i, j):
    """The degree-j piece of the i-th Koszul differential over R/I as a dense
    field array, block by block: block (S minus v, S) is x_v, negated at odd
    positions of v in S."""
    n, field = quot.nvars, quot.field
    h0, h1 = quot.hf(j - i), quot.hf(j - i + 1)
    subs_lo = {S: b for b, S in enumerate(combinations(range(n), i - 1))}
    subs_hi = list(combinations(range(n), i))
    mat = field.zeros((len(subs_lo) * h1, len(subs_hi) * h0))
    for b, S in enumerate(subs_hi):
        for k, v in enumerate(S):
            rb = subs_lo[S[:k] + S[k + 1:]]
            block = quot.mult_variable(v, j - i)
            if k % 2:
                block = field.reduce(-block)
            mat[rb * h1:(rb + 1) * h1, b * h0:(b + 1) * h0] = block
    return mat
