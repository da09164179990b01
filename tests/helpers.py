"""Shared builders for the test suite: cached oracle runs and sweeps."""

from functools import lru_cache
from itertools import product

from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    DegreeSequence,
    betti_from_quotient,
    linked_ideal,
    minimal_betti_oracle,
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
