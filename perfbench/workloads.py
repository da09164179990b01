"""Fixed case lists of `bettiforge` CLI requests, one list per workload.

Every case is a structured request; `argv` renders it for `bettiforge.cli.main`
and the reference checker reads the structured fields, never the text. All
cases run over GF(65521) unless they carry a field.
"""

from __future__ import annotations

from dataclasses import dataclass

PARANOIA = "1073741789"


@dataclass(frozen=True)
class Case:
    """One CLI request.

    kind is `aci`, `gorenstein`, `sum-aci` or `sum-gorenstein` for
    `betti formula ... --verify`, or `colon` / `lefschetz` (the latter always
    with `--colon`).
    """

    kind: str
    degrees: tuple
    ell: int
    field: str | None = None

    @property
    def key(self):
        field = f" field={self.field}" if self.field else ""
        return f"{self.kind} {','.join(map(str, self.degrees))} e={self.ell}{field}"

    @property
    def argv(self):
        common = ["--degrees", ",".join(map(str, self.degrees)),
                  "--ell-power", str(self.ell), "--format", "json"]
        if self.field:
            common += ["--field", self.field]
        if self.kind == "colon":
            return ["colon"] + common
        if self.kind == "lefschetz":
            return ["lefschetz", "--colon"] + common
        if self.kind.startswith("sum-"):
            return ["betti", "formula", "sum", "--target", self.kind[4:], "--verify"] + common
        return ["betti", "formula", self.kind, "--verify"] + common


def _multisets(values, size, start=0):
    """Nondecreasing tuples of `size` entries drawn from `values`."""
    if size == 0:
        return [()]
    return [(values[k],) + rest
            for k in range(start, len(values))
            for rest in _multisets(values, size - 1, k)]


def odd_parity_sweep(nvals, degree_values=(2, 3, 4), ell_values=(2, 3, 4)):
    """(degrees, e) with sum over all n+1 generators of (d - 1) odd and e <= sum(d_i - 1)."""
    out = []
    for n in nvals:
        for degs in _multisets(degree_values, n):
            vsum = sum(d - 1 for d in degs)
            out += [(degs, e) for e in ell_values if (vsum + e - 1) % 2 and e <= vsum]
    return out


def quadric_sum_sweep(nvals, degree_values=(2, 3, 4), ell_values=(2, 3, 4)):
    """(degrees, e) holding a quadric whose reduced sequence has odd parity and e minimal."""
    out = []
    for n in nvals:
        for degs in _multisets(degree_values, n):
            if 2 not in degs:
                continue
            reduced = sum(d - 1 for d in degs) - 1
            out += [(degs, e) for e in ell_values if (reduced + e - 1) % 2 and e <= reduced]
    return out


def _sweep(odd_nvals, sum_nvals):
    cases = [Case(kind, degs, e) for degs, e in odd_parity_sweep(odd_nvals)
             for kind in ("aci", "gorenstein")]
    cases += [Case(kind, degs, e) for degs, e in quadric_sum_sweep(sum_nvals)
              for kind in ("sum-aci", "sum-gorenstein")]
    return cases


def _koszul_large():
    # n=6 cubes at e=2, not e=4: the e=4 request alone takes 21-28 s, a single
    # sample per run that would also crowd the run budget.
    return [Case(kind, degs, e) for degs, e in (((3,) * 6, 2), ((4,) * 5, 3))
            for kind in ("aci", "gorenstein")]


def _linked_gens():
    # Without colon on (4,4,4,4,4) e=5 (6 s), so that several passes fit a run.
    return [Case("colon", (4, 4, 4, 4, 2), 4),
            Case("lefschetz", (4,) * 5, 3), Case("lefschetz", (3,) * 6, 4)]


def _exact_fields():
    return [Case("aci", (3,) * 5, 2, "rational"), Case("aci", (4,) * 4, 4, "rational"),
            Case("aci", (4,) * 5, 3, PARANOIA)]


# Full lists, and tiny lists of the same request kinds for the smoke mode.
WORKLOADS = {
    "koszul-large": (_koszul_large, lambda: [Case("aci", (3, 3, 3), 2),
                                            Case("gorenstein", (3, 3, 3), 2)]),
    "sweep-verify": (lambda: _sweep(range(2, 5), range(2, 6)), lambda: _sweep([2], [2, 3])),
    "linked-gens": (_linked_gens, lambda: [Case("colon", (3, 3, 2), 2),
                                          Case("colon", (3, 3, 3), 2),
                                          Case("lefschetz", (3, 3, 3), 2)]),
    "exact-fields": (_exact_fields, lambda: [Case("aci", (3, 3), 2, "rational"),
                                            Case("aci", (3, 3, 3), 2, PARANOIA)]),
}


def build_cases(workload, smoke=False):
    full, tiny = WORKLOADS[workload]
    return (tiny if smoke else full)()
