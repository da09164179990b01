"""Reference checker: what each benchmark request must print.

- `betti formula ... --verify` over GF(65521): the closed-formula table,
  computed directly from `bettiforge.formulas` (the oracle is only reached
  through the request itself, whose exit code reports the diff).
- the same requests over another field: the GF(65521) table recorded in
  `reference.json`.
- `colon`: the Hilbert function from `gorenstein_linked_hilbert`, and the
  generator count in each degree from beta_1 of the Gorenstein or sum formula.
- `lefschetz --colon`: the verdict and rank list recorded in `reference.json`.

Record `reference.json` again with `python3 perfbench/reference.py`; it runs
every request that needs a recorded answer over GF(65521).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

RECORDED = Path(__file__).with_name("reference.json")
_EXPONENT = re.compile(r"x\d+(?:\^(\d+))?")


def _recorded_key(case):
    """Cases with a field share the recorded answer of their GF(65521) twin."""
    return replace(case, field=None).key


def needs_recording(case):
    return case.kind == "lefschetz" or case.field is not None


def _formula_table(kind, degrees, ell):
    from bettiforge.formulas import betti_aci_odd, betti_gorenstein_odd, betti_sum_formula
    from bettiforge.hilbert import DegreeSequence

    ds = DegreeSequence(len(degrees), degrees, ell)
    if kind == "aci":
        table = betti_aci_odd(ds)
    elif kind == "gorenstein":
        table = betti_gorenstein_odd(ds)
    else:
        table = betti_sum_formula(ds, target=kind[len("sum-"):])
    return {(i, j): v for (i, j), v in table.items()}


def _entries(data):
    return {(e["i"], e["j"]): e["beta"] for e in data["entries"]}


def generator_degree(text):
    """Degree of a homogeneous polynomial printed by `format_polynomial`."""
    first = text.lstrip("-").split(" ")[0]
    return sum(int(power or 1) for power in _EXPONENT.findall(first))


class Reference:
    """Expected outputs per case, computed once and compared per request."""

    def __init__(self, recorded=None):
        if recorded is None:
            recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
        self.recorded = recorded
        self._expected = {}

    def expected(self, case):
        if case.key not in self._expected:
            self._expected[case.key] = self._compute(case)
        return self._expected[case.key]

    def _compute(self, case):
        if needs_recording(case):
            key = _recorded_key(case)
            if key not in self.recorded:
                raise KeyError(f"no recorded reference for {key!r}")
            data = self.recorded[key]
            if case.kind == "lefschetz":
                return {"verdict": data["verdict"], "checks": data["checks"]}
            return {"n": data["n"], "entries": _entries(data)}
        if case.kind == "colon":
            from bettiforge.hilbert import DegreeSequence, gorenstein_linked_hilbert

            ds = DegreeSequence(len(case.degrees), case.degrees, case.ell)
            kind = "sum-gorenstein" if 2 in case.degrees else "gorenstein"
            table = _formula_table(kind, case.degrees, case.ell)
            return {"hilbert": gorenstein_linked_hilbert(ds),
                    "generator_degrees": {j: v for (i, j), v in table.items() if i == 1}}
        return {"n": len(case.degrees),
                "entries": _formula_table(case.kind, case.degrees, case.ell)}

    def mismatch(self, case, code, out):
        """None when the request printed the expected answer, else what differs."""
        if code != 0:
            return f"exit code {code}"
        want = self.expected(case)
        try:
            got = json.loads(out)
            if case.kind == "colon":
                degrees = dict(Counter(generator_degree(g) for g in got["generators"]))
                got = {"hilbert": got["hilbert"], "generator_degrees": degrees}
            elif case.kind == "lefschetz":
                got = {"verdict": got["verdict"], "checks": got["checks"]}
            else:
                got = {"n": got["n"], "entries": _entries(got)}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        for field in want:
            if got[field] != want[field]:
                return f"{field}: printed {got[field]!r}, expected {want[field]!r}"
        return None


def record(cases):
    """Run each case over GF(65521) through the CLI and keep its JSON answer."""
    from bettiforge.cli import main

    out = {}
    for case in cases:
        key = _recorded_key(case)
        if key in out:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(replace(case, field=None).argv)
        if code != 0:
            raise SystemExit(f"{key}: exit code {code}")
        out[key] = json.loads(buf.getvalue())
    return out


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, build_cases

    todo = [c for w in WORKLOADS for smoke in (False, True)
            for c in build_cases(w, smoke) if needs_recording(c)]
    answers = record(todo)
    lines = [f"{json.dumps(k)}: {json.dumps(answers[k])}" for k in sorted(answers)]
    RECORDED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(todo)} requests in {RECORDED}")
