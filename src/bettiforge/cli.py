"""Command-line surface: parse requests, dispatch to the library, render Betti
tables and series as text, JSON, or CSV.

Exit codes: 0 success, 1 precondition/usage error, 2 internal-consistency
failure (including --verify mismatches).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .apolarity import annihilator, lefschetz_check
from .errors import BettiForgeError, ConsistencyError, PreconditionError
from .exactalg import field_from_spec
from .formulas import BettiTable, betti_formula
from .hilbert import (
    DegreeSequence,
    ci_hilbert,
    ci_peak_interval,
    froberg_series,
    gorenstein_linked_hilbert,
)
from .polyring import Polynomial, format_polynomial, parse_polynomial, power_ideal
from .resolver import (
    GradedQuotient,
    betti_from_quotient,
    colon_ideal,
    minimal_betti_oracle,
    minimal_generators,
    syzygies_in_degree,
)
from .special import (
    check_colon_equals_plus,
    check_syzygy_property,
    check_xn_regular,
    enumerate_point_set,
    esym_annihilator_generators,
    lattice_path_count,
    random_generic_level_spotcheck,
)


# ---------------------------------------------------------------------------
# rendering


def render_betti_text(table):
    """The classical layout: the (i, j-i) cell holds beta_{i,j}, zeros printed as dots."""
    imax = table.max_index
    rmax = table.max_row
    header = [""] + [str(i) for i in range(imax + 1)]
    totals = ["total:"] + [str(v) for v in table.totals()]
    grid = [header, totals]
    for row in range(rmax + 1):
        cells = [f"{row}:"]
        for i in range(imax + 1):
            v = table.get(i, i + row)
            cells.append(str(v) if v else ".")
        grid.append(cells)
    widths = [max(len(line[c]) for line in grid) for c in range(imax + 2)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in grid]
    return "\n".join(lines)


def betti_to_json_dict(table, nvars):
    return {
        "n": nvars,
        "socle_degree": table.max_row,
        "entries": [{"i": i, "j": j, "beta": v} for (i, j), v in table.items()],
    }


def betti_from_json_dict(data):
    table = BettiTable()
    for entry in data["entries"]:
        table.set(entry["i"], entry["j"], entry["beta"])
    return table


def render_betti_csv(table):
    lines = ["i,j,beta"]
    lines += [f"{i},{j},{v}" for (i, j), v in table.items()]
    return "\n".join(lines)


def render_series(series, fmt, extra=None):
    if fmt == "json":
        payload = {"coefficients": list(series)}
        payload.update(extra or {})
        return json.dumps(payload)
    if fmt == "csv":
        lines = ["j,h"] + [f"{j},{v}" for j, v in enumerate(series)]
        return "\n".join(lines)
    return " ".join(str(v) for v in series)


def emit_table(table, nvars, fmt):
    if fmt == "json":
        return json.dumps(betti_to_json_dict(table, nvars))
    if fmt == "csv":
        return render_betti_csv(table)
    return render_betti_text(table)


# ---------------------------------------------------------------------------
# shared argument plumbing


def _parse_degrees(text):
    try:
        degrees = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise PreconditionError(f"malformed degree list {text!r}") from None
    if not degrees:
        raise PreconditionError("empty degree list")
    return degrees


def _field(args):
    spec = getattr(args, "field", None) or os.environ.get("BETTIFORGE_FIELD")
    return field_from_spec(spec)


def _degree_sequence(args, need_ell=True):
    degrees = _parse_degrees(args.degrees)
    ell = getattr(args, "ell_power", None)
    if need_ell and ell is None:
        raise PreconditionError("--ell-power is required here")
    return DegreeSequence(len(degrees), degrees, ell)


def _oracle_table(ds, field, colon):
    gens = power_ideal(ds.degrees, ds.ell_power, field)
    if colon:
        slices = colon_ideal(gens[:-1], gens[-1])
        return betti_from_quotient(GradedQuotient(slices))
    return minimal_betti_oracle(gens)


def _diff_tables(formula, oracle):
    """The (i, j) cells where the two tables differ, in sorted order."""
    keys = sorted(set(formula.entries) | set(oracle.entries))
    return [key for key in keys if formula.get(*key) != oracle.get(*key)]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hilbert(args):
    fmt = args.format
    if args.kind == "ci":
        degrees = _parse_degrees(args.degrees)
        series = ci_hilbert(degrees)
        extra = {"peak": list(ci_peak_interval(degrees))}
        print(render_series(series, fmt, extra))
    elif args.kind == "froberg":
        degrees = _parse_degrees(args.degrees)
        nvars = args.nvars or len(degrees)
        fro = froberg_series(nvars, degrees)
        extra = {"first_nonpositive": fro.first_nonpositive,
                 "socle_degree": fro.socle_degree}
        print(render_series(fro.coefficients, fmt, extra))
    else:
        ds = _degree_sequence(args)
        series = gorenstein_linked_hilbert(ds)
        print(render_series(series, fmt, {"socle_degree": len(series) - 1}))
    return 0


def _cmd_betti(args):
    field = _field(args)
    fmt = args.format
    if args.mode == "oracle":
        if args.gens:
            gens = [parse_polynomial(g, nvars=args.nvars, field=field,
                                     require_homogeneous=True)
                    for g in args.gens.split(";")]
            nvars = args.nvars or max(g.nvars for g in gens)
            gens = [Polynomial(nvars, field, {(m + (0,) * (nvars - g.nvars)): c
                                              for m, c in g.coeffs.items()})
                    for g in gens]
            table = minimal_betti_oracle(gens, nvars, field)
            print(emit_table(table, nvars, fmt))
            return 0
        ds = _degree_sequence(args)
        table = _oracle_table(ds, field, args.colon)
        print(emit_table(table, ds.nvars, fmt))
        return 0
    ds = _degree_sequence(args)
    if args.mode == "sum" and 2 in ds.all_degrees():
        where = ds.all_degrees().index(2)
        print(f"# quadric generator found at position {where + 1}", file=sys.stderr)
    table = betti_formula(ds, args.target)
    if args.verify:
        oracle = _oracle_table(ds, field, args.target == "gorenstein")
        diff = _diff_tables(table, oracle)
        if diff:
            print(f"verify failed: {len(diff)} differing entries", file=sys.stderr)
            for i, j in diff:
                print(f"({i}, {j}): formula {table.get(i, j)} oracle {oracle.get(i, j)}",
                      file=sys.stderr)
            return 2
    print(emit_table(table, ds.nvars, fmt))
    return 0


def _cmd_colon(args):
    field = _field(args)
    ds = _degree_sequence(args)
    gens = power_ideal(ds.degrees, ds.ell_power, field)
    if args.f:
        f = parse_polynomial(args.f, nvars=ds.nvars, field=field, require_homogeneous=True)
        slices = colon_ideal(gens, f)
    else:
        slices = colon_ideal(gens[:-1], gens[-1])
    series = slices.hilbert_values()
    top = max((j for j, v in enumerate(series) if v), default=0)
    gens_out = minimal_generators(slices)
    if args.format == "json":
        print(json.dumps({
            "hilbert": series[:top + 1],
            "generators": [format_polynomial(g) for g in gens_out],
        }))
    else:
        print(render_series(series[:top + 1], args.format))
        for g in gens_out:
            print(format_polynomial(g))
    return 0


def _cmd_annihilator(args):
    field = _field(args)
    form = parse_polynomial(args.form, nvars=args.nvars, field=field,
                            require_homogeneous=True)
    slices = annihilator(form)
    series = slices.hilbert_values()
    top = max((j for j, v in enumerate(series) if v), default=0)
    gens_out = minimal_generators(slices)
    if args.format == "json":
        print(json.dumps({
            "hilbert": series[:top + 1],
            "generators": [format_polynomial(g) for g in gens_out],
        }))
    else:
        print(render_series(series[:top + 1], args.format))
        for g in gens_out:
            print(format_polynomial(g))
    return 0


def _cmd_esym(args):
    if args.kind == "count":
        print(lattice_path_count(args.nvars, args.d))
        return 0
    field = _field(args)
    gens = esym_annihilator_generators(args.nvars, args.d, field)
    if args.format == "json":
        print(json.dumps([format_polynomial(g) for g in gens]))
    else:
        for g in gens:
            print(format_polynomial(g))
    return 0


def _cmd_lefschetz(args):
    field = _field(args)
    ds = _degree_sequence(args, need_ell=args.colon or args.ell_power is not None)
    gens = power_ideal(ds.degrees, ds.ell_power, field)
    if args.colon:
        source = colon_ideal(gens[:-1], gens[-1])
    else:
        source = gens
    ell = None
    if args.ell:
        ell = parse_polynomial(args.ell, nvars=ds.nvars, field=field,
                               require_homogeneous=True)
    report = lefschetz_check(source, ell=ell, mode=args.mode.upper(),
                             nvars=ds.nvars, field=field)
    if args.format == "json":
        print(json.dumps({
            "verdict": report.verdict,
            "element": format_polynomial(report.element),
            "checks": [{"i": c.source_degree, "power": c.power,
                        "dims": [c.dim_source, c.dim_target], "rank": c.rank}
                       for c in report.checks],
        }))
    else:
        print(report.verdict)
    return 0


def _cmd_check(args):
    field = _field(args)
    if args.kind == "generic-level":
        degrees = _parse_degrees(args.degrees)
        ok = all(random_generic_level_spotcheck(args.nvars, degrees, args.seed + k)
                 for k in range(args.draws))
        print("level" if ok else "NOT level")
        return 0 if ok else 2
    ds = _degree_sequence(args)
    if args.kind == "point-set":
        pts = enumerate_point_set(ds)
        print(json.dumps({"count": pts.count, "points": [list(p) for p in pts.points]}))
        return 0
    if args.kind == "regular":
        ok = check_xn_regular(ds, field)
        print("regular" if ok else "NOT regular")
        return 0 if ok else 2
    if args.kind == "colon-plus":
        ok = check_colon_equals_plus(ds, field)
        print("equal" if ok else "NOT equal")
        return 0 if ok else 2
    # syzygy: every syzygy satisfies the property only at odd reduced sum t
    normalized, _, reduced = ds.split_quadric()
    reduced.require_odd()
    gens = power_ideal(normalized.degrees, normalized.ell_power, field)
    dmax = args.max_degree or 2 * max(ds.all_degrees()) + 2
    total = 0
    for j in range(2, dmax + 1):
        for rel in syzygies_in_degree(gens, j):
            total += 1
            if not check_syzygy_property(ds, rel):
                print(f"syzygy in degree {j} fails the membership property")
                return 2
    print(f"all {total} syzygy basis elements up to degree {dmax} pass")
    return 0


# ---------------------------------------------------------------------------
# parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _full_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except BettiForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _full_parser():
    parser = argparse.ArgumentParser(
        prog="bettiforge",
        description="Exact Betti tables, Hilbert series and inverse systems for "
                    "ideals generated by powers of general linear forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degrees=True, ell=True, fmt=True, field=True):
        if degrees:
            p.add_argument("--degrees", required=True,
                           help="comma-separated variable powers d1,..,dn")
        if ell:
            p.add_argument("--ell-power", type=int, default=None,
                           help="power of the linear form x1+..+xn")
        if field:
            p.add_argument("--field", default=None,
                           help="rational | prime:p | p (default GF(65521); env BETTIFORGE_FIELD)")
        if fmt:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("hilbert", help="Hilbert series of the standard quotients")
    p.add_argument("kind", choices=("ci", "froberg", "linked"))
    common(p, field=False)
    p.add_argument("--nvars", type=int, default=None)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("betti", help="graded Betti tables, closed form or oracle")
    modes = p.add_subparsers(dest="group", required=True)

    pf = modes.add_parser("formula", help="closed-form tables, dispatched on the parity of "
                                          "T = sum over all n+1 generators of (d_i - 1)")
    kinds = pf.add_subparsers(dest="mode", required=True)
    helps = {"aci": "the ideal; odd T, or a square on any generator, ell^e included",
             "gorenstein": "its link (x_i^d_i) : ell^e; odd T, or a square among the x_i^d_i",
             "sum": "aci or gorenstein by --target; prints where the first square is"}
    for mode in ("aci", "gorenstein", "sum"):
        q = kinds.add_parser(mode, help=helps[mode])
        common(q)
        q.add_argument("--verify", action="store_true",
                       help="recompute through the resolution oracle and diff")
        if mode == "sum":
            q.add_argument("--target", choices=("aci", "gorenstein"))
        q.set_defaults(func=_cmd_betti, mode=mode, target="aci" if mode == "sum" else mode)

    po = modes.add_parser("oracle", help="brute-force resolution oracle")
    po.add_argument("--degrees", default=None)
    po.add_argument("--ell-power", type=int, default=None)
    po.add_argument("--gens", default=None,
                    help="semicolon-separated homogeneous polynomials")
    po.add_argument("--nvars", type=int, default=None)
    po.add_argument("--colon", action="store_true",
                    help="resolve the linked colon quotient instead")
    po.add_argument("--field", default=None)
    po.add_argument("--format", choices=("text", "json", "csv"), default="text")
    po.set_defaults(func=_cmd_betti, mode="oracle", verify=False)

    p = sub.add_parser("colon", help="the linked colon ideal: Hilbert function and generators")
    common(p)
    p.add_argument("--f", default=None, help="colon by this polynomial instead of ell^e")
    p.set_defaults(func=_cmd_colon)

    p = sub.add_parser("annihilator", help="apolar ideal of a dual form")
    p.add_argument("--form", required=True)
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_annihilator)

    p = sub.add_parser("esym", help="annihilator of an elementary symmetric polynomial")
    p.add_argument("kind", choices=("gens", "count"))
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--field", default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_esym)

    p = sub.add_parser("lefschetz", help="weak/strong Lefschetz rank check")
    common(p)
    p.add_argument("--colon", action="store_true")
    p.add_argument("--mode", choices=("slp", "wlp"), default="slp")
    p.add_argument("--ell", default=None, help="candidate linear form (default x1+..+xn)")
    p.set_defaults(func=_cmd_lefschetz)

    p = sub.add_parser("check", help="structural verifications")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("syzygy", "point-set", "regular", "colon-plus"):
        q = kinds.add_parser(kind)
        common(q)
        if kind == "syzygy":
            q.add_argument("--max-degree", type=int, default=None)
        q.set_defaults(func=_cmd_check, kind=kind)
    q = kinds.add_parser("generic-level")
    q.add_argument("--nvars", type=int, required=True)
    q.add_argument("--degrees", required=True, help="n+1 form degrees, one equal to 2")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--draws", type=int, default=1)
    q.add_argument("--field", default=None)
    q.set_defaults(func=_cmd_check, kind="generic-level")

    return parser


if __name__ == "__main__":
    sys.exit(main())
