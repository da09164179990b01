"""Command-line surface: parse requests, dispatch to the library, render Betti
tables and series as text, JSON, or CSV.

Commands are declared in one table, `COMMANDS` (words, handler, fixed values,
arguments), with shared arguments once in `SHARED`. A row declares exactly the
arguments its handler reads for it (a test checks this). `main` builds a parser
per call that builds a group's commands only when argv names that group, and
gives arguments only to the command argv names.

Exit codes: 0 success, 1 precondition/usage error, 2 internal-consistency
failure (including --verify mismatches).
"""

from __future__ import annotations

import argparse
import json
import sys

from .apolarity import annihilator, lefschetz_check
from .errors import BettiForgeError, ConsistencyError, PreconditionError
from .exactalg import field_from_spec
from .formulas import betti_formula
from .hilbert import (
    DegreeSequence,
    ci_hilbert,
    ci_peak_interval,
    froberg_series,
    gorenstein_linked_hilbert,
)
from .polyring import format_polynomial, parse_polynomial, power_ideal
from .resolver import (
    betti_from_quotient,
    colon_ideal,
    linked_ideal,
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


def _degree_sequence(args, need_ell=True):
    degrees = _parse_degrees(args.degrees)
    if need_ell and args.ell_power is None:
        raise PreconditionError("--ell-power is required here")
    return DegreeSequence(len(degrees), degrees, args.ell_power)


def _oracle_table(ds, field, colon):
    if colon:
        return betti_from_quotient(linked_ideal(ds, field))
    return minimal_betti_oracle(power_ideal(ds.degrees, ds.ell_power, field))


def _diff_tables(formula, oracle):
    """The (i, j) cells where the two tables differ, in sorted order."""
    keys = sorted(set(formula.entries) | set(oracle.entries))
    return [key for key in keys if formula.get(*key) != oracle.get(*key)]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hilbert(args):
    if args.kind == "ci":
        degrees = _parse_degrees(args.degrees)
        series = ci_hilbert(degrees)
        extra = {"peak": list(ci_peak_interval(degrees))}
    elif args.kind == "froberg":
        degrees = _parse_degrees(args.degrees)
        fro = froberg_series(len(degrees) if args.nvars is None else args.nvars, degrees)
        series = fro.coefficients
        extra = {"first_nonpositive": fro.first_nonpositive,
                 "socle_degree": fro.socle_degree}
    else:
        series = gorenstein_linked_hilbert(_degree_sequence(args))
        extra = {"socle_degree": len(series) - 1}
    print(render_series(series, args.format, extra))
    return 0


def _cmd_betti(args):
    field = field_from_spec(args.field)
    fmt = args.format
    if args.mode == "oracle":
        if args.gens is not None:
            if args.degrees is not None or args.ell_power is not None or args.colon:
                raise PreconditionError("--gens takes no --degrees, --ell-power or --colon")
            texts = args.gens.split(";")
            nvars = args.nvars
            if nvars is None:
                nvars = max(parse_polynomial(g, field=field).nvars for g in texts)
            gens = [parse_polynomial(g, nvars=nvars, field=field) for g in texts]
            print(emit_table(minimal_betti_oracle(gens), nvars, fmt))
            return 0
        if args.nvars is not None:
            raise PreconditionError("--nvars needs --gens")
        if args.degrees is None:
            raise PreconditionError("--gens or --degrees is required")
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


def _print_ideal(quot, fmt):
    """The Hilbert function up to the socle degree, then the minimal generators."""
    series = quot.hilbert()
    gens_out = minimal_generators(quot)
    if fmt == "json":
        print(json.dumps({
            "hilbert": series,
            "generators": [format_polynomial(g) for g in gens_out],
        }))
    else:
        print(render_series(series, fmt))
        for g in gens_out:
            print(format_polynomial(g))


def _cmd_colon(args):
    field = field_from_spec(args.field)
    ds = _degree_sequence(args)
    if args.f is not None:
        f = parse_polynomial(args.f, nvars=ds.nvars, field=field)
        quot = colon_ideal(power_ideal(ds.degrees, ds.ell_power, field), f)
    else:
        quot = linked_ideal(ds, field)
    _print_ideal(quot, args.format)
    return 0


def _cmd_annihilator(args):
    field = field_from_spec(args.field)
    form = parse_polynomial(args.form, nvars=args.nvars, field=field)
    _print_ideal(annihilator(form), args.format)
    return 0


def _cmd_esym(args):
    if args.kind == "count":
        print(lattice_path_count(args.nvars, args.d))
        return 0
    field = field_from_spec(args.field)
    gens = esym_annihilator_generators(args.nvars, args.d, field)
    if args.format == "json":
        print(json.dumps([format_polynomial(g) for g in gens]))
    else:
        for g in gens:
            print(format_polynomial(g))
    return 0


def _cmd_lefschetz(args):
    field = field_from_spec(args.field)
    ds = _degree_sequence(args, need_ell=args.colon or args.ell_power is not None)
    if args.colon:
        source = linked_ideal(ds, field)
    else:
        source = power_ideal(ds.degrees, ds.ell_power, field)
    ell = None
    if args.ell is not None:
        ell = parse_polynomial(args.ell, nvars=ds.nvars, field=field)
    report = lefschetz_check(source, ell=ell, mode=args.mode)
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
    if args.kind == "generic-level":
        if args.draws < 1:
            raise PreconditionError("--draws must be at least 1")
        degrees = _parse_degrees(args.degrees)
        ok = all(random_generic_level_spotcheck(args.nvars, degrees, args.seed + k)
                 for k in range(args.draws))
        print("level" if ok else "NOT level")
        return 0 if ok else 2
    if args.kind == "point-set":
        pts = enumerate_point_set(_degree_sequence(args))
        print(json.dumps({"count": pts.count, "points": [list(p) for p in pts.points]}))
        return 0
    field = field_from_spec(args.field)
    ds = _degree_sequence(args)
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
    dmax = 2 * max(ds.all_degrees()) + 2 if args.max_degree is None else args.max_degree
    total = 0
    for j in range(2, dmax + 1):
        for rel in syzygies_in_degree(gens, j):
            total += 1
            if not check_syzygy_property(ds, rel):
                print(f"syzygy in degree {j} fails the membership property")
                return 2
    if not total:
        raise PreconditionError(f"no syzygy up to degree {dmax}: nothing to check")
    print(f"all {total} syzygy basis elements up to degree {dmax} pass")
    return 0


# ---------------------------------------------------------------------------
# command table


SHARED = {
    "--degrees": {"required": True, "help": "comma-separated variable powers d1,..,dn"},
    "--ell-power": {"type": int, "help": "power of the linear form x1+..+xn"},
    "--field": {"help": "rational | prime:p | p (default GF(65521))"},
    "--format": {"choices": ("text", "json", "csv"), "default": "text"},
    "--nvars": {"type": int},
}
# the arguments of a request on (x_1^d_1, .., x_n^d_n, ell^e)
RING = ("--degrees", "--ell-power", "--field")
IDEAL = RING + ("--format",)
TEXT_OR_JSON = ("--format", {"choices": ("text", "json")})
VERIFY = ("--verify", {"action": "store_true",
                       "help": "recompute through the resolution oracle and diff"})
ESYM = (("--nvars", {"required": True}), ("--d", {"type": int, "required": True}))

# the words that take a subcommand: the dest it is stored in, and the word's help line
GROUPS = {
    (): ("command", None),
    ("hilbert",): ("kind", "Hilbert series of the standard quotients"),
    ("betti",): ("group", "graded Betti tables, closed form or oracle"),
    ("betti", "formula"): ("mode", "closed-form tables, dispatched on the parity of "
                                   "T = sum over all n+1 generators of (d_i - 1)"),
    ("esym",): ("kind", "annihilator of an elementary symmetric polynomial"),
    ("check",): ("kind", "structural verifications"),
}

# One row per command: its words, help line, handler, set_defaults beyond the
# handler (a GROUPS dest already holds the word), and its arguments in help
# order, each a SHARED name or (name, add_argument keywords over SHARED's).
COMMANDS = (
    (("hilbert", "ci"), None, _cmd_hilbert, {}, ("--degrees", "--format")),
    (("hilbert", "froberg"), None, _cmd_hilbert, {}, ("--degrees", "--format", "--nvars")),
    (("hilbert", "linked"), None, _cmd_hilbert, {}, ("--degrees", "--ell-power", "--format")),
    (("betti", "formula", "aci"),
     "the ideal; odd T, or a square on any generator, ell^e included",
     _cmd_betti, {"target": "aci"}, IDEAL + (VERIFY,)),
    (("betti", "formula", "gorenstein"),
     "its link (x_i^d_i) : ell^e; odd T, or a square among the x_i^d_i",
     _cmd_betti, {"target": "gorenstein"}, IDEAL + (VERIFY,)),
    (("betti", "formula", "sum"),
     "aci or gorenstein by --target; prints where the first square is",
     _cmd_betti, {"target": "aci"},
     IDEAL + (VERIFY, ("--target", {"choices": ("aci", "gorenstein")}))),
    (("betti", "oracle"), "brute-force resolution oracle", _cmd_betti, {"mode": "oracle"},
     (("--degrees", {"required": False}), "--ell-power",
      ("--gens", {"help": "semicolon-separated homogeneous polynomials"}), "--nvars",
      ("--colon", {"action": "store_true", "help": "resolve the linked colon quotient instead"}),
      "--field", "--format")),
    (("colon",), "the linked colon ideal: Hilbert function and generators", _cmd_colon, {},
     IDEAL + (("--f", {"help": "the ideal (x_i^d_i, ell^e) : f instead of the link"}),)),
    (("annihilator",), "apolar ideal of a dual form", _cmd_annihilator, {},
     (("--form", {"required": True}), "--nvars", "--field", "--format")),
    (("esym", "gens"), None, _cmd_esym, {}, ESYM + ("--field", TEXT_OR_JSON)),
    (("esym", "count"), None, _cmd_esym, {}, ESYM),
    (("lefschetz",), "weak/strong Lefschetz rank check", _cmd_lefschetz, {},
     RING + (TEXT_OR_JSON, ("--colon", {"action": "store_true"}),
             ("--mode", {"choices": ("slp", "wlp"), "default": "slp"}),
             ("--ell", {"help": "candidate linear form (default x1+..+xn)"}))),
    (("check", "syzygy"), None, _cmd_check, {}, RING + (("--max-degree", {"type": int}),)),
    # the point set is enumerated over QQ only
    (("check", "point-set"), None, _cmd_check, {}, ("--degrees", "--ell-power")),
    *((("check", kind), None, _cmd_check, {}, RING) for kind in ("regular", "colon-plus")),
    (("check", "generic-level"), None, _cmd_check, {},
     (("--nvars", {"required": True}),
      ("--degrees", {"help": "n+1 form degrees, one equal to 2"}),
      ("--seed", {"type": int, "required": True}), ("--draws", {"type": int, "default": 1}))),
)


def _parser(argv):
    """Every top-level word, a group's words only when argv names the group
    (else the group holds None), and arguments only on the command argv names.

    The words before a command take no option with a value, so argv's leading
    non-option tokens are its command words.
    """
    tokens = tuple(token for token in argv if not token.startswith("-"))
    parser = argparse.ArgumentParser(
        prog="bettiforge",
        description="Exact Betti tables, Hilbert series and inverse systems for "
                    "ideals generated by powers of general linear forms.")
    subcommands = {(): parser.add_subparsers(dest=GROUPS[()][0], required=True)}
    for words, line, func, fixed, args in COMMANDS:
        for k in range(1, len(words)):
            group = words[:k]
            if group not in subcommands and subcommands.get(group[:-1]) is not None:
                dest, group_line = GROUPS[group]
                sub = subcommands[group[:-1]].add_parser(group[-1], help=group_line)
                subcommands[group] = (sub.add_subparsers(dest=dest, required=True)
                                      if tokens[:k] == group else None)
        if subcommands.get(words[:-1]) is None:
            continue
        leaf = subcommands[words[:-1]].add_parser(words[-1], **({"help": line} if line else {}))
        if tokens[:len(words)] == words:
            for arg in args:
                name, own = (arg, {}) if isinstance(arg, str) else arg
                leaf.add_argument(name, **{**SHARED.get(name, {}), **own})
            leaf.set_defaults(func=func, **fixed)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv).parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
