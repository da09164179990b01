import ast
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bettiforge.cli as cli
from bettiforge import BettiTable, betti_formula
from bettiforge.cli import betti_from_json_dict, betti_to_json_dict, main


def test_check_syzygy_refuses_even_reduced_sum(capsys):
    assert main(["check", "syzygy", "--degrees", "3,2,2", "--ell-power", "2"]) == 1
    assert "parity violation: sum of (d_i - 1) = 4 must be odd" in capsys.readouterr().err


def test_check_syzygy_passes_at_odd_reduced_sum(capsys):
    argv = ["check", "syzygy", "--degrees", "3,2,2", "--ell-power", "3", "--max-degree", "6"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "all 36 syzygy basis elements up to degree 6 pass"


@pytest.mark.parametrize("degrees,e,total", [("2,2", 3, 2), ("2,3", 4, 3)])
def test_check_colon_plus_refuses_ell_power_inside_the_monomials(degrees, e, total, capsys):
    assert main(["check", "colon-plus", "--degrees", degrees, "--ell-power", str(e)]) == 1
    assert capsys.readouterr().err == (
        f"error: ell power {e} exceeds {total}: the colon ideal is the unit ideal\n")


@pytest.mark.parametrize("e", [2, 4])
def test_check_regular_refuses_one_variable(e, capsys):
    assert main(["check", "regular", "--degrees", "2", "--ell-power", str(e)]) == 1
    assert capsys.readouterr().err == "error: check regular needs n >= 2 variables\n"


@pytest.mark.parametrize("degrees,e", [("2,2", 7), ("1,2", 6)])
def test_check_regular_with_ell_power_far_past_the_monomials(degrees, e, capsys):
    # ell^e lies in (x_i^d_i), where the certificate is not argued: refused as by `colon`
    assert main(["check", "regular", "--degrees", degrees, "--ell-power", str(e)]) == 1
    total = sum(int(d) - 1 for d in degrees.split(","))
    assert capsys.readouterr().err == (
        f"error: ell power {e} exceeds {total}: the colon ideal is the unit ideal\n")


@pytest.mark.parametrize("ell", ["x1^2", "x1*x2", "1", "0"])
def test_lefschetz_refuses_an_element_that_is_not_linear(ell, capsys):
    assert main(["lefschetz", "--degrees", "2,2", "--ell", ell]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the Lefschetz element must be a nonzero linear form\n"


@pytest.mark.parametrize("argv,socle", [
    (["betti", "formula", "aci", "--degrees", "3,3,3", "--ell-power", "4", "--verify", "--field", "5"], 6),
    (["betti", "formula", "gorenstein", "--degrees", "3,3", "--ell-power", "4", "--verify",
      "--field", "2"], 4),
    (["betti", "oracle", "--degrees", "3,3", "--ell-power", "4", "--colon", "--field", "3"], 4),
    (["betti", "oracle", "--degrees", "3,3,3", "--ell-power", "4", "--field", "5"], 6),
    (["colon", "--degrees", "3,3,2", "--ell-power", "4", "--field", "2"], 5),
    (["colon", "--degrees", "3,3,2", "--ell-power", "4", "--f", "x1", "--field", "5"], 5),
    (["check", "syzygy", "--degrees", "3,3,2", "--ell-power", "4", "--field", "3"], 5),
    (["check", "colon-plus", "--degrees", "3,3,2", "--ell-power", "4", "--field", "3"], 5),
    (["lefschetz", "--degrees", "3,3,2", "--ell-power", "4", "--field", "3"], 5),
    (["lefschetz", "--degrees", "3,3,2", "--ell-power", "4", "--colon", "--field", "3"], 5),
    (["check", "regular", "--degrees", "3,3,2", "--ell-power", "4", "--field", "2"], 4),
    (["check", "regular", "--degrees", "3,3,2", "--ell-power", "4", "--field", "3"], 4),
    # esym builds (x_i^2) : ell^d, whose socle degree is n
    (["esym", "gens", "--nvars", "4", "--d", "2", "--field", "2"], 4),
    (["esym", "gens", "--nvars", "3", "--d", "2", "--field", "3"], 3),
    (["esym", "gens", "--nvars", "6", "--d", "5", "--field", "5"], 6),
])
def test_a_characteristic_up_to_the_socle_degree_is_refused(argv, socle, capsys):
    # the paper's ideals need ell = x1 + .. + xn general: p > sum(d_i - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    p = argv[-1]
    assert out == "" and err == (f"error: GF({p}) is too small for ℓ = x1 + .. + xn: the "
                                 f"characteristic must exceed the socle degree {socle} of R/(x^d)\n")


@pytest.mark.parametrize("nvars,d,field", [(4, 2, "5"), (3, 1, "5"), (4, 3, "rational")])
def test_esym_gens_past_the_socle_degree_are_generated(nvars, d, field, capsys):
    argv = ["esym", "gens", "--nvars", str(nvars), "--d", str(d), "--field", field]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") > nvars


@pytest.mark.parametrize("gens", ["1", "x1;1", "x1^2;x2;3"])
def test_the_unit_ideal_has_no_betti_table(gens, capsys):
    assert main(["betti", "oracle", "--gens", gens]) == 1
    assert capsys.readouterr() == ("", "error: the ideal is the unit ideal: R/I = 0 has no Betti table\n")


def test_check_generic_level_takes_no_field(capsys):
    argv = ["check", "generic-level", "--nvars", "2", "--degrees", "2,2,2", "--seed", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "level\n"
    assert main(argv + ["--field", "rational"]) == 1
    assert "unrecognized arguments: --field rational" in capsys.readouterr().err


def test_check_generic_level_refuses_a_constant_form(capsys):
    argv = ["check", "generic-level", "--nvars", "1", "--degrees", "0,2", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: form degrees must be at least 1\n"


def test_check_point_set_takes_no_field(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["check", "point-set", "-h"]) == 0
    assert capsys.readouterr().out == (
        "usage: bettiforge check point-set [-h] --degrees DEGREES\n"
        "                                  [--ell-power ELL_POWER]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --degrees DEGREES     comma-separated variable powers d1,..,dn\n"
        "  --ell-power ELL_POWER\n"
        "                        power of the linear form x1+..+xn\n")
    argv = ["check", "point-set", "--degrees", "2,2", "--ell-power", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert main(argv + ["--field", "x"]) == 1
    assert "unrecognized arguments: --field x" in capsys.readouterr().err
    assert main(argv + ["--format", "csv"]) == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


LINKED_COMMANDS = [["betti", "oracle", "--colon"], ["colon"], ["lefschetz", "--colon"]]


@pytest.mark.parametrize("e", [3, 5])
@pytest.mark.parametrize("words", LINKED_COMMANDS, ids=" ".join)
def test_linked_ideal_refuses_ell_power_inside_the_monomials(words, e, capsys):
    assert main(words + ["--degrees", "2,2", "--ell-power", str(e)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ell power {e} exceeds 2: the colon ideal is the unit ideal\n"


# every group and command word sequence, groups first
WORDS = list(dict.fromkeys(c[0][:k] for c in cli.COMMANDS for k in range(1, len(c[0]) + 1)))


@pytest.mark.parametrize("words", WORDS, ids=" ".join)
def test_every_command_has_help(words, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(words) + ["-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: bettiforge {' '.join(words)} [-h]")


@pytest.mark.parametrize("argv,error", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["colon", "--degrees", "2,2", "--ell-power", "2", "--bogus"],
     "unrecognized arguments: --bogus"),
], ids=["none", "unknown", "unknown-option"])
def test_usage_errors_show_the_top_level_usage(argv, error, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bettiforge [-h]")
    assert "{hilbert,betti,colon,annihilator,esym,lefschetz,check} ..." in err
    assert f"bettiforge: error: {error}" in err


def test_only_the_named_command_gets_arguments():
    argv = ["colon", "--degrees", "2,2", "--ell-power", "2"]
    parser = cli._parser(argv)
    assert parser.parse_args(argv).degrees == "2,2"
    args, unknown = parser.parse_known_args(["hilbert", "--degrees", "2,2"])
    assert (args.command, unknown) == ("hilbert", ["--degrees", "2,2"])
    assert not hasattr(args, "degrees")


def test_only_the_named_group_gets_its_commands():
    argv = ["colon", "--degrees", "2,2", "--ell-power", "2"]
    args, unknown = cli._parser(argv).parse_known_args(["hilbert", "ci", "--degrees", "2,2"])
    assert (args.command, unknown) == ("hilbert", ["ci", "--degrees", "2,2"])
    argv = ["hilbert", "ci", "--degrees", "2,2"]
    assert cli._parser(argv).parse_args(argv).kind == "ci"


def _branch(test, values):
    """True or False for a test `args.<dest> == "word"` whose dest is in
    `values`, else None."""
    if (isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.left, ast.Attribute) and isinstance(test.left.value, ast.Name)
            and test.left.value.id == "args" and test.left.attr in values):
        return values[test.left.attr] == test.comparators[0].value
    return None


def _reads(stmts, values):
    """The dests read as `args.<dest>` by these statements, also through a cli
    helper they pass `args` to.  A branch on a dest in `values` is followed
    only where it holds, and nothing after a taken branch that returns."""
    out = set()
    for stmt in stmts:
        taken = _branch(stmt.test, values) if isinstance(stmt, ast.If) else None
        if taken is not None:
            block = stmt.body if taken else stmt.orelse
            out |= _reads(block, values)
            if block and isinstance(block[-1], ast.Return):
                return out
            continue
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                out.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and any(
                    isinstance(a, ast.Name) and a.id == "args" for a in node.args):
                helper = getattr(cli, node.func.id)
                out |= _reads(ast.parse(inspect.getsource(helper)).body[0].body, values)
    return out


@pytest.mark.parametrize("row", cli.COMMANDS, ids=lambda row: " ".join(row[0]))
def test_every_declared_argument_is_read(row):
    words, _, func, fixed, arguments = row
    # the dest of each group along the words holds the next word
    values = {cli.GROUPS[words[:k]][0]: words[k] for k in range(len(words))} | fixed
    declared = {(a if isinstance(a, str) else a[0]).lstrip("-").replace("-", "_")
                for a in arguments}
    read = _reads(ast.parse(inspect.getsource(func)).body[0].body, values)
    assert declared - read == set()


@pytest.mark.parametrize("argv,error", [
    (["hilbert", "ci", "--degrees", "2,2", "--ell-power", "7"], "unrecognized arguments: --ell-power 7"),
    (["hilbert", "ci", "--degrees", "2,2", "--nvars", "9"], "unrecognized arguments: --nvars 9"),
    (["hilbert", "froberg", "--degrees", "2,2", "--ell-power", "3"],
     "unrecognized arguments: --ell-power 3"),
    (["hilbert", "linked", "--degrees", "3,3", "--ell-power", "2", "--nvars", "2"],
     "unrecognized arguments: --nvars 2"),
    (["esym", "count", "--nvars", "5", "--d", "2", "--field", "bogus"],
     "unrecognized arguments: --field bogus"),
    (["esym", "count", "--nvars", "5", "--d", "2", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["check", "syzygy", "--degrees", "3,2,2", "--ell-power", "3", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["check", "regular", "--degrees", "3,3,2", "--ell-power", "2", "--format", "text"],
     "unrecognized arguments: --format text"),
    (["check", "colon-plus", "--degrees", "3,3,2", "--ell-power", "2", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["lefschetz", "--degrees", "2,2", "--format", "csv"],
     "argument --format: invalid choice: 'csv'"),
    (["esym", "gens", "--nvars", "3", "--d", "1", "--format", "csv"],
     "argument --format: invalid choice: 'csv'"),
    (["hilbert", "--degrees", "2,2", "ci"], "argument kind: invalid choice: '2,2'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_options_no_handler_reads_are_refused(argv, error, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: bettiforge ") and f": error: {error}" in err


@pytest.mark.parametrize("extra", [["--degrees", "9,9"], ["--ell-power", "4"], ["--colon"]],
                         ids=" ".join)
def test_oracle_gens_refuse_the_ideal_options(extra, capsys):
    assert main(["betti", "oracle", "--gens", "x1^2;x2^2;x1*x2"] + extra) == 1
    assert capsys.readouterr() == (
        "", "error: --gens takes no --degrees, --ell-power or --colon\n")


def test_oracle_nvars_needs_gens(capsys):
    assert main(["betti", "oracle", "--degrees", "2,2", "--ell-power", "2", "--nvars", "3"]) == 1
    assert capsys.readouterr() == ("", "error: --nvars needs --gens\n")


@pytest.mark.parametrize("argv", [["betti", "oracle", "--ell-power", "2"], ["betti", "oracle"]],
                         ids=" ".join)
def test_oracle_needs_gens_or_degrees(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --gens or --degrees is required\n")


def test_oracle_takes_empty_gens_as_given(capsys):
    # an empty --gens is read as a polynomial, not as an absent option
    assert main(["betti", "oracle", "--gens", ""]) == 1
    assert capsys.readouterr() == ("", "error: empty polynomial: ''\n")


@pytest.mark.parametrize("argv", [["colon", "--degrees", "3,3", "--ell-power", "2", "--f="],
                                  ["lefschetz", "--degrees", "2,2", "--ell="]], ids=" ".join)
def test_an_empty_f_or_ell_is_taken_as_given(argv, capsys):
    # likewise an empty --f or --ell: not the link by ell^e, nor the default ell
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: empty polynomial: ''\n")


@pytest.mark.parametrize("f", ["x1+", "x1-", "x1*", "*x1", "x1**x2", "x1*-x2", "+"])
def test_a_dangling_operator_is_refused(f, capsys):
    assert main(["colon", "--degrees", "3,3", "--ell-power", "2", f"--f={f}"]) == 1
    assert capsys.readouterr() == ("", f"error: malformed polynomial: {f!r}\n")


@pytest.mark.parametrize("argv, error", [
    (["annihilator", "--form", "1/0"], "zero denominator in polynomial: '1/0'"),
    (["betti", "oracle", "--gens", "1/0*x1"], "zero denominator in polynomial: '1/0*x1'"),
    (["colon", "--degrees", "3,3", "--ell-power", "2", "--f", "1/0*x1"],
     "zero denominator in polynomial: '1/0*x1'"),
    (["betti", "oracle", "--gens", "1/65521*x1", "--field", "65521"],
     "denominator divisible by 65521 in polynomial: '1/65521*x1'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_zero_denominator_is_refused(argv, error, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("field, error", [
    ("4", "4 is not prime"),
    ("prime:2147483659", "prime moduli must be < 2**31"),
    ("bogus", "cannot parse field spec 'bogus'"),
])
def test_a_bad_field_spec_says_why(field, error, capsys):
    argv = ["betti", "formula", "aci", "--degrees", "3,3", "--ell-power", "2", "--field", field]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_check_generic_level_needs_a_draw(capsys):
    argv = ["check", "generic-level", "--nvars", "2", "--degrees", "2,2,2", "--seed", "0"]
    assert main(argv + ["--draws", "0"]) == 1
    assert capsys.readouterr() == ("", "error: --draws must be at least 1\n")


@pytest.mark.parametrize("argv,error", [
    (["froberg", "--degrees", "2,2", "--nvars", "0"], "need at least one variable"),
    (["froberg", "--degrees", "2,2", "--nvars", "-1"], "need at least one variable"),
    (["froberg", "--degrees", "0,2"], "degrees must be >= 1"),
    (["ci", "--degrees=-1,2"], "degrees must be >= 1"),
], ids=" ".join)
def test_hilbert_reads_numbers_as_given(argv, error, capsys):
    assert main(["hilbert"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("bound", ["-3", "0", "1", "2"])
def test_check_syzygy_refuses_a_bound_that_checks_nothing(bound, capsys):
    argv = ["check", "syzygy", "--degrees", "2,2,2", "--ell-power", "2", "--max-degree", bound]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: no syzygy up to degree {bound}: nothing to check\n")


def test_check_syzygy_reads_max_degree_as_given(capsys):
    argv = ["check", "syzygy", "--degrees", "2,2,2", "--ell-power", "2", "--max-degree", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "all 2 syzygy basis elements up to degree 3 pass\n"


def test_colon_by_a_form_past_the_socle_is_the_unit_ideal(capsys):
    argv = ["colon", "--degrees", "2,2", "--ell-power", "2", "--f"]
    assert main(argv + ["x1^4"]) == 0
    unit = capsys.readouterr()
    assert main(argv + ["x1^5"]) == 0
    assert capsys.readouterr() == unit == ("0\n1\n", "")


E3 = "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
ESYM_5_2 = """\
x1^2
x2^2
x3^2
x4^2
x5^2
x2*x3 - x2*x4 - x3*x5 + x4*x5
x1*x3 - x1*x4 - x3*x5 + x4*x5
x2*x3 - x2*x5 - x3*x4 + x4*x5
x1*x3 - x1*x5 - x3*x4 + x4*x5
x1*x2 - x1*x4 - x2*x5 + x4*x5
x1*x2 - x1*x5 - x2*x4 + x4*x5
x2*x4 - x2*x5 - x3*x4 + x3*x5
x1*x4 - x1*x5 - x3*x4 + x3*x5
x1*x2 - x1*x3 - x2*x5 + x3*x5
x1*x2 - x1*x5 - x2*x3 + x3*x5
x1*x2 - x1*x3 - x2*x4 + x3*x4
x1*x2 - x1*x4 - x2*x3 + x3*x4
x1*x4 - x1*x5 - x2*x4 + x2*x5
x1*x3 - x1*x5 - x2*x3 + x2*x5
x1*x3 - x1*x4 - x2*x3 + x2*x4
"""
LEFSCHETZ_333_2 = (
    '{"verdict": "SLP", "element": "x1 + x2 + x3", "checks": ['
    '{"i": 0, "power": 1, "dims": [1, 3], "rank": 1}, {"i": 1, "power": 1, "dims": [3, 6], "rank": 3}, '
    '{"i": 2, "power": 1, "dims": [6, 3], "rank": 3}, {"i": 3, "power": 1, "dims": [3, 1], "rank": 1}, '
    '{"i": 0, "power": 2, "dims": [1, 6], "rank": 1}, {"i": 1, "power": 2, "dims": [3, 3], "rank": 3}, '
    '{"i": 2, "power": 2, "dims": [6, 1], "rank": 1}, {"i": 0, "power": 3, "dims": [1, 3], "rank": 1}, '
    '{"i": 1, "power": 3, "dims": [3, 1], "rank": 1}, {"i": 0, "power": 4, "dims": [1, 1], "rank": 1}]}\n')


def _colon_332(middle):
    return f"1 3 3 1\nx1^2 - x1*x2 + x2^2\nx1^2 {middle}*x1*x2 - x1*x3 + x2*x3\nx3^2\n"


# recorded stdout, generator order included
GOLDEN = [
    (["colon", "--degrees", "3,3,2", "--ell-power", "2"], _colon_332("+ 32760")),
    (["colon", "--degrees", "3,3,2", "--ell-power", "2", "--field", "1073741789"],
     _colon_332("+ 536870894")),
    (["colon", "--degrees", "3,3,2", "--ell-power", "2", "--field", "rational"],
     _colon_332("- 1/2")),
    (["annihilator", "--form", E3, "--nvars", "4"],
     "1 4 4 1\nx1^2\nx2^2\nx1*x3 - x1*x4 - x2*x3 + x2*x4\nx3^2\nx1*x2 - x1*x4 - x2*x3 + x3*x4\nx4^2\n"),
    (["esym", "gens", "--nvars", "5", "--d", "2"], ESYM_5_2),
    (["lefschetz", "--colon", "--degrees", "3,3,3", "--ell-power", "2", "--format", "json"],
     LEFSCHETZ_333_2),
    (["colon", "--degrees", "3,3,3,3,3,3", "--ell-power", "4", "--format", "json"],
     (Path(__file__).parent / "golden" / "colon-3x6-e4.json").read_text()),
]


@pytest.mark.parametrize("argv,stdout", GOLDEN, ids=[" ".join(a[:1] + a[-2:]) for a, _ in GOLDEN])
def test_cli_output_is_unchanged(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_verify_reports_every_differing_cell(monkeypatch, capsys):
    # (x1^2, x2^2, (x1 + x2)^2) has beta = {(0,0): 1, (1,2): 3, (2,3): 2}
    def two_wrong_cells(ds, target):
        table = BettiTable({(2, 4): 1})
        for (i, j), v in betti_formula(ds, target).items():
            table.set(i, j, v + ((i, j) == (1, 2)))
        return table

    monkeypatch.setattr(cli, "betti_formula", two_wrong_cells)
    argv = ["betti", "formula", "aci", "--degrees", "2,2", "--ell-power", "2", "--verify"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("verify failed: 2 differing entries\n"
                   "(1, 2): formula 4 oracle 3\n"
                   "(2, 4): formula 1 oracle 0\n")


# (argv, twin): the same ideal, or the same table by the parity dispatch
SAME_TABLE = [
    (["aci", "--degrees", "4,4,4,4,2", "--ell-power", "4"],
     ["sum", "--target", "aci", "--degrees", "4,4,4,4,2", "--ell-power", "4"]),
    (["gorenstein", "--degrees", "4,4,4,4,2", "--ell-power", "4"],
     ["sum", "--target", "gorenstein", "--degrees", "4,4,4,4,2", "--ell-power", "4"]),
    (["sum", "--degrees", "3,3,4", "--ell-power", "2", "--verify"],
     ["sum", "--degrees", "3,3,2", "--ell-power", "4"]),
    (["aci", "--degrees", "2,2,2", "--ell-power", "9", "--verify"],
     ["aci", "--degrees", "2,2,9", "--ell-power", "2"]),
    (["sum", "--degrees", "3,3,2", "--ell-power", "3"],
     ["aci", "--degrees", "3,3,2", "--ell-power", "3"]),
]


@pytest.mark.parametrize("argv,twin", SAME_TABLE, ids=[" ".join(a[:3]) for a, _ in SAME_TABLE])
def test_square_on_any_generator_or_parity_gets_a_table(argv, twin, capsys):
    assert main(["betti", "formula"] + argv) == 0
    out = capsys.readouterr().out
    assert main(["betti", "formula"] + twin) == 0
    assert capsys.readouterr().out == out


def test_sum_counts_ell_as_generator_n_plus_one(capsys):
    assert main(["betti", "formula", "sum", "--degrees", "3,3,4", "--ell-power", "2"]) == 0
    assert capsys.readouterr().err == "# quadric generator found at position 4\n"


@pytest.mark.parametrize("argv,t", [
    (["aci", "--degrees", "4,4,4,4", "--ell-power", "3"], 14),
    (["gorenstein", "--degrees", "3,3,4", "--ell-power", "2"], 8),
], ids=["aci-no-square", "gorenstein-square-on-ell"])
def test_even_sum_without_a_usable_square_is_refused(argv, t, capsys):
    assert main(["betti", "formula"] + argv) == 1
    assert capsys.readouterr().err == f"error: parity violation: sum of (d_i - 1) = {t} must be odd\n"


betti_tables = st.dictionaries(
    st.integers(0, 5).flatmap(lambda i: st.tuples(st.just(i), st.integers(i, i + 8))),
    st.integers(1, 500), max_size=12).map(BettiTable)


@settings(max_examples=60, deadline=None)
@given(betti_tables, st.integers(1, 8))
def test_betti_json_round_trip(table, nvars):
    text = json.dumps(betti_to_json_dict(table, nvars))
    assert betti_from_json_dict(json.loads(text)) == table
