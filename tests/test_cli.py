import json

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
        f"error: ell^{e} already lies in (x_i^d_i): e exceeds sum of (d_i - 1) = {total}, "
        "so the colon ideal is the unit ideal\n")


@pytest.mark.parametrize("e", [2, 4])
def test_check_regular_refuses_one_variable(e, capsys):
    assert main(["check", "regular", "--degrees", "2", "--ell-power", str(e)]) == 1
    assert capsys.readouterr().err == "error: check regular needs n >= 2 variables\n"


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
