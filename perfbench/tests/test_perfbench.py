"""The benchmark's own tests: the reference checker, the tracer, the smoke mode.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import PARANOIA, WORKLOADS, Case  # noqa: E402

import bettiforge.cli as cli  # noqa: E402
import bettiforge.resolver as resolver  # noqa: E402


def _request(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(case.argv))
    return code, out.getvalue()


def _corrupt_table(data):
    data["entries"][-1]["beta"] += 1


def _corrupt_series(data):
    data["hilbert"][1] += 1


def _drop_generator(data):
    data["generators"].pop()


def _flip_verdict(data):
    data["verdict"] = "WLP-only"


def _corrupt_rank(data):
    data["checks"][0]["rank"] -= 1


@pytest.mark.parametrize("case, corrupt", [
    (Case("aci", (3, 3, 3), 2), _corrupt_table),
    (Case("sum-gorenstein", (3, 2, 3), 2), _corrupt_table),
    (Case("aci", (3, 3), 2, "rational"), _corrupt_table),
    (Case("aci", (3, 3, 3), 2, PARANOIA), _corrupt_table),
    (Case("colon", (3, 3, 3), 2), _corrupt_series),
    (Case("colon", (3, 3, 2), 2), _drop_generator),
    (Case("lefschetz", (3, 3, 3), 2), _flip_verdict),
    (Case("lefschetz", (3, 3, 3), 2), _corrupt_rank),
])
def test_reference_accepts_the_program_and_catches_corruption(case, corrupt):
    reference = Reference()
    code, out = _request(case)
    assert reference.mismatch(case, code, out) is None
    data = json.loads(out)
    corrupt(data)
    assert reference.mismatch(case, 0, json.dumps(data)) is not None
    assert reference.mismatch(case, 2, out) is not None
    assert reference.mismatch(case, 0, out[: len(out) // 2]) is not None


def test_tracer_patches_every_import_site_and_restores_them():
    original = resolver.rank_of_rows
    with spans.Tracer() as tracer:
        sites = spans.installed_sites()
        assert resolver.rank_of_rows is not original
        code, _ = _request(Case("aci", (3, 3, 3), 2))
        recorded = tracer.take()
    assert code == 0
    for module in ("exactalg", "resolver", "apolarity", "special"):
        assert f"bettiforge.{module}.rank_of_rows" in sites["exactalg.rank"]
    assert {layer for layer, *_ in spans.TARGETS} <= set(sites)
    assert resolver.rank_of_rows is original
    assert spans.installed_sites() == {}
    roots = [s for s in recorded if s.parent < 0]
    assert [s.layer for s in roots] == ["cli"]
    assert sum(spans.self_times(recorded)) == pytest.approx(roots[0].seconds)
    assert spans.layer_metrics(recorded)["exactalg.rank.calls"] > 0


def test_self_check_flags_cold_hot_layers_and_lost_time():
    with spans.Tracer() as tracer:
        start = time.perf_counter()
        _request(Case("gorenstein", (3, 3, 3), 2))
        wall = time.perf_counter() - start
        recorded = tracer.take()
    metrics = spans.layer_metrics(recorded)
    assert spans.self_check("sweep-verify", metrics, [wall], [recorded]) == []
    cold = dict(metrics, **{"exactalg.rank.s": 0.0})
    assert spans.self_check("sweep-verify", cold, [wall], [recorded])
    assert spans.self_check("sweep-verify", metrics, [2 * wall], [recorded])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload, trace", [("sweep-verify", 0)]
                         + [(w, 1) for w in sorted(WORKLOADS)])
def test_smoke_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "sweep-verify", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
