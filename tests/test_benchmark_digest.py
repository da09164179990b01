"""The benchmark's requests answer byte for byte as recorded.

One sha256 over every request of every workload in `perfbench/workloads.py`:
its key, exit code, stdout and stderr, each request run through `cli.main`
from empty program caches, as in a fresh CLI process.  A change that means to
alter no output leaves `golden/benchmark-requests.json` as it is; one that
means to alter some records the digest the failure prints.

    PYTHONPATH=src python -m pytest -q -m slow tests/test_benchmark_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import bettiforge.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).parent / "golden" / "benchmark-requests.json"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from run import clear_program_caches  # noqa: E402
from workloads import WORKLOADS, build_cases  # noqa: E402


def benchmark_digest():
    """(request count, sha256) over the full case list of every workload."""
    digest, count = hashlib.sha256(), 0
    for workload in sorted(WORKLOADS):
        for case in build_cases(workload):
            clear_program_caches()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(case.argv))
                except Exception as exc:  # recorded, as the benchmark records a failed request
                    code = repr(exc)
            record = [case.key, code, out.getvalue(), err.getvalue()]
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
    return count, digest.hexdigest()


@pytest.mark.slow
def test_benchmark_requests_answer_as_recorded():
    count, digest = benchmark_digest()
    new = json.dumps({"requests": count, "sha256": digest})
    assert json.loads(GOLDEN.read_text()) == json.loads(new), f"new digest: {new}"
