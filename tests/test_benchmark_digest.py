"""Recorded requests answer byte for byte as recorded.

Each digest is one sha256 over a list of CLI requests: per request its key,
exit code, stdout and stderr, each run through `cli.main` from empty program
caches, as in a fresh CLI process.  One digest covers every request of every
workload in `perfbench/workloads.py`; the other covers `check regular`,
`check colon-plus` and `lefschetz` requests that no workload makes.  A
change that means to alter no output leaves the golden files as they are; one
that means to alter some records the digest the failure prints.

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
GOLDEN = Path(__file__).parent / "golden"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from run import clear_program_caches  # noqa: E402
from workloads import WORKLOADS, build_cases  # noqa: E402

CHECK_REQUESTS = [
    "check regular --degrees 3,3,2 --ell-power 2",
    "check regular --degrees 4,3,2 --ell-power 3",
    "check colon-plus --degrees 3,3,2 --ell-power 2",
    "check colon-plus --degrees 4,3,2 --ell-power 3",
    "check colon-plus --degrees 3,3,2 --ell-power 2 --field rational",
    "lefschetz --mode wlp --degrees 3,3,3,3",
    "lefschetz --degrees 3,3,3 --ell-power 2 --ell x1+2*x2+3*x3 --format json",
    "lefschetz --degrees 3,3,3 --ell x1+x2 --format json",
    "lefschetz --degrees 2,2 --ell x1 --format json",
    "lefschetz --colon --degrees 3,3,3 --ell-power 2 --field rational --format json",
]


def request_digest(requests):
    """{"requests": count, "sha256": digest} over (key, argv) pairs."""
    digest, count = hashlib.sha256(), 0
    for key, argv in requests:
        clear_program_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # recorded, as the benchmark records a failed request
                code = repr(exc)
        record = [key, code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    return {"requests": count, "sha256": digest.hexdigest()}


def assert_recorded(name, requests):
    new = request_digest(requests)
    assert json.loads((GOLDEN / name).read_text()) == new, f"new digest: {json.dumps(new)}"


@pytest.mark.slow
def test_benchmark_requests_answer_as_recorded():
    assert_recorded("benchmark-requests.json",
                    [(case.key, case.argv) for workload in sorted(WORKLOADS)
                     for case in build_cases(workload)])


@pytest.mark.slow
def test_check_requests_answer_as_recorded():
    assert_recorded("check-requests.json", [(line, line.split()) for line in CHECK_REQUESTS])
