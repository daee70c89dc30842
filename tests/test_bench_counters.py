"""The benchmark's exact work counters, pinned as a tier-1 gate.

One traced run per workload through ``bench/run.py``'s ``main``, at sizes
that keep the suite quick, must reproduce the counters committed in
``bench_counters.json``.  The counters depend only on the invocations,
not on the machine, so a change that moves one changes the work done.
``cli.report_bytes`` is left out: it moves with numpy's SIMD dispatch.
A change that moves a counter on purpose regenerates the file with
``python tests/test_bench_counters.py`` and lists the old and new values.
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS = os.path.join(ROOT, "tests", "bench_counters.json")
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402

SEED = 21
# The smoke test's tiny sizes, but 4e4 pairs for ``pairs``, so that the
# pairs a chronology check keeps fill one 32768-pair chunk and part of a
# second.
SIZES = {
    "grid": {"n_eval": 17, "n_check": 33, "pairs": 2000},
    "pairs": {"pairs": 40000},
    "clock": {"windows": 1, "ranges": ((-0.2, -0.1), (0.1, 0.2))},
}
UNPINNED = ("cli.report_bytes",)


def traced_counters(workload: str) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv, sizes=SIZES[workload], launches=1) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: result["metrics"][name]["value"]
        for name in run.EXACT_COUNTERS if name not in UNPINNED
    }


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_exact_counters_match_the_committed_file(monkeypatch, workload):
    monkeypatch.chdir(ROOT)  # the workloads name their scenario from the root
    with open(COUNTERS, encoding="utf-8") as handle:
        want = json.load(handle)[workload]
    assert traced_counters(workload) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    counters = {workload: traced_counters(workload) for workload in sorted(SIZES)}
    with open(COUNTERS, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, indent=2, sort_keys=True)
        handle.write("\n")
