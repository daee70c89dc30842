"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload untraced and traced in-process and checks the
result line against BENCHMARK.json, the self-time bookkeeping of the
tracer, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

TINY = {
    "grid": {"n_eval": 17, "n_check": 33, "pairs": 2000},
    "pairs": {"pairs": 2000},
    "clock": {"windows": 1, "ranges": ((-0.2, -0.1), (0.1, 0.2))},
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _result(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[workload], launches=1) == 0
    lines = capsys.readouterr().out.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], (info["failures"], info["problems"])
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["environment"]["seed"] == 3
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _result(capsys, workload, trace)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_self_times_add_up_to_each_verb_span():
    cli = run._import_cli()
    invs = workloads.invocations("clock", 3, **TINY["clock"])
    invs = [invs[0], *workloads.demo_tail(3)]
    tracer = Tracer()
    with tracer:
        outcomes = run.run_pass(cli.main, invs, tracer)
    assert all(not res.problems for res in outcomes)
    assert {res.invocation.verb for res in outcomes} == set(run.VERBS)
    spans = tracer.spans
    child = [0.0] * len(spans)
    root_of = []
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            child[parent] += end - start
    covered = {}
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered[root_of[i]] = covered.get(root_of[i], 0.0) + (end - start) - child[i]
    assert len(covered) == len(invs)
    for root, total in covered.items():
        assert spans[root][0] == "cli"
        assert total == pytest.approx(spans[root][2] - spans[root][1], rel=1e-9)
    totals = run.summarize(tracer, outcomes)
    layer_sum = sum(totals[name] for name in run.LAYER_TIMES)
    verb_sum = sum(totals[f"verb.{verb}_s"] for verb in run.VERBS)
    assert layer_sum == pytest.approx(verb_sum, rel=1e-9)


def test_tracer_restores_the_package():
    cli = run._import_cli()
    from mwsync import fieldcheck, mwmap, propertime, quadrature

    def bound():
        return (cli._CHECKS["wave"], cli.chronology_check, fieldcheck.wave_residual,
                mwmap.MarzkeWheelerMap.components, propertime.adaptive_simpson)

    before = bound()
    with Tracer():
        assert cli._CHECKS["wave"] is fieldcheck.wave_residual
        assert propertime.adaptive_simpson is quadrature.adaptive_simpson
        assert all(hasattr(fn, "__wrapped__") for fn in bound())
    assert bound() == before
    assert not any(hasattr(fn, "__wrapped__") for fn in bound())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
