"""mwsync benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {grid,pairs,clock} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout.  Each workload is a closed loop with one
caller: it calls ``mwsync.cli.main(argv)`` in this process, one
invocation at a time, with stdout captured in memory.  A pass is one
run over the workload's invocation list; whole passes repeat until
their CLI time is nearest to ``S`` seconds, and each invocation's time
is its median over passes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last line of stdout is
the result object; the line before it holds information only: the
environment, each invocation's report digest and failures, if any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import workloads  # bench/ is on sys.path as the script's directory
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

VERBS = ("eval", "check", "causal", "propertime", "counterexample")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: self times in seconds, work counters, ratios.
LAYER_TIMES = {
    "cli.self_s": "cli",
    "scenario.load_s": "scenario.load",
    "mwmap.forward_s": "mwmap.forward",
    "mwmap.inverse_s": "mwmap.inverse",
    "mwmap.profile_s": "mwmap.profile",
    "mwmap.conformal_s": "mwmap.conformal",
    "observers.position_s": "observers.position",
    "observers.velocity_s": "observers.velocity",
    "fieldcheck.stencil_s": "fieldcheck.stencil",
    "fieldcheck.sampler_s": "fieldcheck.sampler",
    "fieldcheck.suite_s": "fieldcheck.suite",
    "quadrature.s": "quadrature",
    "propertime.arc_s": "propertime.arc",
    "propertime.trajectory_s": "propertime.trajectory",
    "propertime.chart_s": "propertime.chart",
    "propertime.twin_s": "propertime.twin",
}
ERROR_LAYERS = ("cli", "scenario", "mwmap", "observers", "fieldcheck", "quadrature", "propertime")
# Counters that depend only on the invocations, so two traced passes of
# one seed must give them exactly.
EXACT_COUNTERS = (
    "mwmap.forward_points",
    "mwmap.inverse_calls",
    "mwmap.inverse_points",
    "mwmap.profile_evals",
    "mwmap.profile_evals_per_inverse",
    "mwmap.conformal_calls",
    "mwmap.conformal_points_per_call",
    "observers.points",
    "fieldcheck.grid_evals",
    "fieldcheck.pairs_requested",
    "fieldcheck.pairs_counted",
    "fieldcheck.pairs_counted_ratio",
    "causal.classify_calls",
    "quadrature.calls",
    "quadrature.evals",
    "algebra.split_complex_made",
    "cli.report_bytes",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{f"verb.{verb}_s": "s" for verb in VERBS},
    **{name: "count" for name in EXACT_COUNTERS},
    "fieldcheck.pairs_counted_ratio": "ratio",
    **{f"{layer}.errors": "count" for layer in ERROR_LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mwsync.cli; "
    "from mwsync.scenario import load_scenario; load_scenario(sys.argv[2])"
)


# -- one invocation and one pass ------------------------------------------


@dataclass
class Outcome:
    invocation: workloads.Invocation
    seconds: float
    digest: str
    bytes: int
    problems: list


def invoke(main, inv, tracer=None) -> Outcome:
    """Run one CLI invocation, then check it against its oracle."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.root(main, list(inv.argv)) if tracer else main(list(inv.argv))
        except Exception:  # an escaped traceback is a failed invocation
            code, crash = None, traceback.format_exc()
        seconds = perf_counter() - start
    report = out.getvalue()
    if crash is not None:
        problems = ["uncaught exception: " + crash.strip().splitlines()[-1]]
    elif "Traceback" in err.getvalue():
        problems = ["traceback on stderr"]
    else:
        try:
            problems = inv.check(code, report)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable report: {exc!r}"]
    data = report.encode()
    return Outcome(inv, seconds, hashlib.sha256(data).hexdigest(), len(data), problems)


def run_pass(main, invs, tracer=None) -> list:
    return [invoke(main, inv, tracer) for inv in invs]


def typical_pass(passes) -> dict:
    """Each invocation's median time over passes, summed per verb.

    Taking the median per invocation before summing keeps a burst of
    machine noise during one invocation from moving the whole pass.
    """
    times = {f"{verb}_s": 0.0 for verb in VERBS}
    for k, res in enumerate(passes[0]):
        times[f"{res.invocation.verb}_s"] += statistics.median(p[k].seconds for p in passes)
    times["wall_s"] = sum(times.values())
    return times


def digests(outcomes) -> dict:
    return {res.invocation.label: res.digest for res in outcomes}


# -- trace reduction ------------------------------------------------------


def _tree(spans):
    """Direct-children time and root index of every span."""
    child = [0.0] * len(spans)
    root_of = []
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root_of.append(root_of[parent])
        else:
            root_of.append(i)
    return child, root_of


def summarize(tracer, outcomes) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    child, root_of = _tree(spans)
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    if len(roots) != len(outcomes):
        raise RuntimeError("expected one root span per invocation")
    invocation = {i: res.invocation for i, res in zip(roots, outcomes)}
    time_name = {layer: name for name, layer in LAYER_TIMES.items()}
    m = {name: 0.0 for name in LAYER_TIMES}
    m.update({name: 0 for name in EXACT_COUNTERS})
    m.update({f"verb.{verb}_s": 0.0 for verb in VERBS})
    m.update({f"{layer}.errors": 0 for layer in ERROR_LAYERS})
    under_sampler = [False] * len(spans)
    grid_points = dict.fromkeys(roots, 0)
    requested = counted = 0
    for i, (layer, start, end, parent, work, raised) in enumerate(spans):
        parent_layer = spans[parent][0] if parent >= 0 else ""
        if parent >= 0:
            under_sampler[i] = under_sampler[parent] or parent_layer == "fieldcheck.sampler"
        m[time_name[layer]] += (end - start) - child[i]
        if raised:
            m[f"{layer.split('.')[0]}.errors"] += 1
        if layer == "cli":
            m[f"verb.{invocation[i].verb}_s"] += end - start
        elif layer == "mwmap.forward":
            m["mwmap.forward_points"] += work
            if not under_sampler[i]:
                grid_points[root_of[i]] += work
        elif layer == "mwmap.inverse":
            m["mwmap.inverse_calls"] += 1
            m["mwmap.inverse_points"] += work
        elif layer == "mwmap.profile" and parent_layer == "mwmap.inverse":
            m["mwmap.profile_evals"] += 1
        elif layer == "mwmap.conformal":
            m["mwmap.conformal_calls"] += 1
            m["mwmap.conformal_points_per_call"] += work
        elif layer.startswith("observers.") and not parent_layer.startswith("observers."):
            m["observers.points"] += work
        elif layer == "fieldcheck.sampler":
            requested += work[0]
            counted += work[1]
        elif layer == "quadrature":
            m["quadrature.calls"] += 1
            m["quadrature.evals"] += work
    m["mwmap.profile_evals_per_inverse"] = m["mwmap.profile_evals"] / max(1, m["mwmap.inverse_calls"])
    m["mwmap.conformal_points_per_call"] /= max(1, m["mwmap.conformal_calls"])
    m["fieldcheck.grid_evals"] = sum(
        points / invocation[r].nodes
        for r, points in grid_points.items()
        if invocation[r].verb in ("check", "counterexample")
    )
    m["fieldcheck.pairs_requested"] = requested
    m["fieldcheck.pairs_counted"] = counted
    m["fieldcheck.pairs_counted_ratio"] = counted / max(1, requested)
    m.update(tracer.counts)
    m["cli.report_bytes"] = sum(res.bytes for res in outcomes)
    m["trace.spans"] = len(spans)
    return m


def shares(tracer, outcomes) -> dict:
    """Per invocation, each layer's share of the root span (information).

    ``self`` is the layer's self time; ``inclusive`` is the time under the
    layer's outermost spans, so it also holds the calls the layer made
    into the layers below it.
    """
    spans = tracer.spans
    child, root_of = _tree(spans)
    above = []  # layers of each span's ancestors
    own, inclusive = {}, {}
    for i, (layer, start, end, parent, _, _) in enumerate(spans):
        above.append(above[parent] | {spans[parent][0]} if parent >= 0 else frozenset())
        per = own.setdefault(root_of[i], {})
        per[layer] = per.get(layer, 0.0) + (end - start) - child[i]
        if layer not in above[i]:
            per = inclusive.setdefault(root_of[i], {})
            per[layer] = per.get(layer, 0.0) + (end - start)
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    out = {}
    for i, res in zip(roots, outcomes):
        whole = spans[i][2] - spans[i][1]
        out[res.invocation.label] = {
            kind: {layer: round(t / whole, 4) for layer, t in sorted(table[i].items())}
            for kind, table in (("self", own), ("inclusive", inclusive))
        }
    return out


# -- runs -----------------------------------------------------------------


def setup_seconds(launches: int) -> list:
    """Wall time of fresh interpreters importing the CLI and the scenario."""
    scenario = os.path.join(ROOT, workloads.SCENARIO)
    out = []
    for _ in range(launches):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, scenario],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        out.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up interpreter failed:\n" + proc.stderr)
    return out


def end_to_end(main, invs, seconds, launches=SETUP_LAUNCHES):
    """Whole passes whose CLI time comes nearest to ``seconds``."""
    setups = setup_seconds(launches)
    run_pass(main, workloads.demo_tail(0))  # warm lazy imports and caches
    passes = []
    spent = last = 0.0
    while not passes or spent + 0.5 * last < seconds:
        passes.append(run_pass(main, invs))
        last = sum(res.seconds for res in passes[-1])
        spent += last
    typical = typical_pass(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": typical.pop("wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes, {"verb_seconds": typical, "setup_launches": setups}


def traced(main, invs, seconds):
    """Untraced and traced passes in turn; per-layer medians.

    The overhead is the median traced pass minus the median untraced
    pass, so both kinds see the same warm process.
    """
    run_pass(main, workloads.demo_tail(0))
    plain, passes, layers, problems, info = [], [], [], [], {}
    tracer = Tracer()
    start = perf_counter()
    while perf_counter() - start < seconds or len(layers) < 2:
        plain.append(run_pass(main, invs))
        tracer.reset()
        with tracer:
            outcomes = run_pass(main, invs, tracer)
        passes.append(outcomes)
        layers.append(summarize(tracer, outcomes))
        if len(layers) == 1:
            info["shares"] = shares(tracer, outcomes)
    tracer.reset()
    for key in EXACT_COUNTERS:
        if len({layer[key] for layer in layers}) != 1:
            problems.append(f"counter {key} differs between traced passes")
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [layer[name] for layer in layers]
        metrics[name] = statistics.median(values) if PER_LAYER[name] == "s" else values[0]
    metrics["trace.overhead_s"] = statistics.median(
        sum(r.seconds for r in p) for p in passes
    ) - statistics.median(sum(r.seconds for r in p) for p in plain)
    return metrics, plain + passes, {"problems": problems, **info}


# -- entry point ----------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "seed": seed,
    }


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "mwsync", "cli.py")):
        raise RuntimeError(f"no mwsync sources under {SRC}")
    sys.path.insert(0, SRC)
    import mwsync.cli

    if not os.path.abspath(mwsync.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported mwsync from {mwsync.cli.__file__}, not {SRC}")
    return mwsync.cli


def main(argv=None, sizes=None, launches=SETUP_LAUNCHES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        cli = _import_cli()
        if not os.path.isfile(os.path.join(ROOT, workloads.SCENARIO)):
            raise RuntimeError(f"missing {workloads.SCENARIO}")
        invs = workloads.invocations(args.workload, args.seed, **(sizes or {}))
        if args.trace:
            metrics, passes, info = traced(cli.main, invs, args.seconds)
        else:
            metrics, passes, info = end_to_end(cli.main, invs, args.seconds, launches)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(info.pop("problems", []))
    first = digests(passes[0])
    if any(digests(p) != first for p in passes[1:]):
        problems.append("report digests differ between passes of one seed")
    failures = [
        {"invocation": res.invocation.label, "problems": res.problems}
        for p in passes for res in p if res.problems
    ]
    attempted = sum(len(p) for p in passes)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "environment": environment(args.seed),
        "workload": args.workload,
        "passes": len(passes),
        "pass_walls": [sum(r.seconds for r in p) for p in passes],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "digests": first,
        **info,
    }))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
