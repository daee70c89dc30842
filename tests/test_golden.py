"""Golden CLI reports on the demo scenario, pinned byte for byte.

Each case runs one command line against ``scenarios/demo.json`` and
compares its exit code, stderr and report with the files under
``tests/golden/``: ``<case>.out`` holds the report, ``manifest.json``
the exit code and stderr of every case, and the sha256 of the report
where the report is a large CSV.  A refactor must leave all of them
unchanged; a change that means to alter a report regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which lines moved and why.  The exit codes
of the ``check``, ``counterexample`` and chart ``causal`` cases are also
checked against the verdicts of the library reports, computed without
running the verbs.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mwsync import (
    AutomorphismOutcome,
    MarzkeWheelerMap,
    automorphism_suite,
    low_counterexample,
)
from mwsync.cli import _CHECKS, main
from mwsync.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = str(ROOT / "scenarios" / "demo.json")

MAPS = [
    "identity_like", "lab_chart", "drift_chart", "rocket_chart",
    "wobble_chart", "drift_conj", "low",
]
KINDS = ["holo", "antiholo", "wave", "conformal", "loggwave"]

CASES = {
    **{
        f"check.{kind}.{name}": ("check", "--map", name, "--kind", kind)
        for name in MAPS
        for kind in KINDS
    },
    **{f"causal.{name}": ("causal", "--map", name) for name in MAPS},
    **{
        f"counterexample.lab.{g2}": ("counterexample", "--g1", "lab", "--g2", g2)
        for g2 in ("wobble", "drift")
    },
    "propertime.twin": (
        "propertime", "--mode", "twin", "--a", "lab_shifted", "--b", "rocket",
        "--a0", "-0.6", "--a1", "0.6",
    ),
    "propertime.inertial": (
        "propertime", "--mode", "inertial", "--target", "wobble",
        "--s0", "-0.5", "--s1", "0.5",
    ),
    "propertime.accelerated": (
        "propertime", "--mode", "accelerated", "--observer", "rocket",
        "--target", "lab_shifted", "--s0", "-0.5", "--s1", "0.5",
    ),
    "propertime.dilation": (
        "propertime", "--mode", "dilation", "--accel", "1.0", "--x1", "0",
        "--x2", "0.25", "--dt", "2.0",
    ),
    "eval.rocket_chart": ("eval", "--map", "rocket_chart"),
    # At 10^5 pairs the samplers and the radar inverse run past one
    # cache-sized chunk, which the 1000-pair cases never reach.
    "scale.causal.wobble_chart": (
        "causal", "--map", "wobble_chart", "--pairs", "100000",
    ),
    "scale.causal.low": ("causal", "--map", "low", "--pairs", "100000"),
    "scale.counterexample.lab.wobble": (
        "counterexample", "--g1", "lab", "--g2", "wobble", "--pairs", "100000",
    ),
}

# Reports pinned by digest only, to keep the golden files small.
HASHED = {"eval.rocket_chart"} | {name for name in CASES if name.startswith("scale.")}


def _argv(name):
    verb, *rest = CASES[name]
    return [verb, "--scenario", DEMO, *rest]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_golden_file(name, manifest, capsys):
    code = main(_argv(name))
    out, err = capsys.readouterr()
    expected = manifest[name]
    assert (code, err) == (expected["exit"], expected["stderr"])
    if name in HASHED:
        assert _sha256(out) == expected["sha256"]
    else:
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_every_golden_file_belongs_to_a_case(manifest):
    assert set(manifest) == set(CASES)
    outs = {p.stem for p in GOLDEN.glob("*.out")}
    assert outs == set(CASES) - HASHED


def test_every_text_report_is_key_value_lines_with_unique_keys():
    # The contract a second rendering of the same fields relies on.
    for name in sorted(set(CASES) - HASHED):
        lines = (GOLDEN / f"{name}.out").read_text(encoding="utf-8").splitlines()
        keys = [line.split(": ", 1)[0] for line in lines]
        assert all(": " in line for line in lines), name
        assert all(key and " " not in key for key in keys), name
        assert len(set(keys)) == len(keys), name


SCENARIO = load_scenario(DEMO)


def _library_verdict(verb, flags):
    """The verdict of the library report behind one case, computed
    without running the verb; None where the CLI rejects the input."""
    grid, seed = SCENARIO.grid, SCENARIO.seed
    null_band = SCENARIO.tolerances.null_band
    if verb == "counterexample":
        g1, g2 = SCENARIO.observer(flags["--g1"]), SCENARIO.observer(flags["--g2"])
        return low_counterexample(g1, g2, grid, seed, 100000, null_band).passed
    m = SCENARIO.map(flags["--map"])
    if verb == "causal":
        rep = automorphism_suite(m, grid, 1000, seed, null_band)
        return rep.outcome is not AutomorphismOutcome.FAIL
    if flags["--kind"] == "loggwave" and not hasattr(m, "conformal_components"):
        return None
    return _CHECKS[flags["--kind"]](m, grid).passed


# Every check and counterexample case, and the causal cases of charts.
VERDICT_CASES = sorted(
    name for name in CASES
    if name.startswith(("check.", "counterexample."))
    or name.startswith("causal.")
    and isinstance(SCENARIO.map(CASES[name][2]), MarzkeWheelerMap)
)


@pytest.mark.parametrize("name", VERDICT_CASES)
def test_exit_code_is_the_library_verdict(name, manifest):
    verb, *rest = CASES[name]
    verdict = _library_verdict(verb, dict(zip(rest[::2], rest[1::2])))
    expected = 2 if verdict is None else 0 if verdict else 1
    assert manifest[name]["exit"] == expected


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    manifest = {}
    for name in sorted(CASES):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_argv(name))
        entry = {"exit": code, "stderr": err.getvalue()}
        if name in HASHED:
            entry["sha256"] = _sha256(out.getvalue())
        else:
            (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
        manifest[name] = entry
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
