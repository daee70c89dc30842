"""Property test of the command line over mutated golden invocations.

Each example starts from one golden case (``test_golden.CASES``) on the
demo scenario cut down to a 9x9 grid, with at most 100 pairs, and
changes one flag or one scenario field.  Whatever the change, the exit
code is one of 0-3, stderr is empty or ends in its only ``error:``
line, which is never the catch-all guard's ``error: <ExceptionType>: ``
form, and a second run writes the same stdout bytes.
"""

import builtins
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mwsync.cli import main
from test_golden import CASES, DEMO

PAIRS = "100"

FLAGS = {
    "eval": ["--map", "--grid"],
    "check": ["--map", "--kind", "--grid"],
    "causal": ["--map", "--pairs", "--seed", "--grid"],
    "counterexample": ["--g1", "--g2", "--pairs", "--seed", "--grid"],
    "propertime": [
        "--mode", "--target", "--observer", "--s0", "--s1", "--a", "--b",
        "--a0", "--a1", "--b0", "--b1", "--x1", "--x2", "--dt", "--accel",
        "--n", "--tol", "--grid",
    ],
}


def _scenario():
    data = json.loads(Path(DEMO).read_text(encoding="utf-8"))
    data["grid"].update(n_t=9, n_x=9)
    return data


def _fields(data, path=()):
    # Paths of every scalar field and every table of the scenario.
    for key, value in data.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _fields(value, path + (key,))


FIELDS = sorted(_fields(_scenario()))

numbers = st.one_of(
    st.integers(-5, 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, -1e300, 1e-300, 5e-324, 0.0, -0.0]),
)
flag_values = st.one_of(
    numbers.map(str),
    st.sampled_from(["", "abc", "lab", "rocket", "wobble", "low", "twin",
                     "holo", "rocket_chart", "nope"]),
    st.tuples(numbers, numbers, numbers, numbers, st.integers(-1, 9),
              st.integers(-1, 9)).map(lambda g: ",".join(map(str, g))),
)
field_values = st.one_of(
    st.integers(-5, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "lab", "mw", "inertial", [], {}, [[0, 0], [1, 0.5]]]),
)


@st.composite
def mutations(draw):
    case = draw(st.sampled_from(sorted(CASES)))
    if draw(st.booleans()):
        flag = draw(st.sampled_from(FLAGS[CASES[case][0]]))
        return case, [("flag", flag, draw(flag_values))]
    return case, [("field", draw(st.sampled_from(FIELDS)), draw(field_values))]


def _argv(case, changes, path):
    verb, *rest = CASES[case]
    flags = dict(zip(rest[::2], rest[1::2]))
    if verb in ("causal", "counterexample"):
        flags["--pairs"] = PAIRS
    data = _scenario()
    for kind, where, value in changes:
        if kind == "flag":
            flags[where] = value
        else:
            *parents, leaf = where
            table = data
            for key in parents:
                table = table[key]
            table[leaf] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [verb, "--scenario", str(path)]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_guard_line(line):
    m = re.match(r"error: (\w+): ", line)
    return m is not None and (
        m.group(1).endswith("Error") or hasattr(builtins, m.group(1))
    )


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "scenario.json"


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(mutation=mutations())
@example(mutation=("causal.drift_chart", [("flag", "--seed", "-1")]))
@example(mutation=("counterexample.lab.wobble", [("flag", "--seed", "-5")]))
@example(mutation=("causal.lab_chart", [("field", ("seed",), -3)]))
@example(mutation=("causal.lab_chart",
                   [("flag", "--grid", "1e300,1.5e300,0,1,3,3")]))
@example(mutation=("counterexample.lab.wobble", [
    ("flag", "--g1", "rocket"),
    ("flag", "--grid", "-1e150,1e150,-1e150,1e150,3,3"),
]))
def test_one_mutation_exits_cleanly_and_deterministically(scenario_path, mutation):
    case, changes = mutation
    argv = _argv(case, changes, scenario_path)
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if err:
        lines = err.splitlines()
        errors = [line for line in lines if "error:" in line]
        assert errors == [lines[-1]], (argv, err)
        assert not _is_guard_line(lines[-1]), (argv, err)
    assert _run(argv) == (code, out, err), argv

