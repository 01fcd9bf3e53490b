"""No input file, however malformed, ends in a traceback.

Short observable, context and pin texts go through ``analyze``, and
JSON-shaped instance data through ``mbqc --instance FILE report/table/run``.
Every run must end with exit code 0 (an analysis), 2 (malformed input) or
3 (indeterminate output), and raise nothing but SystemExit. Sizes stay
small (at most 3 qubits, 8 lines, 4 parties and 4 input bits), and the
examples are a fixed, derandomized set.
"""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from contextua.cli import main

from conftest import random_valid_raw

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def paulis(width=None):
    return st.builds(
        lambda sign, body: sign + body,
        st.sampled_from(["", "+", "-"]),
        st.text(alphabet="IXYZ", min_size=width or 1, max_size=width or 3),
    )


junk = st.sampled_from(
    ["", " ", "#", "context", "pin", "+1", "-1", "-", "+", "Q", "XQ", "x", "X Y", "1",
     "-I", "+III", "XX # note", "\t", "context: X"]
)


@st.composite
def files(draw, pins=False):
    """Up to 8 lines, mostly Pauli strings (or pins) of one width."""
    width = draw(st.integers(1, 3))
    line = st.one_of(paulis(width), paulis(width), st.just("context:"), paulis(), junk)
    if pins:
        value = st.sampled_from(["+1", "-1", "+1", "-1", "1", "0", "", "+2"])
        line = st.builds(lambda op, v: f"pin {op} {v}", line, value) | junk
    return "\n".join(draw(st.lists(line, max_size=8)))


def check(result) -> None:
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert result.exit_code in (0, 2, 3), result.output


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(obs=files(), contexts=st.none() | files(), pins=st.none() | files(pins=True))
def test_analyze_never_raises(workdir, obs, contexts, pins):
    args = ["analyze"]
    for option, text in (("--obs", obs), ("--contexts", contexts), ("--pin", pins)):
        if text is not None:
            path = workdir / option.strip("-")
            path.write_text(text, encoding="utf-8")
            args += [option, str(path)]
    check(CliRunner().invoke(main, args))


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.sampled_from([2.5, "1", "X", "+ZZ"])
)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12
)
fields = ["parties", "input_bits", "Q", "observables", "resource"]


@st.composite
def instances(draw):
    """A valid instance with up to two fields dropped or changed, or any JSON.

    A field is changed by replacing it whole, or one entry of it (at depth
    one or two) by a JSON value or a Pauli string.
    """
    if draw(st.integers(0, 4)) == 0:
        return draw(json_values | st.dictionaries(st.sampled_from(fields), json_values))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = random_valid_raw(rng, max_parties=4, max_input_bits=4)
    for field in draw(st.lists(st.sampled_from(fields), max_size=2, unique=True)):
        action = draw(st.sampled_from(["drop", "replace", "entry"]))
        if action == "drop":
            del raw[field]
        elif action == "replace" or not isinstance(raw[field], list) or not raw[field]:
            raw[field] = draw(json_values)
        else:
            target = raw[field]
            index = draw(st.integers(0, len(target) - 1))
            if isinstance(target[index], list) and target[index] and draw(st.booleans()):
                target, index = target[index], draw(st.integers(0, len(target[index]) - 1))
            target[index] = draw(json_values | paulis())
    return raw


@FUZZ
@given(
    raw=instances(),
    bits=st.text(alphabet="01x", max_size=5),
    fmt=st.sampled_from(["text", "json"]),
)
def test_mbqc_never_raises(workdir, raw, bits, fmt):
    path = workdir / "instance.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    runner = CliRunner()
    base = ["mbqc", "--instance", str(path)]
    check(runner.invoke(main, base + ["report", "--format", fmt]))
    check(runner.invoke(main, base + ["table", "--format", fmt]))
    check(runner.invoke(main, base + ["run", "--input", bits, "--format", fmt]))
