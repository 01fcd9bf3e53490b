"""The report codec derived from the dataclass fields, on generated reports.

Reports with one to three analyses, each optional block absent or present,
must survive parse_json(render_json(r)) == r exactly, render to a document
that the published schema accepts, and render as text without raising.
The examples are a fixed, derandomized set. render_json writes the
document itself; it must write exactly what json.dumps does, on these
reports and on every report golden.
"""
import json
from pathlib import Path

import jsonschema
import pytest

import contextua
from contextua.gf2 import AffineForm
from contextua.presheaf import GlobalSection
from contextua.report import (
    Analysis,
    CertificateBlock,
    MbqcBlock,
    Pin,
    Report,
    _codec,
    parse_json,
    render_json,
    render_text,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"

VALIDATOR = jsonschema.Draft7Validator(
    json.loads(
        (Path(contextua.__file__).resolve().parent / "data" / "report.schema.json").read_text(
            encoding="utf-8"
        )
    )
)


def tuples(elements, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=4).map(tuple)


bodies = st.text(alphabet="IXYZ", min_size=1, max_size=4)
bits = st.integers(0, 1)

certificates = st.builds(
    CertificateBlock,
    rows=tuples(st.integers(0, 99), min_size=1),
    equations=tuples(st.text(max_size=12), min_size=1),
)
sections = st.builds(
    GlobalSection,
    values=st.dictionaries(bodies, bits, max_size=4),
    dimension=st.integers(0, 5),
)
mbqc_blocks = st.builds(
    MbqcBlock,
    input_bits=st.integers(0, 3),
    truth_table=st.none() | tuples(bits),
    indeterminate_inputs=tuples(st.text(alphabet="01", max_size=3)),
    affine=st.none() | st.builds(AffineForm, coefficients=tuples(bits), constant=bits),
    theorem_consistent=st.booleans(),
)
analyses = st.builds(
    Analysis,
    verdict=st.sampled_from(["contextual", "noncontextual"]),
    observables=tuples(bodies),
    contexts=tuples(tuples(bodies)),
    spectrum_sizes=tuples(st.integers(1, 64)),
    pins=tuples(st.builds(Pin, observable=bodies, value_bit=bits)),
    certificate=st.none() | certificates,
    section=st.none() | sections,
    mbqc=st.none() | mbqc_blocks,
)
reports = st.builds(
    Report,
    version=st.text(max_size=8),
    input_sha256=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    analyses=st.dictionaries(st.text(max_size=10), analyses, min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(report=reports)
def test_round_trip_schema_and_text(report):
    rendered = render_json(report)
    assert parse_json(rendered) == report
    VALIDATOR.validate(json.loads(rendered))
    render_text(report)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(report=reports)
def test_render_json_writes_what_json_dumps_writes(report):
    document = {"tool": "contextua", **_codec(Report)[0](report)}
    assert render_json(report) == json.dumps(document, indent=2) + "\n"


def test_report_goldens_render_as_json_dumps_writes_them():
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.json"))]
    reports = [text for text in texts if "analyses" in json.loads(text)]
    assert len(reports) == 11
    for text in reports:
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        assert render_json(parse_json(text)) == text
