"""File formats, fixture integrity and report-document round trips."""
import json
from pathlib import Path

import jsonschema
import pytest

import contextua
from contextua import fixtures
from contextua.io import (
    FileFormatError,
    load_instance,
    parse_observable_file,
    parse_pin_file,
    sha256_digest,
)
from contextua.mbqc import contextuality_report
from contextua.pauli import parse_pauli
from contextua.presheaf import build_global_problem, solve_global
from contextua.report import (
    Analysis,
    Report,
    TOOL_VERSION,
    build_analysis,
    equation_lines,
    mbqc_block,
    parse_json,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def mermin_analysis() -> Analysis:
    contexts = fixtures.mermin_contexts()
    problem = build_global_problem(contexts)
    return build_analysis(contexts, problem, solve_global(problem))


def mbqc_analysis(inst) -> Analysis:
    rep = contextuality_report(inst)
    return build_analysis(
        rep.contexts, rep.problem, rep.global_section, rep.pins, mbqc_block(rep)
    )


class TestObservableFiles:
    def test_loose_lines_with_comments(self):
        text = "# header\nXX  # inline comment\n\n-ZZ\n"
        loose, blocks = parse_observable_file(text)
        assert [op.body() for op in loose] == ["XX", "ZZ"]
        assert loose[1].sign == -1
        assert blocks == ()

    def test_context_blocks(self):
        text = "XX\ncontext:\nXI\nIX\ncontext:\nZZ\n"
        loose, blocks = parse_observable_file(text)
        assert [op.body() for op in loose] == ["XX"]
        assert [[op.body() for op in b] for b in blocks] == [["XI", "IX"], ["ZZ"]]

    def test_empty_block_is_refused(self):
        with pytest.raises(FileFormatError):
            parse_observable_file("context:\ncontext:\nXX\n")
        with pytest.raises(FileFormatError):
            parse_observable_file("XX\ncontext:\n")

    def test_mixed_widths_are_refused(self):
        with pytest.raises(FileFormatError):
            parse_observable_file("X\nXX\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(FileFormatError) as excinfo:
            parse_observable_file("XX\nbogus\n")
        assert "line 2" in str(excinfo.value)

    def test_empty_file(self):
        assert parse_observable_file("# nothing\n") == ((), ())


class TestPinFiles:
    def test_parse_pins(self):
        pins = parse_pin_file("pin XXX +1\npin -XYY +1\n")
        assert pins[0].observable == parse_pauli("XXX")
        assert pins[0].value_bit == 0
        assert pins[1].observable == parse_pauli("XYY")
        assert pins[1].value_bit == 1

    def test_bad_lines(self):
        for text in ("fix X +1\n", "pin X\n", "pin X 1\n", "pin bogus +1\n"):
            with pytest.raises(FileFormatError):
                parse_pin_file(text)


class TestInstanceIO:
    def test_load_instance(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(fixtures.anders_browne_raw()), encoding="utf-8")
        inst = load_instance(path)
        assert inst.parties == 3
        assert inst.input_bits == 2

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FileFormatError):
            load_instance(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FileFormatError):
            load_instance(path)


class TestFixtureFiles:
    def test_observable_file_matches_builder(self):
        on_disk = (FIXTURES / "mermin.txt").read_text(encoding="utf-8")
        assert on_disk == fixtures.mermin_file_text()
        loose, blocks = parse_observable_file(on_disk)
        assert len(loose) == 10 and blocks == ()

    def test_context_file_matches_builder(self):
        on_disk = (FIXTURES / "mermin_contexts.txt").read_text(encoding="utf-8")
        assert on_disk == fixtures.mermin_contexts_file_text()
        loose, blocks = parse_observable_file(on_disk)
        assert loose == () and len(blocks) == 5

    def test_pin_file_matches_builder(self):
        on_disk = (FIXTURES / "ghz_pins.txt").read_text(encoding="utf-8")
        assert parse_pin_file(on_disk) == fixtures.ghz_pins()

    def test_instance_files_match_builders(self):
        with open(FIXTURES / "anders_browne.json", encoding="utf-8") as handle:
            assert json.load(handle) == fixtures.anders_browne_raw()
        with open(FIXTURES / "z_product.json", encoding="utf-8") as handle:
            assert json.load(handle) == fixtures.z_product_raw()


class TestDigest:
    def test_deterministic(self):
        assert sha256_digest(b"abc") == sha256_digest(b"abc")

    def test_chunk_boundaries_matter(self):
        assert sha256_digest(b"ab") != sha256_digest(b"a", b"b")


class TestReportDocument:
    def test_round_trip_contextual(self):
        report = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"fixture"),
            analyses={"state_independent": mermin_analysis()},
        )
        assert parse_json(render_json(report)) == report

    def test_round_trip_with_mbqc_blocks(self):
        contextual = mbqc_analysis(fixtures.anders_browne_instance())
        clean = mbqc_analysis(fixtures.z_product_instance())
        report = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"two"),
            analyses={"or_gate": contextual, "z_product": clean},
        )
        assert parse_json(render_json(report)) == report

    def test_rendering_is_reproducible(self):
        one = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"x"),
            analyses={"a": mermin_analysis()},
        )
        two = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"x"),
            analyses={"a": mermin_analysis()},
        )
        assert render_json(one) == render_json(two)
        assert render_text(one) == render_text(two)

    def test_certificate_content(self):
        analysis = mermin_analysis()
        assert analysis.verdict == "contextual"
        assert analysis.certificate is not None
        assert analysis.certificate.rows == (0, 1, 2, 3, 4)
        assert len(analysis.certificate.equations) == 5
        assert "XXX * XYY * YXY * YYX = -1" in analysis.certificate.equations
        assert analysis.section is None
        assert analysis.spectrum_sizes == (8, 8, 8, 8, 8)

    def test_equation_lines_sort_terms(self):
        problem = build_global_problem(fixtures.mermin_contexts())
        lines = equation_lines(problem, [0])
        assert lines == ("IIX * IXI * XII * XXX = +1",)

    def test_text_rendering(self):
        contexts = fixtures.mermin_contexts()
        problem = build_global_problem(contexts, fixtures.ghz_pins())
        analysis = build_analysis(
            contexts, problem, solve_global(problem), fixtures.ghz_pins()
        )
        report = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"text"),
            analyses={"ghz_pinned": analysis},
        )
        text = render_text(report)
        assert text.startswith(f"contextua {TOOL_VERSION}\n")
        assert "[ghz_pinned]" in text
        assert "verdict: contextual" in text
        assert "pinned eigenvalues:" in text
        assert "  XYY = -1" in text
        assert "sum of the selected rows: 0 = 1 => contradiction" in text

    def test_text_rendering_of_sections_and_tables(self):
        analysis = mbqc_analysis(fixtures.z_product_instance())
        report = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"zz"),
            analyses={"z_product": analysis},
        )
        text = render_text(report)
        assert "verdict: noncontextual" in text
        assert "global section" in text
        assert "truth table:" in text
        assert "  0 -> 0" in text
        assert "affine form: o(i) = 0" in text
        assert "theorem consistent: yes" in text

    def test_schema_accepts_rendered_reports(self):
        schema_path = (
            Path(contextua.__file__).resolve().parent / "data" / "report.schema.json"
        )
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        contextual = Report(
            version=TOOL_VERSION,
            input_sha256=sha256_digest(b"s"),
            analyses={
                "state_independent": mermin_analysis(),
                "or_gate": mbqc_analysis(fixtures.anders_browne_instance()),
                "z_product": mbqc_analysis(fixtures.z_product_instance()),
            },
        )
        jsonschema.validate(json.loads(render_json(contextual)), schema)

    def test_schema_rejects_wrong_tool(self):
        schema_path = (
            Path(contextua.__file__).resolve().parent / "data" / "report.schema.json"
        )
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        document = json.loads(
            render_json(
                Report(version=TOOL_VERSION, input_sha256=sha256_digest(b"s"), analyses={})
            )
        )
        document["tool"] = "something-else"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, schema)
