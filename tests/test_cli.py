"""End-to-end command tests through click's CliRunner."""
import builtins
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from contextua import cli, fixtures, io
from contextua.cli import main
from contextua.gf2 import AffineForm
from contextua.io import sha256_digest
from contextua.mbqc import IndeterminateInputsError, contextuality_report
from contextua.pauli import PauliOperator
from contextua.report import TOOL_VERSION, Analysis, MbqcBlock, Report, parse_json, render_text

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_instance(tmp_path, raw, name="instance.json"):
    return write(tmp_path, name, json.dumps(raw))


class TestAnalyze:
    def test_contextual_observable_file(self, runner):
        result = runner.invoke(main, ["analyze", "--obs", str(FIXTURES / "mermin.txt")])
        assert result.exit_code == 0
        assert "verdict: contextual" in result.output

    def test_explicit_contexts(self, runner):
        result = runner.invoke(
            main,
            [
                "analyze",
                "--obs", str(FIXTURES / "mermin.txt"),
                "--contexts", str(FIXTURES / "mermin_contexts.txt"),
            ],
        )
        assert result.exit_code == 0
        assert "verdict: contextual" in result.output
        assert result.output.count(") ") == 5  # five numbered context lines

    def test_every_block_is_validated_before_the_solver(self, runner, tmp_path):
        """Mermin's five blocks contradict, yet a sixth that does not commute is refused."""
        mermin = (FIXTURES / "mermin_contexts.txt").read_text(encoding="utf-8")
        ctx = write(tmp_path, "ctx.txt", mermin + "context:\nXII\nZII\n")
        result = runner.invoke(
            main, ["analyze", "--obs", str(FIXTURES / "mermin.txt"), "--contexts", ctx]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: XII and ZII do not commute\n"

    @pytest.mark.parametrize(
        "block, message",
        [
            ("XXX\nZII\n", "XXX and ZII do not commute"),
            ("+XXX\n-XXX\n", "generators include both +XXX and -XXX"),
        ],
    )
    def test_blocks_the_solver_never_reads_are_validated(self, runner, tmp_path, block, message):
        """The solver stops within Mermin's five blocks; a bad sixth still exits 2."""
        mermin = (FIXTURES / "mermin_contexts.txt").read_text(encoding="utf-8")
        ctx = write(tmp_path, "ctx.txt", mermin + "context:\n" + block)
        result = runner.invoke(
            main, ["analyze", "--obs", str(FIXTURES / "mermin.txt"), "--contexts", ctx]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_analyze_hashes_no_operator(self, runner, tmp_path, monkeypatch):
        """Observables are named and keyed by their bits and body strings only."""
        paulis = ["".join(b) for b in product("IXYZ", repeat=3)][1:]
        assert len(paulis) == 63
        all_three = write(tmp_path, "all.txt", "\n".join(paulis) + "\n")
        mermin = [
            "--obs", str(FIXTURES / "mermin.txt"),
            "--contexts", str(FIXTURES / "mermin_contexts.txt"),
            "--pin", str(FIXTURES / "ghz_pins.txt"),
        ]
        commands = [
            ["analyze", *files, "--format", fmt]
            for files in (["--obs", all_three], mermin)
            for fmt in ("text", "json")
        ]
        expected = [runner.invoke(main, args).stdout_bytes for args in commands]

        def refuse(op):
            raise AssertionError(f"hashed {op!r}")

        monkeypatch.setattr(PauliOperator, "__hash__", refuse)
        with pytest.raises(AssertionError):
            hash(PauliOperator(1, 1, 0))
        for args, before in zip(commands, expected):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert result.stdout_bytes == before

    def test_noncontextual_singleton(self, runner, tmp_path):
        obs = write(tmp_path, "one.txt", "X\n")
        result = runner.invoke(main, ["analyze", "--obs", obs])
        assert result.exit_code == 0
        assert "verdict: noncontextual" in result.output
        assert "X = +1" in result.output

    def test_pins_steer_the_section(self, runner, tmp_path):
        obs = write(tmp_path, "one.txt", "X\n")
        pin = write(tmp_path, "pin.txt", "pin X -1\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", pin])
        assert result.exit_code == 0
        assert "X = -1" in result.output

    def test_contradictory_pins(self, runner, tmp_path):
        """No state gives XX both eigenvalues: malformed input, not contextuality."""
        obs = write(tmp_path, "o.txt", "XX\n")
        pin = write(tmp_path, "p.txt", "pin XX +1\npin -XX +1\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", pin])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "XX" in result.stderr
        agreeing = write(tmp_path, "q.txt", "pin XX +1\npin -XX -1\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", agreeing])
        assert result.exit_code == 0
        assert "XX = +1" in result.output

    def test_pinned_ghz_contexts(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "analyze",
                "--obs", str(FIXTURES / "mermin.txt"),
                "--contexts", str(FIXTURES / "mermin_contexts.txt"),
                "--pin", str(FIXTURES / "ghz_pins.txt"),
                "--format", "json",
            ],
        )
        assert result.exit_code == 0
        report = parse_json(result.output)
        assert list(report.analyses) == ["analysis"]
        analysis = report.analyses["analysis"]
        assert analysis.verdict == "contextual"
        assert len(analysis.pins) == 4

    def test_json_output_shape(self, runner, tmp_path):
        obs = write(tmp_path, "one.txt", "X\nZ\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--format", "json"])
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["tool"] == "contextua"
        assert "analysis" in document["analyses"]

    def test_one_context_of_1023_members(self, runner, tmp_path):
        """All Z-type strings on 10 qubits commute: one clique, found without recursion."""
        texts = ["".join(p) for p in product("IZ", repeat=10)][1:]
        obs = write(tmp_path, "all_z.txt", "\n".join(texts) + "\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--format", "json"])
        assert result.exit_code == 0, result.output
        analysis = parse_json(result.output).analyses["analysis"]
        assert analysis.verdict == "noncontextual"
        assert len(analysis.contexts) == 1
        assert len(analysis.contexts[0]) == 1023

    def test_malformed_observable_file(self, runner, tmp_path):
        obs = write(tmp_path, "bad.txt", "XX\nnot-a-pauli\n")
        result = runner.invoke(main, ["analyze", "--obs", obs])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_unknown_pin_target(self, runner, tmp_path):
        obs = write(tmp_path, "one.txt", "X\n")
        pin = write(tmp_path, "pin.txt", "pin Z +1\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", pin])
        assert result.exit_code == 2

    def test_unknown_pin_on_contradictory_contexts(self, runner, tmp_path):
        """The pin is refused though the contexts alone already contradict."""
        pin = write(tmp_path, "pin.txt", "pin XXX +1\npin ZZZ +1\n")
        result = runner.invoke(
            main, ["analyze", "--obs", str(FIXTURES / "mermin.txt"), "--pin", pin]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: pinned observable ZZZ does not occur in any context\n"

    @pytest.mark.parametrize("text", ["pin II +1\n", "pin -II -1\n"])
    def test_identity_pin_that_holds(self, runner, tmp_path, text):
        obs = write(tmp_path, "o.txt", "XX\nZZ\n")
        pin = write(tmp_path, "p.txt", text)
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", pin])
        assert result.exit_code == 0, result.output
        assert "verdict: noncontextual" in result.output
        assert "pinned eigenvalues:\n  II = +1\n" in result.output

    @pytest.mark.parametrize("text", ["pin II -1\n", "pin -II +1\n"])
    def test_identity_pin_that_fails(self, runner, tmp_path, text):
        """Pinning the identity to -1 is the one-row certificate I = -1."""
        obs = write(tmp_path, "o.txt", "XX\nZZ\n")
        pin = write(tmp_path, "p.txt", text)
        args = ["analyze", "--obs", obs, "--pin", pin, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        analysis = parse_json(result.output).analyses["analysis"]
        assert analysis.verdict == "contextual"
        assert analysis.certificate.rows == (0,)
        assert analysis.certificate.equations == ("I = -1",)
        wrong_width = write(tmp_path, "w.txt", "pin III -1\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--pin", wrong_width])
        assert result.exit_code == 2
        assert result.stderr == "error: mixed operator widths: [2, 3]\n"

    def test_loose_lines_in_context_file(self, runner, tmp_path):
        obs = write(tmp_path, "one.txt", "XX\n")
        ctx = write(tmp_path, "ctx.txt", "XX\ncontext:\nXX\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--contexts", ctx])
        assert result.exit_code == 2

    def test_context_blocks_in_both_files(self, runner, tmp_path):
        obs = write(tmp_path, "obs.txt", "X\ncontext:\nZ\nY\n")
        ctx = write(tmp_path, "ctx.txt", "context:\nX\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--contexts", ctx])
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert "context blocks" in result.stderr

    def test_observable_outside_every_context(self, runner, tmp_path):
        """XI is refused; the identity, of either sign, and -XX are covered.

        An identity of another width is refused as a mixed width, as any
        other operator of that width is.
        """
        ctx = write(tmp_path, "ctx.txt", "context:\nXX\ncontext:\nZZ\n")
        for loose, error in [
            ("XX\nZZ\nXI\n", "observables outside every context: XI"),
            ("XI\nII\n-XX\n", "observables outside every context: XI"),
            ("-I\n", "mixed operator widths: [1, 2]"),
        ]:
            obs = write(tmp_path, "obs.txt", loose)
            result = runner.invoke(main, ["analyze", "--obs", obs, "--contexts", ctx])
            assert result.exit_code == 2
            assert result.stderr == f"error: {error}\n"
        for loose in ("II\n", "-II\n", "-XX\n", "XX\nII\n-II\n-XX\nZZ\n"):
            obs = write(tmp_path, "obs.txt", loose)
            result = runner.invoke(main, ["analyze", "--obs", obs, "--contexts", ctx])
            assert result.exit_code == 0, result.stderr
            assert "verdict: noncontextual" in result.output

    def test_mixed_widths_across_files(self, runner, tmp_path):
        """Contexts or pins of another width than the observables are refused as such."""
        obs = write(tmp_path, "obs.txt", "XX\n")
        wide_contexts = write(tmp_path, "ctx.txt", "context:\nXXX\n")
        wide_pin = write(tmp_path, "pin.txt", "pin XXX +1\n")
        for extra in (["--contexts", wide_contexts], ["--pin", wide_pin]):
            result = runner.invoke(main, ["analyze", "--obs", obs, *extra])
            assert result.exit_code == 2
            assert result.stderr == "error: mixed operator widths: [2, 3]\n"
            assert result.stdout == ""

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--obs", str(tmp_path / "no.txt")])
        assert result.exit_code == 2


class TestMermin:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["mermin"])
        assert result.exit_code == 0
        assert "[state_independent]" in result.output
        assert "[ghz_pinned]" in result.output
        assert result.output.count("verdict: contextual") == 2
        assert "XXX * XYY * YXY * YYX = -1" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(main, ["mermin", "--format", "json"])
        assert result.exit_code == 0
        report = parse_json(result.output)
        assert list(report.analyses) == ["state_independent", "ghz_pinned"]
        for analysis in report.analyses.values():
            assert analysis.verdict == "contextual"
            assert len(analysis.observables) == 10
            assert len(analysis.contexts) == 5

    def test_repeated_runs_keep_no_output_alive(self, runner):
        """Twenty in-process runs retain far less than their 2.9 kB reports."""
        args = ["mermin", "--format", "json"]
        runner.invoke(main, args)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(20):
                runner.invoke(main, args)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 20_000

    def test_byte_identical_runs(self, runner):
        first = runner.invoke(main, ["mermin", "--format", "json"])
        second = runner.invoke(main, ["mermin", "--format", "json"])
        assert first.output == second.output


class TestMbqcRun:
    def test_outputs(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        for bits, expected in (("00", "0"), ("01", "1"), ("10", "1"), ("11", "1")):
            result = runner.invoke(
                main, ["mbqc", "--instance", inst, "run", "--input", bits]
            )
            assert result.exit_code == 0
            assert result.output.strip() == expected

    def test_json_payload(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        result = runner.invoke(
            main,
            ["mbqc", "--instance", inst, "run", "--input", "11", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["input"] == "11"
        assert payload["output"] == 1

    def test_wrong_input_length(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "run", "--input", "101"]
        )
        assert result.exit_code == 2

    def test_non_binary_input(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "run", "--input", "2x"]
        )
        assert result.exit_code == 2

    def test_indeterminate_exit_code(self, runner, tmp_path):
        """An indeterminate output is a result on stdout, exit 3, with nothing on stderr."""
        raw = {
            "parties": 2,
            "input_bits": 1,
            "Q": [[1], [1]],
            "observables": [["X", "X"], ["Y", "Y"]],
            "resource": ["+ZI", "+IZ"],
        }
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "run", "--input", "0"]
        )
        assert result.exit_code == 3
        assert result.stdout == "indeterminate\n"
        assert result.stderr == ""
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "run", "--input", "0", "--format", "json"]
        )
        assert result.exit_code == 3
        assert result.stdout == (
            f'{{\n  "tool": "contextua",\n  "version": "{TOOL_VERSION}",\n'
            '  "input": "0",\n  "output": null\n}\n'
        )
        assert json.loads(result.stdout)["output"] is None
        assert result.stderr == ""


class TestMbqcTable:
    def test_or_gate_table(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        result = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["00: 0", "01: 1", "10: 1", "11: 1"]

    def test_json_table(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.z_product_raw())
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "table", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["outputs"] == [0, 0]

    def test_indeterminate_exit_code(self, runner, tmp_path):
        raw = {
            "parties": 1,
            "input_bits": 1,
            "Q": [[1]],
            "observables": [["Z"], ["X"]],
            "resource": ["+Z"],
        }
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert result.exit_code == 3
        assert "indeterminate" in result.stderr


class TestMbqcReport:
    def test_or_gate_report(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        result = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert result.exit_code == 0
        assert "verdict: contextual" in result.output
        assert "truth table:" in result.output
        assert "affine form: none (the computed function is not affine)" in result.output
        assert "theorem consistent: yes" in result.output

    def test_clean_instance_report(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.z_product_raw())
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "report", "--format", "json"]
        )
        assert result.exit_code == 0
        report = parse_json(result.output)
        analysis = report.analyses["mbqc"]
        assert analysis.verdict == "noncontextual"
        assert analysis.mbqc.affine == AffineForm(coefficients=(0,), constant=0)
        assert analysis.mbqc.truth_table == (0, 0)

    def test_unstabilized_joint_exit_code(self, runner, tmp_path):
        raw = {
            "parties": 1,
            "input_bits": 1,
            "Q": [[1]],
            "observables": [["Z"], ["X"]],
            "resource": ["+Z"],
        }
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert result.exit_code == 3
        assert "indeterminate" in result.stderr

    @pytest.mark.parametrize("command", ["table", "report"])
    def test_indeterminate_empty_input_is_named(self, runner, tmp_path, command):
        """With no input bits the one undetermined input is named (), as in the text table."""
        raw = {
            "parties": 1,
            "input_bits": 0,
            "Q": [[]],
            "observables": [["X"], ["Z"]],
            "resource": ["+Z"],
        }
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(main, ["mbqc", "--instance", inst, command])
        assert result.exit_code == 3
        assert result.stderr == "error: output is indeterminate for inputs: ()\n"

    def test_byte_identical_runs(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        args = ["mbqc", "--instance", inst, "report", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


def parity_raw(input_bits):
    """One party measures Z or -Z by the parity of all input bits: o(i) = i_1 + ... + i_m."""
    return {
        "parties": 1,
        "input_bits": input_bits,
        "Q": [[1] * input_bits],
        "observables": [["Z"], ["-Z"]],
        "resource": ["+Z"],
    }


def reference_keys(input_bits):
    """Each input's key as the tables print it, one format call per input."""
    if not input_bits:
        return ["()"]
    return [format(index, f"0{input_bits}b") for index in range(1 << input_bits)]


class TestTruthTableLines:
    @pytest.mark.parametrize("input_bits", range(13))
    def test_report_and_table_lines(self, runner, tmp_path, input_bits):
        inst = write_instance(tmp_path, parity_raw(input_bits))
        outputs = [index.bit_count() & 1 for index in range(1 << input_bits)]
        keys = reference_keys(input_bits)
        table = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert table.exit_code == 0
        assert table.output == "".join(f"{k}: {o}\n" for k, o in zip(keys, outputs))
        report = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert report.exit_code == 0
        lines = report.output.splitlines()
        start = lines.index("truth table:") + 1
        assert lines[start:start + len(keys)] == [f"  {k} -> {o}" for k, o in zip(keys, outputs)]
        assert lines[start + len(keys)].startswith("affine form: o(i) = ")

    @pytest.mark.parametrize("input_bits", range(13))
    def test_render_text_lines_of_random_tables(self, input_bits):
        rng = random.Random(input_bits)
        outputs = tuple(rng.getrandbits(1) for _ in range(1 << input_bits))
        block = MbqcBlock(input_bits, outputs, (), None, True)
        analysis = Analysis("contextual", (), (), (), (), None, None, block)
        text = render_text(Report("0.2.0", "0" * 64, {"mbqc": analysis}))
        keys = reference_keys(input_bits)
        expected = "truth table:\n" + "".join(
            f"  {k} -> {o}\n" for k, o in zip(keys, outputs)
        ) + "affine form: none (the computed function is not affine)\n"
        assert expected in text


ANALYZE_INPUTS = {
    "--obs": "mermin.txt", "--contexts": "mermin_contexts.txt", "--pin": "ghz_pins.txt"
}


def crlf_copies(tmp_path, names):
    """Copies of the named fixtures with \\r\\n line ends, in the given order."""
    paths = []
    for name in names:
        path = tmp_path / name
        path.write_bytes((FIXTURES / name).read_bytes().replace(b"\n", b"\r\n"))
        paths.append(path)
    return paths


class TestInputFiles:
    """Each input file is read once: the digest names exactly the bytes parsed."""

    @staticmethod
    def count_opens(monkeypatch, paths):
        opens = dict.fromkeys(map(str, paths), 0)
        path_open, builtin_open = Path.open, builtins.open

        def counting_path_open(self, *args, **kwargs):
            if str(self) in opens:
                opens[str(self)] += 1
            return path_open(self, *args, **kwargs)

        def counting_open(file, *args, **kwargs):
            if str(file) in opens:
                opens[str(file)] += 1
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_path_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        return opens

    def test_analyze_reads_each_file_once(self, runner, tmp_path, monkeypatch):
        paths = crlf_copies(tmp_path, ANALYZE_INPUTS.values())
        args = ["analyze", "--format", "json"]
        for option, path in zip(ANALYZE_INPUTS, paths):
            args += [option, str(path)]
        opens = self.count_opens(monkeypatch, paths)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert opens == dict.fromkeys(opens, 1)
        report = json.loads(result.output)
        assert report["input_sha256"] == sha256_digest(*(p.read_bytes() for p in paths))
        lf_args = ["analyze", "--format", "json"]
        for option, name in ANALYZE_INPUTS.items():
            lf_args += [option, str(FIXTURES / name)]
        lf_report = json.loads(runner.invoke(main, lf_args).output)
        assert report["analyses"] == lf_report["analyses"]

    def test_mbqc_reads_the_instance_once(self, runner, tmp_path, monkeypatch):
        (path,) = crlf_copies(tmp_path, ["anders_browne.json"])
        opens = self.count_opens(monkeypatch, [path])
        result = runner.invoke(
            main, ["mbqc", "--instance", str(path), "report", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        assert opens == {str(path): 1}
        assert json.loads(result.output)["input_sha256"] == sha256_digest(path.read_bytes())

    @pytest.mark.parametrize("option", [*ANALYZE_INPUTS, "--instance"])
    def test_invalid_utf8_is_an_input_error(self, runner, tmp_path, option):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"+X\n\xff\xfe\n")
        if option == "--instance":
            args = ["mbqc", "--instance", str(bad), "report"]
        else:
            args = ["analyze"]
            for name, fixture in ANALYZE_INPUTS.items():
                args += [name, str(bad) if name == option else str(FIXTURES / fixture)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")


class TestBadInvocations:
    def test_malformed_instance_json(self, runner, tmp_path):
        inst = write(tmp_path, "broken.json", "{oops")
        result = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert result.exit_code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_instance_number_past_the_digit_limit(self, runner, tmp_path):
        """json.loads raises a plain ValueError past the integer-digit limit."""
        valid = json.dumps(fixtures.anders_browne_raw())
        inst = write(tmp_path, "long.json", valid[:-1] + ', "extra": ' + "9" * 5000 + "}")
        result = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: invalid JSON:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("shape", ["bare-array", "extra-key"])
    def test_deeply_nested_instance_json(self, tmp_path, shape):
        """Nesting past the parser's recursion limit, or past MAX_JSON_DEPTH on an
        interpreter whose limit is higher, exits 2 in a fresh process, untraced."""
        if shape == "bare-array":
            text = "[" * 100_000 + "]" * 100_000
        else:
            valid = json.dumps(fixtures.anders_browne_raw())
            text = valid[:-1] + ', "extra": ' + "[" * 1200 + "]" * 1200 + "}"
        inst = write(tmp_path, "deep.json", text)
        result = subprocess.run(
            [sys.executable, "-c", "from contextua.cli import main; main()",
             "mbqc", "--instance", inst, "report"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == "error: invalid JSON: nested too deeply\n"
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", ["obs-line", "pin-line", "instance-observable",
                                      "indeterminate-listing"])
    def test_long_error_lines_are_cut(self, tmp_path, case):
        """An error quoting a huge input line, or listing 32,768 inputs, exits with
        its first 200 characters and a count of the rest, in a fresh process."""
        if case == "obs-line":
            text = "X" * 50_000 + "Q" + "X" * 50_000 + "\n"
            args, code = ["analyze", "--obs", write(tmp_path, "long.txt", text)], 2
            prefix = "line 1: not a signed Pauli string: 'XXX"
            with pytest.raises(io.FileFormatError) as caught:
                io.parse_observable_file(text)
        elif case == "pin-line":
            text = "pin " + "X" * 50_000 + "Q +1\n"
            obs = write(tmp_path, "obs.txt", "XX\n")
            args, code = ["analyze", "--obs", obs, "--pin", write(tmp_path, "pin.txt", text)], 2
            prefix = "line 1: not a signed Pauli string: 'XXX"
            with pytest.raises(io.FileFormatError) as caught:
                io.parse_pin_file(text)
        elif case == "instance-observable":
            raw = fixtures.anders_browne_raw()
            raw["observables"][0][0] = "Z" * 30_000
            inst = write_instance(tmp_path, raw)
            args, code = ["mbqc", "--instance", inst, "report"], 2
            prefix = "observable 'ZZZ"
            with pytest.raises(ValueError) as caught:
                io.load_instance(Path(inst))
        else:
            raw = {"parties": 1, "input_bits": 16, "Q": [[1] + [0] * 15],
                   "observables": [["Z"], ["X"]], "resource": ["+Z"]}
            inst = write_instance(tmp_path, raw)
            args, code = ["mbqc", "--instance", inst, "report"], 3
            prefix = "output is indeterminate for inputs: 1000000000000000, 1000000000000001, "
            with pytest.raises(IndeterminateInputsError) as caught:
                contextuality_report(io.load_instance(Path(inst)))
            # The library keeps every input and the whole listing.
            assert len(caught.value.inputs) == 1 << 15
            assert len(str(caught.value)) > 500_000
        message = str(caught.value)
        assert message.startswith(prefix)
        result = subprocess.run(
            [sys.executable, "-c", "from contextua.cli import main; main()", *args],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert result.returncode == code
        assert result.stdout == b""
        assert len(result.stderr) < 300
        expected = f"error: {message[:200]}… ({len(message) - 200} more characters)\n"
        assert result.stderr.decode("utf-8") == expected
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize("length", [199, 200, 201])
    def test_error_line_cut_after_200_characters(self, capsys, length):
        with pytest.raises(SystemExit) as caught:
            cli._fail("e" * length, 2)
        assert caught.value.code == 2
        kept = "e" * min(length, 200)
        rest = "… (1 more characters)" if length > 200 else ""
        assert capsys.readouterr().err == f"error: {kept}{rest}\n"

    def test_instance_json_at_the_depth_limit(self, runner, tmp_path):
        """An extra key nested exactly MAX_JSON_DEPTH deep, object included, is read."""
        raw = fixtures.anders_browne_raw()
        depth = io.MAX_JSON_DEPTH - 1
        text = json.dumps(raw)[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"
        inst = write(tmp_path, "deep.json", text)
        assert runner.invoke(main, ["mbqc", "--instance", inst, "table"]).exit_code == 0
        text = json.dumps(raw)[:-1] + ', "extra": ' + "[" * (depth + 1) + "]" * (depth + 1) + "}"
        inst = write(tmp_path, "deeper.json", text)
        result = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert result.exit_code == 2
        assert result.stderr == "error: invalid JSON: nested too deeply\n"

    def test_invalid_instance_content(self, runner, tmp_path):
        inst = write_instance(tmp_path, {"parties": 2})
        result = runner.invoke(main, ["mbqc", "--instance", inst, "table"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "field,path,value",
        [
            ("observables", ("observables", 0, 0), ""),
            ("Q", ("Q", 0, 0), -1),
            ("observables", ("observables", 0, 0), 3),
            ("Q", ("Q", 0, 0), 2),
            ("parties", ("parties",), 2.7),
            ("resource", ("resource",), "+ZI"),
            ("observables", ("observables", 0, 0), "--XII"),
            ("observables", ("observables", 0, 0), "+-XII"),
        ],
        ids=["empty-observable", "negative-Q", "numeric-observable", "Q-entry-2",
             "fractional-parties", "resource-string", "double-minus-observable",
             "plus-minus-observable"],
    )
    def test_malformed_instance_field(self, runner, tmp_path, field, path, value):
        raw = fixtures.anders_browne_raw()
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert field in result.stderr

    def test_input_bits_over_the_limit(self, runner, tmp_path):
        raw = {
            "parties": 1,
            "input_bits": 17,
            "Q": [[1] + [0] * 16],
            "observables": [["Z"], ["-Z"]],
            "resource": ["+Z"],
        }
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(
            main, ["mbqc", "--instance", inst, "run", "--input", "1" * 17]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "input_bits" in result.stderr and "16" in result.stderr

    def test_missing_required_option(self, runner):
        result = runner.invoke(main, ["mbqc", "table"])
        assert result.exit_code == 2

    def test_nonlocal_party_observable(self, runner, tmp_path):
        """Party 0 may not measure qubit 1: the instance is refused, not analysed."""
        raw = json.loads((FIXTURES / "z_product.json").read_text())
        raw["observables"][0][0] = "IZ"
        inst = write_instance(tmp_path, raw)
        result = runner.invoke(main, ["mbqc", "--instance", inst, "report"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "party 0" in result.stderr and "[1]" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "contextua" in result.output


class TestStartup:
    """The runtime needs click alone: numpy is a test dependency only."""

    def test_cli_import_leaves_numpy_unloaded(self):
        """Importing the command line loads no numpy."""
        result = subprocess.run(
            [sys.executable, "-c", "import contextua.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_package_and_demo_run_without_numpy(self):
        """With numpy blocked, every module imports and both demos run."""
        demos = [
            str(ROOT / "demos" / name) for name in ("mermin_presheaf.py", "anders_browne_or_gate.py")
        ]
        script = (
            "import pkgutil, runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "import contextua\n"
            "for module in pkgutil.iter_modules(contextua.__path__):\n"
            "    __import__('contextua.' + module.name)\n"
            f"for demo in {demos!r}:\n"
            "    runpy.run_path(demo, run_name='__main__')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "still no global section" in result.stdout
        assert "theorem consistent: True" in result.stdout
