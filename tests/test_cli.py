"""End-to-end command tests through click's CliRunner."""
import builtins
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from contextua import fixtures
from contextua.cli import main
from contextua.gf2 import AffineForm
from contextua.io import sha256_digest
from contextua.report import parse_json

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
        obs = write(tmp_path, "obs.txt", "XX\nZZ\nXI\n")
        ctx = write(tmp_path, "ctx.txt", "context:\nXX\ncontext:\nZZ\n")
        result = runner.invoke(main, ["analyze", "--obs", obs, "--contexts", ctx])
        assert result.exit_code == 2
        assert "XI" in result.stderr

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
        assert "indeterminate" in result.output


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

    def test_byte_identical_runs(self, runner, tmp_path):
        inst = write_instance(tmp_path, fixtures.anders_browne_raw())
        args = ["mbqc", "--instance", inst, "report", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


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
    def test_cli_import_leaves_numpy_unloaded(self):
        """Only the dense oracles need numpy, and they import it when called."""
        result = subprocess.run(
            [sys.executable, "-c", "import contextua.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
