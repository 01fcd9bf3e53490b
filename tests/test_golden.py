"""Byte-for-byte comparison of CLI reports against committed golden files.

Each golden file under tests/golden/ holds the exact stdout of one command.
A report that changes by a single byte (an equation order, a section value,
a context list) fails here.
"""
import hashlib
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from contextua.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_THREE_QUBIT = "ALL_THREE_QUBIT"


def census_text(width: int) -> str:
    """The 4 ** width - 1 nontrivial Pauli bodies of a width, one per line."""
    bodies = ("".join(letters) for letters in product("IXYZ", repeat=width))
    return "".join(f"{body}\n" for body in bodies if body != "I" * width)


def all_three_qubit_text() -> str:
    """The 63 nontrivial three-qubit Pauli bodies, one per line."""
    return census_text(3)


def _mermin_obs(*extra):
    return ["analyze", "--obs", str(FIXTURES / "mermin.txt"), *extra]


def _mbqc(fixture, command, directory=FIXTURES):
    return ["mbqc", "--instance", str(directory / fixture), command]


# Five GHZ parties, six input bits, rank(Q) = 2: 64 inputs share 4 settings.
_SHARED = "instance_ghz_shared_settings.json"


_CONTEXTS = ("--contexts", str(FIXTURES / "mermin_contexts.txt"))
_PIN = ("--pin", str(FIXTURES / "ghz_pins.txt"))
# Four shared-member stabilizer groups on 4 qubits, pinned: a section of dimension 8.
_BLOCKS = [
    "analyze",
    "--obs", str(FIXTURES / "stabilizer_blocks_obs.txt"),
    "--contexts", str(FIXTURES / "stabilizer_blocks.txt"),
    "--pin", str(FIXTURES / "stabilizer_blocks_pins.txt"),
]

COMMANDS = {
    "mermin": ["mermin"],
    "analyze_mermin": _mermin_obs(),
    "analyze_mermin_contexts": _mermin_obs(*_CONTEXTS),
    "analyze_mermin_contexts_pin": _mermin_obs(*_CONTEXTS, *_PIN),
    "analyze_mermin_pin": _mermin_obs(*_PIN),
    "mbqc_report_anders_browne": _mbqc("anders_browne.json", "report"),
    "mbqc_table_anders_browne": _mbqc("anders_browne.json", "table"),
    "mbqc_report_z_product": _mbqc("z_product.json", "report"),
    "mbqc_table_z_product": _mbqc("z_product.json", "table"),
    "mbqc_report_ghz_shared_settings": _mbqc(_SHARED, "report", GOLDEN),
    "mbqc_table_ghz_shared_settings": _mbqc(_SHARED, "table", GOLDEN),
    "analyze_all_three_qubit": ["analyze", "--obs", ALL_THREE_QUBIT],
    # The identity alone: one maximal clique that closes to the empty context.
    "analyze_identity_only": ["analyze", "--obs", str(GOLDEN / "obs_identity_only.txt")],
    "analyze_stabilizer_blocks": _BLOCKS,
}

CASES = [(name, fmt) for name in COMMANDS for fmt in ("text", "json")]


def command_args(name: str, fmt: str, tmp_path: Path) -> list[str]:
    args = list(COMMANDS[name])
    if ALL_THREE_QUBIT in args:
        obs = tmp_path / "all_three_qubit.txt"
        obs.write_text(all_three_qubit_text(), encoding="utf-8")
        args[args.index(ALL_THREE_QUBIT)] = str(obs)
    return [*args, "--format", fmt]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_report_matches_golden(name, fmt, tmp_path):
    result = CliRunner().invoke(main, command_args(name, fmt, tmp_path))
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == golden_path(name, fmt).read_bytes()


HASH_SEED_CASES = [("analyze_all_three_qubit", "json"), ("mbqc_report_ghz_shared_settings", "text")]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name,fmt", HASH_SEED_CASES, ids=[n for n, _ in HASH_SEED_CASES])
def test_report_bytes_do_not_depend_on_the_hash_seed(name, fmt, seed, tmp_path):
    """A fresh process under each PYTHONHASHSEED prints the golden bytes.

    Every test in one pytest process shares one string-hash seed, so only a
    subprocess can vary it; set iteration order is the fault this would show.
    """
    result = subprocess.run(
        [sys.executable, "-c", "from contextua.cli import main; main()"]
        + command_args(name, fmt, tmp_path),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == golden_path(name, fmt).read_bytes()


def test_all_three_qubit_golden_is_the_large_case():
    """The 63-observable report keeps its 135 contexts and a 6-row certificate."""
    text = golden_path("analyze_all_three_qubit", "text").read_text(encoding="utf-8")
    assert "observables (63):" in text
    assert "  135) " in text and "  136) " not in text
    certificate = text.split("certificate (no global section exists):\n")[1]
    assert len(certificate.split("  sum of the selected rows")[0].splitlines()) == 6


def test_four_qubit_census_report_digest(tmp_path):
    """All 255 four-qubit Paulis: the text report keeps its length and sha256.

    The report is too large to keep as a golden file; its certificate ends at
    row 117 of the 25,245 rows of the whole system.
    """
    obs = tmp_path / "census.txt"
    obs.write_text(census_text(4), encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", "--obs", str(obs)])
    assert result.exit_code == 0, result.output
    assert len(result.stdout_bytes) == 239_251
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "dd2374fdb7c7ca84f231a2c6213c3372aa1b12024f5243f5054c5fc838a7b3a2"
    )


def test_four_qubit_sixty_report_matches_golden():
    """Sixty of the 255 four-qubit Paulis take the Lagrangian table path.

    Unlike the census, this input has maximal contexts of rank 3 (spectrum
    size 8) and Lagrangians whose sets are not maximal. The fixture is the
    seeded sample below, in sample order.
    """
    bodies = census_text(4).split()
    fixture = FIXTURES / "four_qubit_sixty.txt"
    sample = random.Random(28).sample(bodies, 60)
    assert fixture.read_text(encoding="utf-8") == "".join(f"{body}\n" for body in sample)
    result = CliRunner().invoke(main, ["analyze", "--obs", str(fixture)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == golden_path("analyze_four_qubit_sixty", "text").read_bytes()
    assert "verdict: contextual" in result.stdout
    assert "  831) " in result.stdout and "  832) " not in result.stdout
    assert result.stdout.count("(spectrum size 8)") == 8
