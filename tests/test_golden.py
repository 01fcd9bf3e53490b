"""Byte-for-byte comparison of CLI reports against committed golden files.

Each golden file under tests/golden/ holds the exact stdout of one command.
A report that changes by a single byte (an equation order, a section value,
a context list) fails here.
"""
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

from contextua.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_THREE_QUBIT = "ALL_THREE_QUBIT"


def all_three_qubit_text() -> str:
    """The 63 nontrivial three-qubit Pauli bodies, one per line."""
    bodies = ("".join(letters) for letters in product("IXYZ", repeat=3))
    return "".join(f"{body}\n" for body in bodies if body != "III")


def _mermin_obs(*extra):
    return ["analyze", "--obs", str(FIXTURES / "mermin.txt"), *extra]


def _mbqc(fixture, command, directory=FIXTURES):
    return ["mbqc", "--instance", str(directory / fixture), command]


# Five GHZ parties, six input bits, rank(Q) = 2: 64 inputs share 4 settings.
_SHARED = "instance_ghz_shared_settings.json"


_CONTEXTS = ("--contexts", str(FIXTURES / "mermin_contexts.txt"))
_PIN = ("--pin", str(FIXTURES / "ghz_pins.txt"))

COMMANDS = {
    "mermin": ["mermin"],
    "analyze_mermin": _mermin_obs(),
    "analyze_mermin_contexts": _mermin_obs(*_CONTEXTS),
    "analyze_mermin_contexts_pin": _mermin_obs(*_CONTEXTS, *_PIN),
    "mbqc_report_anders_browne": _mbqc("anders_browne.json", "report"),
    "mbqc_table_anders_browne": _mbqc("anders_browne.json", "table"),
    "mbqc_report_z_product": _mbqc("z_product.json", "report"),
    "mbqc_table_z_product": _mbqc("z_product.json", "table"),
    "mbqc_report_ghz_shared_settings": _mbqc(_SHARED, "report", GOLDEN),
    "mbqc_table_ghz_shared_settings": _mbqc(_SHARED, "table", GOLDEN),
    "analyze_all_three_qubit": ["analyze", "--obs", ALL_THREE_QUBIT],
    # The identity alone: one maximal clique that closes to the empty context.
    "analyze_identity_only": ["analyze", "--obs", str(GOLDEN / "obs_identity_only.txt")],
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


def test_all_three_qubit_golden_is_the_large_case():
    """The 63-observable report keeps its 135 contexts and a 6-row certificate."""
    text = golden_path("analyze_all_three_qubit", "text").read_text(encoding="utf-8")
    assert "observables (63):" in text
    assert "  135) " in text and "  136) " not in text
    certificate = text.split("certificate (no global section exists):\n")[1]
    assert len(certificate.split("  sum of the selected rows")[0].splitlines()) == 6
