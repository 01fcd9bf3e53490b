"""Byte-for-byte comparison of CLI reports against committed golden files.

Each golden file under tests/golden/ holds the exact stdout of one command.
A report that changes by a single byte (an equation order, a section value,
a context list) fails here.
"""
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from contextua import contexts as contexts_module
from contextua.cli import main
from contextua.pauli import PauliBasis, commutes, format_pauli, multiply_all
from contextua.stabilizer import make_stabilizer

from conftest import ghz_raw, random_pauli, random_stabilizer_group

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
# Ten GHZ parties, sixteen input bits, rank(Q) = 4: 65,536 inputs share 16
# settings. Its reports are too large to keep; test_sixteen_input_digests
# pins their length and sha256.
_SIXTEEN = "instance_ghz_sixteen_inputs.json"


_CONTEXTS = ("--contexts", str(FIXTURES / "mermin_contexts.txt"))
_PIN = ("--pin", str(FIXTURES / "ghz_pins.txt"))
# Four shared-member stabilizer groups on 4 qubits, pinned: a section of dimension 8.
_BLOCKS = [
    "analyze",
    "--obs", str(FIXTURES / "stabilizer_blocks_obs.txt"),
    "--contexts", str(FIXTURES / "stabilizer_blocks.txt"),
    "--pin", str(FIXTURES / "stabilizer_blocks_pins.txt"),
]

# Three stabilizer groups on six qubits, drawn by six_qubit_blocks_texts.
_SIX = "six_qubit_blocks"
_SIX_QUBIT_BLOCKS = [
    "analyze",
    "--obs", str(GOLDEN / f"{_SIX}_obs.txt"),
    "--contexts", str(GOLDEN / f"{_SIX}.txt"),
    "--pin", str(GOLDEN / f"{_SIX}_pins.txt"),
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
    "analyze_six_qubit_blocks": _SIX_QUBIT_BLOCKS,
    # Too few four-qubit members for the Lagrangian table: the Tomita search.
    "analyze_four_qubit_thirty_two": ["analyze", "--obs", str(FIXTURES / "four_qubit_thirty_two.txt")],
}


def _group_sharing(rng: np.random.Generator, shared) -> PauliBasis:
    """A full six-qubit stabilizer group whose first generators are shared."""
    gens = list(shared)
    basis = PauliBasis(6, gens)
    while len(gens) < 6:
        op = random_pauli(rng, 6)
        if all(commutes(op, g) for g in gens) and basis.add(op) is None:
            gens.append(op)
    return make_stabilizer(gens)


def _line(text: str, i: int) -> str:
    """Member i of a listing, written in one of four styles the parsers accept."""
    if i % 4 == 1:
        return f"  {text}"
    if i % 4 == 2:
        return f"\t{text}  # member {i}"
    if i % 4 == 3:
        return text.removeprefix("+")
    return text


def six_qubit_blocks_texts() -> dict[str, str]:
    """The observable, context and pin files of the six-qubit golden, from seed 33.

    Three stabilizer groups on six qubits, drawn with the conftest helpers:
    the first at random, the second sharing the first's first three
    generators and the third the second's last two. The context file lists
    every signed element of the first two groups and the generators of the
    third, among comments, blank lines, indented lines and unsigned lines;
    the observable file names members of the blocks, and the pins fix
    signed elements of the first group, each to its group's eigenvalue.
    """
    rng = np.random.default_rng(33)
    first = random_stabilizer_group(rng, 6)
    second = _group_sharing(rng, first.generators[:3])
    third = _group_sharing(rng, second.generators[4:])

    def elements(group: PauliBasis) -> list[str]:
        gens = group.generators
        return [
            format_pauli(multiply_all([g for k, g in enumerate(gens) if m >> k & 1]))
            for m in range(1, 1 << len(gens))
        ]

    blocks = [
        ("every element of the first group", elements(first)),
        ("every element of the second, which shares three generators", elements(second)),
        ("the generators of the third", [format_pauli(g) for g in third.generators]),
    ]
    contexts = ["# Three stabilizer groups on six qubits, seed 33.", ""]
    for note, members in blocks:
        contexts.append(f"context:   # {note}")
        for i, text in enumerate(members):
            contexts.append(_line(text, i))
            if i % 16 == 15:
                contexts.append("")
        contexts.append("")
    loose = [members[-i] for _, members in blocks for i in (1, 2)]
    obs = ["# Members of the blocks in six_qubit_blocks.txt.", ""]
    obs += [_line(text, i) for i, text in enumerate(loose)]
    pins = ["# Eigenvalues of the state the first group fixes.", ""]
    for i, text in enumerate(blocks[0][1][:24:3]):
        if i % 2:
            negated = text.translate(str.maketrans("+-", "-+"))
            pins.append(f"  pin {negated} -1   # the same eigenvalue, negated")
        else:
            pins.append(f"pin {text} +1")
    return {
        f"{_SIX}.txt": "\n".join(contexts),
        f"{_SIX}_obs.txt": "\n".join(obs) + "\n",
        f"{_SIX}_pins.txt": "\n".join(pins) + "\n",
    }


def four_qubit_thirty_two_text() -> str:
    """Thirty-two of the 255 four-qubit Pauli bodies, as seed 37 samples them, in sample order."""
    sample = random.Random(37).sample(census_text(4).split(), 32)
    return "".join(f"{body}\n" for body in sample)


def ghz_sixteen_inputs_text() -> str:
    """The sixteen-input GHZ instance that seed 35 draws, one Q row per line."""
    raw = ghz_raw(np.random.default_rng(35), 10, 16, 4)
    rows = ",\n".join(f"    {row}" for row in raw["Q"])
    return (
        f'{{\n  "parties": {raw["parties"]},\n  "input_bits": {raw["input_bits"]},\n'
        f'  "Q": [\n{rows}\n  ],\n'
        f'  "observables": {json.dumps(raw["observables"])},\n'
        f'  "resource": {json.dumps(raw["resource"])}\n}}\n'
    )


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


HASH_SEED_CASES = [
    pytest.param("analyze_all_three_qubit", "json", id="analyze_all_three_qubit"),
    pytest.param("mbqc_report_ghz_shared_settings", "text", id="mbqc_report_ghz_shared_settings"),
    pytest.param("analyze_four_qubit_thirty_two", "text", id="analyze_four_qubit_thirty_two-text"),
    pytest.param("analyze_four_qubit_thirty_two", "json", id="analyze_four_qubit_thirty_two-json"),
]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name,fmt", HASH_SEED_CASES)
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


def test_four_qubit_thirty_two_report_comes_from_the_search(monkeypatch):
    """Thirty-two four-qubit Paulis take the Tomita search, not the Lagrangian table.

    The fixture is seed 37's draw. Its 183 maximal contexts have ranks 2,
    3 and 4, and some of rank 4 have more members than the rank, so the
    golden pins the names and ranks the search walk gives.
    """
    fixture = FIXTURES / "four_qubit_thirty_two.txt"
    assert fixture.read_text(encoding="utf-8") == four_qubit_thirty_two_text()
    monkeypatch.setattr(contexts_module, "_lagrangian_cliques", None)
    result = CliRunner().invoke(main, ["analyze", "--obs", str(fixture)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == golden_path("analyze_four_qubit_thirty_two", "text").read_bytes()
    assert "  183) " in result.stdout and "  184) " not in result.stdout
    assert result.stdout.count("(spectrum size 4)") == 1
    assert result.stdout.count("(spectrum size 8)") == 7


def test_six_qubit_blocks_inputs_are_the_seeded_draw():
    """The committed six-qubit input files are exactly what seed 33 draws."""
    for name, text in six_qubit_blocks_texts().items():
        assert (GOLDEN / name).read_text(encoding="utf-8") == text, name


SIXTEEN_INPUT_DIGESTS = {
    ("report", "text"): (1_577_146, "9fbc6f027148a0eba1e27c44427dd6a8519e7a633d6d5fe9718638daadbfa143"),
    ("report", "json"): (860_676, "697be3f1db1d52a9263e87c196027b9bebe85b91759934d344f82085b2b460dd"),
    ("table", "text"): (1_310_720, "441aa65f6bcf22a9960d7c389ea7aefbad21c12ddfc29213a0176cc69ee0b976"),
    ("table", "json"): (458_839, "20aca12b7885445d1c8fafaf845592593b1c24b0060cb4f9050ee9ce49079a2f"),
}


@pytest.mark.parametrize("command,fmt", SIXTEEN_INPUT_DIGESTS)
def test_sixteen_input_digests(command, fmt):
    """The 65,536-input GHZ reports keep their length and sha256."""
    result = CliRunner().invoke(main, [*_mbqc(_SIXTEEN, command, GOLDEN), "--format", fmt])
    assert result.exit_code == 0, result.output
    size, digest = SIXTEEN_INPUT_DIGESTS[command, fmt]
    assert len(result.stdout_bytes) == size
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_sixteen_input_instance_is_the_seeded_draw():
    assert (GOLDEN / _SIXTEEN).read_text(encoding="utf-8") == ghz_sixteen_inputs_text()


if __name__ == "__main__":
    # Rewrite the seeded input files: PYTHONPATH=src:tests python tests/test_golden.py
    for name, text in six_qubit_blocks_texts().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    (GOLDEN / _SIXTEEN).write_text(ghz_sixteen_inputs_text(), encoding="utf-8")
    (FIXTURES / "four_qubit_thirty_two.txt").write_text(
        four_qubit_thirty_two_text(), encoding="utf-8"
    )
