"""Acceptance gate: one test per shipped guarantee, run at full strength.

Each test prints a short summary line; under `pytest -v` every guarantee
shows up as exactly one PASSED/FAILED row. Timed guarantees assert their
budget with time.perf_counter around the complete computation.
"""
import itertools
import json
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from contextua import gf2
from contextua.cli import main
from contextua.contexts import close_context, maximal_contexts
from contextua.fixtures import (
    anders_browne_instance,
    ghz_group,
    ghz_pins,
    mermin_contexts,
)
from contextua.io import load_instance
from contextua.mbqc import contextuality_report, truth_table
from contextua.pauli import parse_pauli
from contextua.presheaf import (
    GlobalSection,
    build_global_problem,
    solve_global,
    spectrum,
)
from contextua.report import parse_json
from contextua.stabilizer import make_stabilizer, member_sign

from conftest import (
    bit_system,
    brute_force_global,
    dense_from_string,
    exhaustive_affine_tables,
    large_ghz_instance,
    random_commuting_set,
    random_valid_instance,
    stabilizer_state,
    unpack_rows,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_criterion_1_state_independent_certificate():
    """The built-in command proves contextuality with five summed relations."""
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["mermin", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    report = parse_json(result.output)
    analysis = report.analyses["state_independent"]
    assert analysis.verdict == "contextual"
    assert analysis.certificate is not None
    assert len(analysis.certificate.rows) == 5
    assert len(analysis.certificate.equations) == 5

    problem = build_global_problem(mermin_contexts())
    assert problem.num_rows == 5
    certificate = gf2.Certificate(selected=analysis.certificate.rows)
    assert gf2.verify_certificate(problem, certificate)

    assert problem.num_vars == 10  # brute force walks all 2^10 assignments
    assert brute_force_global(problem) is None
    assert elapsed < 1.0
    print(f"criterion 1 PASS: contextual, 5-relation certificate, {elapsed:.3f}s")


def test_criterion_2_state_pinned_certificate():
    """Pinning the four GHZ eigenvalue bits keeps the verdict contextual."""
    start = time.perf_counter()
    pins = ghz_pins()
    pinned_bits = {p.observable.body(): p.value_bit for p in pins}
    assert pinned_bits == {"XXX": 0, "XYY": 1, "YXY": 1, "YYX": 1}

    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)  # dense GHZ amplitudes, built by hand
    for pin in pins:
        matrix = dense_from_string(pin.observable.body())
        value = np.vdot(vec, matrix @ vec).real
        assert abs(value - (1.0 if pin.value_bit == 0 else -1.0)) < 1e-9

    problem = build_global_problem(mermin_contexts(), pins)
    outcome = solve_global(problem)
    assert isinstance(outcome, gf2.Certificate)
    assert gf2.verify_certificate(problem, outcome)
    assert brute_force_global(problem) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2 PASS: pinned verdict contextual, {elapsed:.3f}s")


def test_criterion_3_spectrum_counting():
    """Spectrum sizes are exactly 2^(independent generator count)."""
    product_block = close_context(
        [parse_pauli(b) for b in ("XXX", "XYY", "YXY", "YYX")]
    )
    assert len(spectrum(product_block)) == 8

    rng = np.random.default_rng(501)
    counted = 0
    attempts = 0
    while counted < 100 and attempts < 500:
        attempts += 1
        width = int(rng.integers(1, 5))
        chosen = random_commuting_set(rng, width, int(rng.integers(1, 7)))
        if not chosen:
            continue
        ctx = close_context(chosen)
        points = spectrum(ctx)
        assert len(points) == 1 << ctx.rank
        assert len({p.bits for p in points}) == len(points)
        counted += 1
    assert counted >= 100
    print(f"criterion 3 PASS: product block 8, {counted} random closures exact")


def test_criterion_4_affine_output_theorem():
    """No instance pairs a global section with a non-affine truth table."""
    instances = [
        load_instance(FIXTURES / "anders_browne.json"),
        load_instance(FIXTURES / "z_product.json"),
    ]
    rng = np.random.default_rng(502)
    while len(instances) < 202:
        instances.append(random_valid_instance(rng))
    sections = 0
    for inst in instances:
        report = contextuality_report(inst)
        assert report.theorem_consistent
        assert len(report.truth_table.outputs) == 1 << inst.input_bits
        has_section = isinstance(report.global_section, GlobalSection)
        not_affine = report.affine is None
        assert not (has_section and not_affine)
        if has_section:
            sections += 1
    assert sections > 20  # both outcomes are exercised
    print(
        f"criterion 4 PASS: {len(instances)} instances, "
        f"{sections} noncontextual, all affine"
    )


def test_criterion_5_or_gate_fixture():
    """Three parties on GHZ compute OR: non-affine, hence contextual."""
    start = time.perf_counter()
    inst = anders_browne_instance()
    table = truth_table(inst)
    assert table.outputs == (0, 1, 1, 1)

    affine_tables = exhaustive_affine_tables(2)
    assert len(affine_tables) == 8
    assert table.outputs not in affine_tables
    assert gf2.fit_affine(table.outputs) is None

    report = contextuality_report(inst)
    assert isinstance(report.global_section, gf2.Certificate)
    assert gf2.verify_certificate(report.problem, report.global_section)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 5 PASS: OR table, not affine, certificate, {elapsed:.3f}s")


def test_criterion_6_solver_oracle_equivalence():
    """Linear solver and exhaustive enumeration agree on 500 systems."""
    rng = np.random.default_rng(503)
    solved = refuted = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        r = int(rng.integers(1, 16))
        matrix = rng.integers(0, 2, size=(r, n)).astype(np.uint8)
        if rng.integers(0, 2):
            planted = rng.integers(0, 2, size=n).astype(np.uint8)
            rhs = (matrix @ planted) % 2
        else:
            rhs = rng.integers(0, 2, size=r).astype(np.uint8)
        system = bit_system(matrix, rhs)
        outcome = gf2.solve(system)

        indices = np.arange(1 << n)
        shifts = np.arange(n - 1, -1, -1)
        bits = ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        residual = (bits @ matrix.T + rhs[None, :]) % 2
        exists = bool(np.any(~residual.any(axis=1)))

        if isinstance(outcome, gf2.Gf2Solution):
            solved += 1
            assert exists
            assignment = unpack_rows([outcome.assignment], n)[0]
            assert np.array_equal((matrix @ assignment) % 2, rhs)
        else:
            refuted += 1
            assert not exists
            sel = np.zeros(r, dtype=np.uint8)
            sel[list(outcome.selected)] = 1
            assert not ((sel @ matrix) % 2).any()
            assert int(sel @ rhs) % 2 == 1
            assert gf2.verify_certificate(system, outcome)
    assert solved + refuted == 500
    assert solved > 100 and refuted > 100
    print(f"criterion 6 PASS: 500 systems, {solved} solved, {refuted} refuted")


def test_criterion_7_stabilizer_sign_consistency():
    """Signed membership matches dense expectations on groups up to width 5."""
    fixture_groups = (
        ("+Z",),
        ("-Z",),
        ("+X",),
        ("+XX", "+ZZ"),
        ("+ZI", "+IZ"),
        ("+XXX", "+ZZI", "+IZZ"),
        ("-XXX", "+ZZI", "+IZZ"),
        ("+XXXX", "+ZZII", "+IZZI", "+IIZZ"),
        ("+XXXXX", "+ZZIII", "+IZZII", "+IIZZI", "+IIIZZ"),
    )
    rng = np.random.default_rng(504)
    letters = "IXYZ"
    checked = 0
    for texts in fixture_groups:
        group = make_stabilizer([parse_pauli(t) for t in texts])
        n = group.width

        state = stabilizer_state(group)
        if n <= 3:
            bodies = ["".join(p) for p in itertools.product(letters, repeat=n)]
        else:
            bodies = {"".join(letters[i] for i in rng.integers(0, 4, size=n)) for _ in range(60)}
        queries = [s + b for b in bodies for s in ("+", "-")]
        for text in queries:
            op = parse_pauli(text)
            bit = member_sign(group, op)
            matrix = dense_from_string(text)
            value = np.vdot(state, matrix @ state).real
            assert abs(value - (0 if bit is None else 1 - 2 * bit)) < 1e-9
            checked += 1
    assert checked > 500
    print(f"criterion 7 PASS: {checked} membership queries match dense values")


def test_criterion_8_byte_identical_reports(tmp_path):
    """Consecutive runs emit byte-identical JSON documents."""
    runner = CliRunner()
    obs = FIXTURES / "mermin.txt"
    ctx = FIXTURES / "mermin_contexts.txt"
    pin = FIXTURES / "ghz_pins.txt"
    instance = tmp_path / "or_gate.json"
    instance.write_text(
        (FIXTURES / "anders_browne.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    invocations = (
        ["mermin", "--format", "json"],
        ["analyze", "--obs", str(obs), "--format", "json"],
        [
            "analyze",
            "--obs", str(obs),
            "--contexts", str(ctx),
            "--pin", str(pin),
            "--format", "json",
        ],
        ["mbqc", "--instance", str(instance), "report", "--format", "json"],
    )
    for args in invocations:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.output.encode("utf-8") == second.output.encode("utf-8")
        json.loads(first.output)  # stays well-formed
    print(f"criterion 8 PASS: {len(invocations)} report commands byte-stable")


def test_criterion_9_large_global_section_solve():
    """The n = 16, m = 12 GHZ report's whole global system is decided in 0.25 s.

    The report reads the system's first 2,050 rows, up to its certificate.
    """
    report = contextuality_report(large_ghz_instance())
    problem = build_global_problem(report.contexts, report.pins)
    assert problem.matrix.shape == (6132, 2080)
    assert report.problem.labels == problem.labels
    assert report.problem.matrix.shape == (2050, 2080)
    assert report.problem.matrix.rows == problem.matrix.rows[:2050]
    assert report.problem.rhs == problem.rhs & (1 << 2050) - 1
    start = time.perf_counter()
    outcome = solve_global(problem)
    elapsed = time.perf_counter() - start
    assert outcome == report.global_section
    assert isinstance(outcome, gf2.Certificate)
    assert gf2.verify_certificate(problem, outcome)
    assert gf2.verify_certificate(report.problem, outcome)
    assert elapsed < 0.25
    print(f"criterion 9 PASS: {problem.num_rows} x {problem.num_vars} system, {elapsed:.3f}s")


def test_criterion_10_four_qubit_census():
    """All 255 four-qubit Paulis give their 2,295 maximal contexts in under 5 s."""
    obs = [parse_pauli("".join(b)) for b in itertools.product("IXYZ", repeat=4)][1:]
    start = time.perf_counter()
    contexts = maximal_contexts(obs)
    elapsed = time.perf_counter() - start
    assert len(contexts) == 2295
    assert {len(c.members) for c in contexts} == {15}
    assert all(c.rank == 4 and len(c.relations) == 11 for c in contexts)
    assert elapsed < 5
    print(f"criterion 10 PASS: {len(contexts)} contexts of 255 Paulis, {elapsed:.3f}s")
