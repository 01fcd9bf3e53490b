"""Spectra, valuations restricted by name and the global-section decision problem.

A valuation restricts to a context whose members are among its own, and a
global section to every context, by reading each member's value by name.
"""
import pickle
from itertools import accumulate, combinations, product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from contextua import gf2, io
from contextua.cli import main
from contextua.contexts import ContextGroup, close_context, maximal_contexts
from contextua.fixtures import ghz_pins, mermin_contexts, mermin_observables
from contextua.mbqc import contextuality_report
from contextua.pauli import PauliOperator, identity, parse_pauli
from contextua.stabilizer import make_stabilizer, member_sign
from contextua.presheaf import (
    EmptySpectrumError,
    GlobalSection,
    StateConstraint,
    UnknownConstrainedObservableError,
    Valuation,
    build_global_problem,
    decide_global,
    solve_global,
    spectrum,
)

from conftest import (
    brute_force_global,
    expand_relation,
    random_commuting_set,
    random_pauli,
    random_valid_instance,
    rank,
    reference_spectrum,
    spy_signed_passes,
    unpack_rows,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def ops(*texts):
    return [parse_pauli(t) for t in texts]


def restrict_by_name(values, ctx):
    """The Valuation of ctx whose members take their names' values (raises if none)."""
    return Valuation(context=ctx, values={body: values[body] for body in ctx.names})


def reference_global_problem(contexts, pins):
    """The global system built straight from operators, as (rows, rhs, labels).

    Columns number each observable, keyed by (width, x_bits, z_bits), by its
    first appearance over the contexts' members; each relation row sets the
    columns of its expanded members, and each pin is a unit row.
    """
    def key(op):
        return op.width, op.x_bits, op.z_bits

    columns = {}
    for ctx in contexts:
        for op in ctx.members:
            columns.setdefault(key(op), (len(columns), op.body()))
    rows, rhs = [], 0
    for ctx in contexts:
        for r in range(len(ctx.relations)):
            members, sign_bit = expand_relation(ctx, r)
            rhs |= sign_bit << len(rows)
            rows.append(sum(1 << columns[key(op)][0] for op in members))
    for pin in pins:
        rhs |= pin.value_bit << len(rows)
        rows.append(1 << columns[key(pin.observable)][0])
    return tuple(rows), rhs, tuple(body for _, body in sorted(columns.values()))


class TestValuation:
    def test_must_cover_members_exactly(self):
        ctx = close_context(ops("XX", "ZZ"))
        with pytest.raises(ValueError):
            Valuation(context=ctx, values={"XX": 0})

    def test_rejects_non_bits(self):
        ctx = close_context(ops("X"))
        with pytest.raises(ValueError):
            Valuation(context=ctx, values={"X": 2})

    def test_rejects_relation_violation(self):
        ctx = close_context(ops("XII", "IXI", "IIX", "XXX"))
        values = {op.body(): 0 for op in ctx.members}
        values["XXX"] = 1
        message = r"relation 0 of ContextGroup\(\[IIX, IXI, XII, XXX\]\)$"
        with pytest.raises(ValueError, match=message):
            Valuation(context=ctx, values=values)



class TestSpectrum:
    def test_single_observable_has_two_points(self):
        points = spectrum(close_context(ops("X")))
        assert len(points) == 2
        assert [p.bits for p in points] == [(0,), (1,)]

    def test_product_block_has_eight_points(self):
        ctx = close_context(ops("XXX", "XYY", "YXY", "YYX"))
        points = spectrum(ctx)
        assert len(points) == 8
        assert len({p.bits for p in points}) == 8
        members, sign_bit = expand_relation(ctx, 0)
        for p in points:
            total = sum(p.values[op.body()] for op in members) % 2
            assert total == sign_bit

    def test_ghz_point_is_in_the_product_spectrum(self):
        """The GHZ eigenvalue pattern XXX=+1, others=-1 is one of the points."""
        ctx = close_context(ops("XXX", "XYY", "YXY", "YYX"))
        wanted = {"XXX": 0, "XYY": 1, "YXY": 1, "YYX": 1}
        assert Valuation(context=ctx, values=wanted) in spectrum(ctx)

    def test_sizes_match_group_rank(self):
        rng = np.random.default_rng(201)
        for _ in range(40):
            width = int(rng.integers(1, 4))
            chosen = random_commuting_set(rng, width, int(rng.integers(1, 5)))
            if not chosen:
                continue
            ctx = close_context(chosen)
            points = spectrum(ctx)
            assert len(points) == ctx.group_order
            assert len({p.bits for p in points}) == len(points)

    def test_trivial_context(self):
        points = spectrum(close_context((), width=2))
        assert len(points) == 1
        assert points[0].bits == ()

    def test_dependent_member_takes_its_relation(self):
        """XX takes XI's bit plus IX's; YYX takes its relation's sign plus the others'."""
        points = spectrum(close_context(ops("XI", "IX", "XX")))
        assert [p.values for p in points] == [
            {"IX": i, "XI": x, "XX": i ^ x} for i, x in product((0, 1), repeat=2)
        ]
        points = spectrum(close_context(ops("XXX", "XYY", "YXY", "YYX")))
        assert [p.values["YYX"] for p in points] == [1, 0, 0, 1, 0, 1, 1, 0]

    @staticmethod
    def contexts_of_every_kind(rng):
        """Closed, deferred, maximal and MBQC local contexts of widths 1-4."""
        for t in range(60):
            width = 1 + t % 4
            chosen = random_commuting_set(rng, width, int(rng.integers(1, 2 * width + 3)))
            if not chosen:
                continue
            ctx = close_context(chosen)
            yield ctx
            yield ContextGroup(ctx.members, ctx.width, ctx.relations, ctx.signs)
        for t in range(24):
            width = 1 + t % 4
            yield from maximal_contexts([random_pauli(rng, width) for _ in range(2 + t % 7)])
        for _ in range(10):
            yield from contextuality_report(random_valid_instance(rng, 4, 3)).contexts

    def test_matches_the_basis_oracle(self):
        """Point for point and in order, spectrum is reference_spectrum's."""
        rng = np.random.default_rng(4201)
        kinds = set()
        for ctx in self.contexts_of_every_kind(rng):
            assert [p.values for p in spectrum(ctx)] == reference_spectrum(ctx)
            kinds.add((ctx.width, ctx._lookup is None, len(ctx.relations)))
        assert {width for width, _, _ in kinds} == {1, 2, 3, 4}
        assert {closed for _, closed, _ in kinds} == {False, True}
        assert max(count for _, _, count in kinds) > 3

    def test_minus_identity_spectrum_is_refused(self):
        broken = ContextGroup(members=(), width=1, relations=(0,), signs=1)
        with pytest.raises(EmptySpectrumError):
            spectrum(broken)


class TestRestriction:
    def test_restrict_to_named_member(self):
        big = close_context(ops("XII", "IXI", "IIX", "XXX"))
        sub = close_context(ops("XXX"))
        images = [restrict_by_name(point.values, sub) for point in spectrum(big)]
        assert [image.values for image in images] == [
            {"XXX": point.values["XXX"]} for point in spectrum(big)
        ]
        assert {image.bits for image in images} == {(0,), (1,)}

    def test_restriction_lands_in_the_subcontext_spectrum(self):
        """Spectrum points flow down to every subcontext of a Mermin block.

        The subcontexts are closed from each subset of a block's members of
        size at most two, the empty one included.
        """
        pairs = []
        for big in mermin_contexts():
            for size in (0, 1, 2):
                for subset in combinations(big.members, size):
                    sub = close_context(subset, width=big.width)
                    pairs.append((sub, big))
        assert len(pairs) == 5 * (1 + 4 + 6)
        for sub, big in pairs:
            sub_points = set()
            for p in spectrum(sub):
                sub_points.add(p.bits)
            for point in spectrum(big):
                assert restrict_by_name(point.values, sub).bits in sub_points


class TestStateConstraint:
    def test_folds_signs_onto_canonical(self):
        pin = StateConstraint(observable=parse_pauli("-XYY"), value_bit=1)
        assert pin.observable == parse_pauli("XYY")
        assert pin.value_bit == 0

    def test_from_eigenvalue(self):
        plus = StateConstraint.from_eigenvalue(parse_pauli("XXX"), 1)
        minus = StateConstraint.from_eigenvalue(parse_pauli("XXX"), -1)
        assert plus.value_bit == 0
        assert minus.value_bit == 1
        with pytest.raises(ValueError):
            StateConstraint.from_eigenvalue(parse_pauli("XXX"), 0)

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            StateConstraint(observable=parse_pauli("X"), value_bit=2)

    def test_slotted_hashable_record(self):
        pin = StateConstraint(observable=parse_pauli("-XYY"), value_bit=1)
        same = StateConstraint(observable=parse_pauli("XYY"), value_bit=0)
        assert not hasattr(pin, "__dict__")
        assert pin == same and hash(pin) == hash(same) and len({pin, same}) == 1
        assert pin != StateConstraint(observable=parse_pauli("XYY"), value_bit=1)
        assert pickle.loads(pickle.dumps(pin)) == pin

    def test_reads_the_phase_excess_once(self, monkeypatch):
        reads = []
        excess = PauliOperator.phase_excess

        def counting(op):
            reads.append(op)
            return excess.__get__(op)

        monkeypatch.setattr(PauliOperator, "phase_excess", property(counting))
        for text, value_bit in (("XYY", 0), ("-XYY", 1), ("-II", 0)):
            reads.clear()
            pin = StateConstraint(observable=parse_pauli(text), value_bit=value_bit)
            assert len(reads) == 1
            assert pin.observable.sign == 1
        with pytest.raises(ValueError, match="only Hermitian observables can be pinned"):
            StateConstraint(observable=PauliOperator(1, 1, 0, 1), value_bit=0)
        with pytest.raises(ValueError, match="value_bit must be 0 or 1"):
            StateConstraint(observable=PauliOperator(1, 1, 0, 1), value_bit=2)


class TestGlobalProblem:
    def test_variable_order_is_first_appearance(self):
        problem = build_global_problem(mermin_contexts())
        assert problem.labels == (
            "IIX", "IXI", "XII", "XXX", "IIY", "IYI", "XYY", "YII", "YXY", "YYX",
        )
        assert problem.num_rows == 5
        assert problem.num_vars == 10

    def test_pins_append_unit_rows(self):
        problem = build_global_problem(mermin_contexts(), ghz_pins())
        assert problem.num_rows == 9
        assert problem.num_vars == 10
        for row in problem.matrix.rows[5:]:
            assert row.bit_count() == 1

    def test_relation_free_context_contributes_no_rows(self):
        problem = build_global_problem([close_context(ops("X"))])
        assert problem.num_rows == 0
        assert problem.num_vars == 1

    def test_unknown_pin_is_rejected(self):
        contexts = [close_context(ops("X"))]
        pin = StateConstraint(observable=parse_pauli("Z"), value_bit=0)
        with pytest.raises(UnknownConstrainedObservableError):
            build_global_problem(contexts, [pin])

    def test_requires_contexts(self):
        with pytest.raises(ValueError):
            build_global_problem([])

    def test_matches_the_operator_oracle(self):
        """Rows, right-hand sides and labels agree in full with the oracle.

        On the three-qubit census, and on the maximal contexts of random
        pools (with a negated observable and the identity, so an all-identity
        pool gives one empty context), shuffled, with random pins, signed
        ones included.
        """
        rng = np.random.default_rng(204)
        census = [parse_pauli("".join(b)) for b in product("IXYZ", repeat=3)][1:]
        cases = [(maximal_contexts(census), census)]
        for t in range(80):
            width = 1 + t % 4
            pool = [random_pauli(rng, width) for _ in range(int(rng.integers(1, 9)))]
            pool += [pool[0].negate(), identity(width)]
            contexts = maximal_contexts(pool)
            cases.append(([contexts[int(i)] for i in rng.permutation(len(contexts))], pool))
        rows = 0
        for contexts, pool in cases:
            named = [op for op in pool if not op.is_identity_class]
            pins = [
                StateConstraint(
                    observable=named[int(rng.integers(0, len(named)))],
                    value_bit=int(rng.integers(0, 2)),
                )
                for _ in range(int(rng.integers(0, 5)) if named else 0)
            ]
            problem = build_global_problem(contexts, pins)
            expected = reference_global_problem(contexts, pins)
            assert (problem.matrix.rows, problem.rhs, problem.labels) == expected
            assert problem.num_vars == len(problem.labels)
            rows += problem.num_rows
        assert rows > 700

    def test_keys_each_context_member_once(self, monkeypatch):
        """Members are keyed by their context's names: body runs once per pin alone."""
        contexts, pins = mermin_contexts(), ghz_pins()
        calls = []
        original = PauliOperator.body
        monkeypatch.setattr(PauliOperator, "body", lambda op: calls.append(op) or original(op))
        build_global_problem(contexts, pins)
        assert calls == [pin.observable for pin in pins]


def stream_cases(rng, count):
    """(fresh contexts, pins) pairs on 2-4 qubits, half maximal contexts, half blocks.

    Maximal contexts of random pools come unclosed; blocks are closed random
    commuting sets. Pins name random members, sometimes the identity, with
    random values, so both outcomes occur.
    """
    for t in range(count):
        width = 2 + t % 3
        if t % 2:
            pool = [random_pauli(rng, width) for _ in range(int(rng.integers(4, 20)))]
            contexts = maximal_contexts(pool)
        else:
            chosen = (random_commuting_set(rng, width, int(rng.integers(1, 6))) for _ in range(4))
            contexts = [close_context(block, width=width) for block in chosen]
        named = [op for ctx in contexts for op in ctx.members]
        pins = [
            StateConstraint(
                observable=named[int(rng.integers(0, len(named)))] if named and rng.integers(0, 6)
                else identity(width),
                value_bit=int(rng.integers(0, 2)),
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
        yield contexts, pins


class TestGlobalStream:
    """decide_global reads the row stream only as far as the solver needs."""

    def test_matches_the_collected_system(self):
        """Same outcome and labels as solve_global on the whole system; rows a prefix."""
        rng = np.random.default_rng(2403)
        outcomes = {GlobalSection: 0, gf2.Certificate: 0}
        for contexts, pins in stream_cases(rng, 160):
            problem, outcome = decide_global(contexts, pins)
            full = build_global_problem(contexts, pins)
            assert outcome == solve_global(full)
            assert problem.labels == full.labels
            read = problem.num_rows
            assert problem.matrix.rows == full.matrix.rows[:read]
            assert problem.rhs == full.rhs & (1 << read) - 1
            if isinstance(outcome, gf2.Certificate):
                assert outcome.selected[-1] == read - 1
                assert gf2.verify_certificate(problem, outcome)
            else:
                assert read == full.num_rows
            outcomes[type(outcome)] += 1
        assert min(outcomes.values()) > 30

    def test_closes_contexts_only_up_to_the_certificate(self, monkeypatch):
        """A signed pass runs for the contexts up to the one holding the last row read.

        That is every context on a noncontextual input, and none before the
        solver reads a row; no context after the certificate's is reduced.
        A context whose rank is its member count has no relation to find, so
        it is never reduced. Collecting the whole stream reduces every other
        context, once each.
        """
        passes = spy_signed_passes(monkeypatch)
        rng = np.random.default_rng(2404)
        census = [parse_pauli("".join(b)) for b in product("IXYZ", repeat=3)]
        pools = [mermin_observables(), census]
        pools += [[random_pauli(rng, 2 + t % 3) for _ in range(int(rng.integers(2, 14)))]
                  for t in range(60)]
        partial = 0
        for t, pool in enumerate(pools):
            contexts = maximal_contexts(pool)
            named = [op for op in pool if not op.is_identity_class]
            pins = [StateConstraint(observable=op, value_bit=int(rng.integers(0, 2)))
                    for op in named[: t % 3]]
            passes.clear()
            problem, outcome = decide_global(contexts, pins)
            consumed = [given for given, _ in passes]
            reached = len(contexts)  # also when the last row read is a pin
            if isinstance(outcome, gf2.Certificate):
                ends = accumulate(
                    len(close_context(ctx.members, width=ctx.width).relations) for ctx in contexts
                )
                last = outcome.selected[-1]
                reached = next((k + 1 for k, end in enumerate(ends) if end > last), reached)
                partial += reached < len(contexts)
            dependent = [ctx.members for ctx in contexts if ctx.rank < len(ctx.members)]
            assert consumed == [
                ctx.members for ctx in contexts[:reached] if ctx.rank < len(ctx.members)
            ]
            passes.clear()
            build_global_problem(contexts, pins)
            assert [given for given, _ in passes] == dependent
        assert partial >= 2

    def test_deferred_contexts_close_like_close_context(self):
        """The rank given before closing, relations and signs agree with close_context."""
        rng = np.random.default_rng(2405)
        pools = [[random_pauli(rng, 2 + t % 3) for _ in range(int(rng.integers(1, 14)))]
                 for t in range(60)]
        for pool in pools + [mermin_observables()]:
            for ctx in maximal_contexts(pool):
                given = ctx.rank
                eager = close_context(ctx.members, width=ctx.width)
                assert (ctx.relations, ctx.signs) == (eager.relations, eager.signs)
                assert given == ctx.rank == eager.rank

    def test_unknown_pin_is_refused_before_any_row(self, monkeypatch):
        """The contexts alone contradict each other, yet the unknown pin decides."""
        passes = spy_signed_passes(monkeypatch)
        contexts = maximal_contexts(mermin_observables())
        for body in ("ZZZ", "IIII", "II"):
            pin = StateConstraint(observable=parse_pauli(body), value_bit=0)
            with pytest.raises(UnknownConstrainedObservableError, match=body):
                decide_global(contexts, [*ghz_pins(), pin])
            with pytest.raises(UnknownConstrainedObservableError, match=body):
                build_global_problem(contexts, [pin])
        assert passes == []
        decide_global(contexts, ghz_pins())
        assert passes

    @pytest.mark.parametrize("value_bit", [0, 1])
    def test_identity_pin_is_a_row_without_columns(self, value_bit):
        """+1 on the identity always holds; -1 is the one-row certificate I = -1."""
        contexts = [close_context(ops("XX", "ZZ"))]
        # -II at eigenvalue (-1)^(1 - value_bit) folds onto II at (-1)^value_bit.
        pins = [StateConstraint(observable=parse_pauli("-II"), value_bit=1 - value_bit)]
        full = build_global_problem(contexts, pins)
        assert (full.matrix.rows, full.rhs, full.labels) == ((0,), value_bit, ("XX", "ZZ"))
        problem, outcome = decide_global(contexts, pins)
        assert problem == full
        assert outcome == solve_global(full)
        if value_bit:
            assert outcome == gf2.Certificate(selected=(0,))
            assert gf2.verify_certificate(full, outcome)
        else:
            assert outcome == GlobalSection(values={"XX": 0, "ZZ": 0}, dimension=2)

    def test_four_qubit_census_stops_at_row_117(self):
        """All 255 four-qubit Paulis: 118 of the 25,245 rows are read."""
        census = [parse_pauli("".join(b)) for b in product("IXYZ", repeat=4)][1:]
        contexts = maximal_contexts(census)
        problem, outcome = decide_global(contexts)
        assert isinstance(outcome, gf2.Certificate)
        assert (problem.num_rows, outcome.selected[-1]) == (118, 117)
        assert build_global_problem(contexts).num_rows == 25_245


def stabilizer_blocks():
    """The fixture's four stabilizer groups, closed, and its pins."""
    parsed = {}
    text = (FIXTURES / "stabilizer_blocks.txt").read_text(encoding="utf-8")
    _, blocks = io.parse_observable_file(text, parsed)
    pins = io.parse_pin_file(
        (FIXTURES / "stabilizer_blocks_pins.txt").read_text(encoding="utf-8"), parsed
    )
    return [close_context(block) for block in blocks], pins


class TestForwardSubstitution:
    """decide_global reads its section with no back substitution and no rref."""

    def test_stabilizer_blocks_meet_earlier_pivots(self):
        """The fixture's section has dimension >= 8, and rows reduce on the way in."""
        contexts, pins = stabilizer_blocks()
        problem = build_global_problem(contexts, pins)
        basis = gf2.Basis()
        met = 0
        for r, row in enumerate(problem.matrix.rows):
            vector = row << 1 | problem.rhs >> r & 1
            met += basis.add(vector, 1 << r)[0] != vector
        outcome = solve_global(problem)
        assert isinstance(outcome, GlobalSection)
        assert outcome.dimension >= 8
        assert met >= 1

    def test_decide_global_never_back_substitutes(self, monkeypatch):
        """Same outcome as solve_global with reduced_rows and rref made to raise.

        The dimension is the number of variables minus the dense rank.
        """
        rng = np.random.default_rng(2601)
        cases = []
        for contexts, pins in [stabilizer_blocks(), *stream_cases(rng, 120)]:
            want = solve_global(build_global_problem(contexts, pins))
            if getattr(want, "dimension", 0):
                cases.append((contexts, pins, want))
        golden = GOLDEN / "analyze_stabilizer_blocks.txt"
        args = [
            "analyze",
            "--obs", str(FIXTURES / "stabilizer_blocks_obs.txt"),
            "--contexts", str(FIXTURES / "stabilizer_blocks.txt"),
            "--pin", str(FIXTURES / "stabilizer_blocks_pins.txt"),
        ]

        def refuse(*_args):
            raise AssertionError("the section is read by forward substitution alone")

        monkeypatch.setattr(gf2.Basis, "reduced_rows", refuse)
        monkeypatch.setattr(gf2, "rref", refuse)
        assert len(cases) > 30
        for contexts, pins, want in cases:
            problem, outcome = decide_global(contexts, pins)
            assert outcome == want
            matrix = unpack_rows(problem.matrix.rows, problem.num_vars)
            assert outcome.dimension == problem.num_vars - rank(matrix)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == golden.read_bytes()


class TestSolveGlobal:
    def test_mermin_is_contextual(self):
        problem = build_global_problem(mermin_contexts())
        outcome = solve_global(problem)
        assert isinstance(outcome, gf2.Certificate)
        assert outcome.selected == (0, 1, 2, 3, 4)
        assert gf2.verify_certificate(problem, outcome)

    def test_pinned_mermin_is_still_contextual(self):
        problem = build_global_problem(mermin_contexts(), ghz_pins())
        outcome = solve_global(problem)
        assert isinstance(outcome, gf2.Certificate)
        assert gf2.verify_certificate(problem, outcome)

    def test_single_block_has_lowest_section(self):
        problem = build_global_problem([close_context(ops("XII", "IXI", "IIX", "XXX"))])
        outcome = solve_global(problem)
        assert isinstance(outcome, GlobalSection)
        assert all(bit == 0 for bit in outcome.values.values())
        assert outcome.dimension == 3

    def test_section_respects_pins(self):
        ctx = close_context(ops("XII", "IXI", "IIX", "XXX"))
        pins = [
            StateConstraint(observable=parse_pauli("XII"), value_bit=1),
            StateConstraint(observable=parse_pauli("IXI"), value_bit=1),
        ]
        outcome = solve_global(build_global_problem([ctx], pins))
        assert isinstance(outcome, GlobalSection)
        assert outcome.values["XII"] == 1
        assert outcome.values["IXI"] == 1
        assert outcome.values["XXX"] == (outcome.values["IIX"] ^ 0)

    def test_section_value_of_signed_operator(self):
        outcome = solve_global(build_global_problem([close_context(ops("X"))]))
        assert isinstance(outcome, GlobalSection)
        assert outcome.value_of(parse_pauli("X")) == 0
        assert outcome.value_of(parse_pauli("-X")) == 1

    def test_solve_already_gives_the_lowest_solution(self):
        """solve_global's section is the brute-force oracle's: lowest values, same dimension."""
        rng = np.random.default_rng(203)
        consistent = 0
        for _ in range(80):
            width = int(rng.integers(1, 5))
            contexts = []
            for _ in range(int(rng.integers(1, 5))):
                chosen = random_commuting_set(rng, width, int(rng.integers(1, 6)))
                if chosen:
                    contexts.append(close_context(chosen))
            if not contexts:
                continue
            target = contexts[0]
            point = spectrum(target)[int(rng.integers(0, target.group_order))]
            pins = [
                StateConstraint(observable=op, value_bit=point.values[op.body()])
                for op in target.members
                if rng.integers(0, 2)
            ]
            problem = build_global_problem(contexts, pins)
            outcome = solve_global(problem)
            if isinstance(outcome, GlobalSection):
                consistent += 1
                assert outcome == brute_force_global(problem)
        assert consistent > 20


class TestBruteForce:
    def test_mermin_has_no_assignment(self):
        assert brute_force_global(build_global_problem(mermin_contexts())) is None
        assert brute_force_global(build_global_problem(mermin_contexts(), ghz_pins())) is None

    def test_single_observables_have_sections(self):
        contexts = [close_context(ops("X")), close_context(ops("Z"))]
        outcome = brute_force_global(build_global_problem(contexts))
        assert isinstance(outcome, GlobalSection)
        assert outcome.values == {"X": 0, "Z": 0}
        assert outcome.dimension == 2

    def test_agrees_with_linear_solver(self):
        """Existence, witness and dimension all match on random problems."""
        rng = np.random.default_rng(202)
        checked = 0
        for _ in range(60):
            width = int(rng.integers(1, 4))
            contexts = []
            for _ in range(int(rng.integers(1, 4))):
                chosen = random_commuting_set(rng, width, int(rng.integers(1, 5)))
                if chosen:
                    contexts.append(close_context(chosen))
            if not contexts:
                continue
            pins = []
            target = contexts[0]
            point = spectrum(target)[int(rng.integers(0, target.group_order))]
            for op in target.members:
                if rng.integers(0, 2):
                    pins.append(StateConstraint(observable=op, value_bit=point.values[op.body()]))
            problem = build_global_problem(contexts, pins)
            fast = solve_global(problem)
            slow = brute_force_global(problem)
            if isinstance(fast, gf2.Certificate):
                assert slow is None
            else:
                assert isinstance(slow, GlobalSection)
                assert fast == slow
                checked += 1
        assert checked > 10


class TestSectionValuation:
    def test_sections_restrict_to_every_context(self):
        contexts = [
            close_context(ops("XII", "IXI", "IIX", "XXX")),
            close_context(ops("IIX", "IYI", "YII", "YYX")),
        ]
        outcome = solve_global(build_global_problem(contexts))
        assert isinstance(outcome, GlobalSection)
        for ctx in contexts:
            valuation = restrict_by_name(outcome.values, ctx)
            assert valuation in spectrum(ctx)

    def test_sections_restrict_to_deferred_contexts(self):
        """A stabilizer state's pins over maximal contexts, members looked up by name.

        The local X and Z of three qubits and four members of a stabilizer
        group, each pinned to its sign in the group, admit a section. It
        restricts to a point of every deferred context's spectrum, with
        each member taking its name's value.
        """
        group = make_stabilizer(ops("XXX", "-ZZI", "IZZ"))
        stabilizers = ops("XXX", "ZZI", "IZZ", "ZIZ")
        contexts = maximal_contexts(ops("XII", "IXI", "IIX", "ZII", "IZI", "IIZ") + stabilizers)
        assert len(contexts) > 1
        assert all(ctx._members is None for ctx in contexts)
        pins = [StateConstraint(op, member_sign(group, op)) for op in stabilizers]
        _, section = decide_global(contexts, pins)
        assert isinstance(section, GlobalSection)
        assert [section.values[op.body()] for op in stabilizers] == [0, 1, 0, 1]
        for ctx in contexts:
            valuation = restrict_by_name(section.values, ctx)
            points = spectrum(ctx)
            assert len(points) == ctx.group_order
            assert valuation in points
            assert [op.body() for op in ctx.members] == list(ctx.names)
