"""Spectra, restriction maps and the global-section decision problem."""
from itertools import combinations, product

import numpy as np
import pytest

from contextua import gf2
from contextua.contexts import ContextGroup, close_context, maximal_contexts
from contextua.fixtures import ghz_pins, mermin_contexts
from contextua.pauli import PauliBasis, PauliOperator, identity, parse_pauli
from contextua.presheaf import (
    EmptySpectrumError,
    GlobalSection,
    NotASubcontextError,
    StateConstraint,
    UnknownConstrainedObservableError,
    Valuation,
    _lowest_solution,
    build_global_problem,
    restrict,
    section_valuation,
    solve_global,
    spectrum,
)

from conftest import brute_force_global, expand_relation, random_commuting_set, random_pauli


def ops(*texts):
    return [parse_pauli(t) for t in texts]


def reference_global_problem(contexts, pins):
    """The global system built straight from operators, as (rows, rhs, labels).

    Columns number each identity_key by its first appearance over the
    contexts' members; each relation row sets the columns of its expanded
    members, and each pin is a unit row.
    """
    columns = {}
    for ctx in contexts:
        for op in ctx.members:
            columns.setdefault(op.identity_key(), (len(columns), op.body()))
    rows, rhs = [], 0
    for ctx in contexts:
        for r in range(len(ctx.relations)):
            members, sign_bit = expand_relation(ctx, r)
            rhs |= sign_bit << len(rows)
            rows.append(sum(1 << columns[op.identity_key()][0] for op in members))
    for pin in pins:
        rhs |= pin.value_bit << len(rows)
        rows.append(1 << columns[pin.observable.identity_key()][0])
    return tuple(rows), rhs, tuple(body for _, body in sorted(columns.values()))


class TestValuation:
    def test_must_cover_members_exactly(self):
        ctx = close_context(ops("XX", "ZZ"))
        with pytest.raises(ValueError):
            Valuation(context=ctx, values={parse_pauli("XX"): 0})

    def test_rejects_non_bits(self):
        ctx = close_context(ops("X"))
        with pytest.raises(ValueError):
            Valuation(context=ctx, values={parse_pauli("X"): 2})

    def test_rejects_relation_violation(self):
        ctx = close_context(ops("XII", "IXI", "IIX", "XXX"))
        values = {op: 0 for op in ctx.members}
        values[parse_pauli("XXX")] = 1
        message = r"relation 0 of ContextGroup\(\[IIX, IXI, XII, XXX\]\)$"
        with pytest.raises(ValueError, match=message):
            Valuation(context=ctx, values=values)

    def test_value_of_signed_and_identity(self):
        ctx = close_context(ops("X"))
        point = Valuation(context=ctx, values={parse_pauli("X"): 1})
        assert point.value_of(parse_pauli("X")) == 1
        assert point.value_of(parse_pauli("-X")) == 0
        assert point.value_of(parse_pauli("I")) == 0
        assert point.value_of(parse_pauli("-I")) == 1

    def test_value_of_extends_multiplicatively(self):
        ctx = close_context(ops("XI", "IX"))
        values = {parse_pauli("XI"): 1, parse_pauli("IX"): 1}
        point = Valuation(context=ctx, values=values)
        assert point.value_of(parse_pauli("XX")) == 0
        assert point.value_of(parse_pauli("-XX")) == 1
        with pytest.raises(KeyError):
            point.value_of(parse_pauli("ZZ"))


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
            total = sum(p.values[op] for op in members) % 2
            assert total == sign_bit

    def test_ghz_point_is_in_the_product_spectrum(self):
        """The GHZ eigenvalue pattern XXX=+1, others=-1 is one of the points."""
        ctx = close_context(ops("XXX", "XYY", "YXY", "YYX"))
        wanted = {
            parse_pauli("XXX"): 0,
            parse_pauli("XYY"): 1,
            parse_pauli("YXY"): 1,
            parse_pauli("YYX"): 1,
        }
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

    def test_minus_identity_spectrum_is_refused(self):
        broken = ContextGroup(
            members=(),
            basis=PauliBasis(1),
            relations=(0,),
            signs=1,
        )
        with pytest.raises(EmptySpectrumError):
            spectrum(broken)


class TestRestriction:
    def test_restrict_to_named_member(self):
        big = close_context(ops("XII", "IXI", "IIX", "XXX"))
        sub = close_context(ops("XXX"))
        for point in spectrum(big):
            image = restrict(point, sub)
            assert image.values[parse_pauli("XXX")] == point.values[parse_pauli("XXX")]

    def test_restrict_to_self_is_identity(self):
        ctx = close_context(ops("XX", "ZZ"))
        for point in spectrum(ctx):
            assert restrict(point, ctx) == point

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
                    assert sub.is_subgroup_of(big)
                    pairs.append((sub, big))
        assert len(pairs) == 5 * (1 + 4 + 6)
        for sub, big in pairs:
            sub_points = set()
            for p in spectrum(sub):
                sub_points.add(p.bits)
            for point in spectrum(big):
                assert restrict(point, sub).bits in sub_points

    def test_restriction_composes(self):
        big = close_context(ops("XII", "IXI", "IIX", "XXX"))
        mid = close_context(ops("IIX", "XII"))
        low = close_context(ops("XII"))
        for point in spectrum(big):
            one_step = restrict(point, low)
            two_step = restrict(restrict(point, mid), low)
            assert one_step == two_step

    def test_rejects_non_subcontext(self):
        a = close_context(ops("X"))
        b = close_context(ops("Z"))
        with pytest.raises(NotASubcontextError):
            restrict(spectrum(a)[0], b)


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
        """identity_key runs once per context member and pin, not per relation member."""
        contexts, pins = mermin_contexts(), ghz_pins()
        calls = []
        original = PauliOperator.identity_key
        monkeypatch.setattr(
            PauliOperator, "identity_key", lambda op: calls.append(op) or original(op)
        )
        build_global_problem(contexts, pins)
        assert len(calls) == sum(len(c.members) for c in contexts) + len(pins)


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
        """_lowest_solution flips no bit of gf2.solve's assignment."""
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
                StateConstraint(observable=op, value_bit=point.values[op])
                for op in target.members
                if rng.integers(0, 2)
            ]
            problem = build_global_problem(contexts, pins)
            outcome = gf2.solve(problem)
            if isinstance(outcome, gf2.Gf2Solution):
                consistent += 1
                assert _lowest_solution(outcome, problem.num_vars) == outcome.assignment
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
                    pins.append(StateConstraint(observable=op, value_bit=point.values[op]))
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
            valuation = section_valuation(outcome, ctx)
            assert valuation in spectrum(ctx)
