"""Context closure, membership and clique search."""
import gc
import inspect
import time
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from contextua import contexts as contexts_module
from contextua import gf2
from contextua.cli import main
from contextua.contexts import (
    ContextBudgetError,
    ContextGroup,
    MinusIdentityError,
    NonCommutingGeneratorsError,
    _insert,
    _lagrangian_cliques,
    _lagrangians,
    _maximal_cliques,
    close_context,
    commutation_graph,
    maximal_contexts,
)
from contextua.fixtures import anders_browne_instance, ghz_group, mermin_observables
from contextua.gf2 import set_bits
from contextua.pauli import (
    NonHermitianError,
    PauliBasis,
    PauliOperator,
    commutes,
    identity,
    multiply_all,
    parse_pauli,
)
from contextua.mbqc import joint_observable
from contextua.presheaf import decide_global, spectrum
from contextua.stabilizer import member_sign

from conftest import (
    dense_operator,
    expand_relation,
    pack_rows,
    random_commuting_set,
    random_pauli,
    random_stabilizer_group,
    rank,
    reference_close_context,
)


def ops(*texts):
    return [parse_pauli(t) for t in texts]


def all_paulis(width):
    """Every non-identity width-qubit Pauli, in body-string order."""
    return [parse_pauli("".join(b)) for b in product("IXYZ", repeat=width)][1:]


class TestCloseContext:
    def test_single_observable(self):
        ctx = close_context(ops("X"))
        assert [m.body() for m in ctx.members] == ["X"]
        assert ctx.rank == 1
        assert ctx.group_order == 2
        assert ctx.relations == ()
        assert ctx.signs == 0

    def test_local_mermin_block_has_one_even_relation(self):
        """Three single-qubit letters and their product close with sign +1."""
        ctx = close_context(ops("XII", "IXI", "IIX", "XXX"))
        assert ctx.rank == 3
        assert ctx.relations == (0b1111,)
        assert ctx.signs == 0
        members, sign_bit = expand_relation(ctx, 0)
        assert sign_bit == 0
        assert {m.body() for m in members} == {"XII", "IXI", "IIX", "XXX"}

    def test_product_block_has_one_odd_relation(self):
        ctx = close_context(ops("XXX", "XYY", "YXY", "YYX"))
        assert ctx.rank == 3
        assert ctx.relations == (0b1111,)
        assert ctx.signs == 1
        assert expand_relation(ctx, 0)[1] == 1

    def test_members_are_canonical_sorted_deduplicated(self):
        ctx = close_context(ops("-ZZ", "XX", "-ZZ", "+XX"))
        assert [m.body() for m in ctx.members] == ["XX", "ZZ"]
        assert all(m.sign == 1 for m in ctx.members)

    def test_identity_generators_are_dropped(self):
        ctx = close_context(ops("II", "XX"))
        assert [m.body() for m in ctx.members] == ["XX"]

    def test_empty_context_needs_width(self):
        with pytest.raises(ValueError):
            close_context(())
        ctx = close_context((), width=2)
        assert ctx.rank == 0 and ctx.group_order == 1

    def test_rejects_noncommuting(self):
        with pytest.raises(NonCommutingGeneratorsError):
            close_context(ops("X", "Z"))

    def test_rejects_sign_conflict(self):
        with pytest.raises(MinusIdentityError):
            close_context(ops("+XX", "-XX"))

    def test_rejects_minus_identity_generator(self):
        with pytest.raises(MinusIdentityError):
            close_context(ops("-II"))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            close_context(ops("XX", "X"))

    def test_first_offending_generator_decides(self):
        """Mixed invalid lists: the first offence in the given order names the error.

        Width, Hermiticity, -I and +P/-P are checked generator by generator,
        so the first offending generator decides (for a +P/-P pair, the
        second of the two); commutation is checked only when all else holds.
        """
        non_hermitian = PauliOperator(2, 0b01, 0, 1)  # i XI
        pieces = {
            "width": (ops("X"), ValueError, "width mismatch: 1 vs 2"),
            "hermitian": ([non_hermitian], ValueError,
                          f"non-Hermitian generator: {non_hermitian!r}"),
            "minus_identity": (ops("-II"), MinusIdentityError, "generator is minus the identity"),
            "sign_conflict": (ops("+YY", "-YY"), MinusIdentityError,
                              "generators include both +YY and -YY"),
            "commutation": (ops("XI", "ZI"), NonCommutingGeneratorsError, None),
        }
        rng = np.random.default_rng(113)
        names = list(pieces)
        for _ in range(400):
            chosen = [n for n in names if rng.integers(2)] or [names[int(rng.integers(5))]]
            tagged = [(n, op) for n in chosen for op in pieces[n][0]] + [("", parse_pauli("II"))]
            tagged = [tagged[int(i)] for i in rng.permutation(len(tagged))]
            conflicting = 0
            for name, _ in tagged:
                conflicting += name == "sign_conflict"
                if name in ("width", "hermitian", "minus_identity") or conflicting == 2:
                    break
            else:
                name = "commutation"
            _, kind, message = pieces[name]
            if message is None:
                first, second = (op.body() for n, op in tagged if n == "commutation")
                message = f"{first} and {second} do not commute"
            with pytest.raises(kind) as caught:
                close_context([op for _, op in tagged], width=2)
            assert type(caught.value) is kind
            assert str(caught.value) == message

    def test_relations_verified_by_multiplication(self):
        """Every emitted relation reproduces (-1)^sign_bit I when multiplied."""
        rng = np.random.default_rng(101)
        for _ in range(60):
            width = int(rng.integers(1, 5))
            count = int(rng.integers(1, 6))
            chosen = random_commuting_set(rng, width, count)
            if not chosen:
                continue
            ctx = close_context(chosen)
            assert len(ctx.relations) == len(ctx.members) - ctx.rank
            assert ctx.signs >> len(ctx.relations) == 0
            for r in range(len(ctx.relations)):
                members, sign_bit = expand_relation(ctx, r)
                product = multiply_all(members, width=width)
                assert product.is_identity_class
                assert product.sign == (-1 if sign_bit else 1)
                matrix = np.eye(1 << width)
                for member in members:
                    matrix = matrix @ dense_operator(member)
                expected = (-1 if sign_bit else 1) * np.eye(1 << width)
                assert np.allclose(matrix, expected)

    def test_group_order_is_two_to_rank(self):
        rng = np.random.default_rng(102)
        for _ in range(40):
            width = int(rng.integers(1, 4))
            chosen = random_commuting_set(rng, width, int(rng.integers(1, 5)))
            if not chosen:
                continue
            ctx = close_context(chosen)
            elements = set()
            for mask in range(1 << ctx.rank):
                sub = [g for i, g in enumerate(ctx.generators) if (mask >> i) & 1]
                product = multiply_all(sub, width=width)
                elements.add((product.width, product.x_bits, product.z_bits))
            assert len(elements) == ctx.group_order


class TestIntPath:
    """close_context on packed ints against the body-string, uint8 oracle."""

    @staticmethod
    def commuting_inputs(rng, count):
        """Commuting sets of widths 1-6 with signs, repeats and the identity.

        Half are drawn by rejection and signed at random, half are random
        products of a full-rank stabilizer group's generators (signed as in
        the group), which gives many relations.
        """
        for t in range(count):
            width = 1 + t % 6
            if t % 2:
                chosen = random_commuting_set(rng, width, int(rng.integers(1, 2 * width + 2)))
                chosen = [op.negate() if rng.integers(0, 2) else op for op in chosen]
            else:
                group = random_stabilizer_group(rng, width)
                chosen = [
                    multiply_all(
                        [g for g, bit in zip(group.generators, rng.integers(0, 2, width)) if bit],
                        width=width,
                    )
                    for _ in range(int(rng.integers(1, 3 * width + 1)))
                ]
            repeats = [chosen[int(i)] for i in rng.integers(0, len(chosen), size=2)]
            gens = [*chosen, *repeats, identity(width)]
            yield [gens[int(i)] for i in rng.permutation(len(gens))]

    def test_matches_the_reference_closure(self):
        rng = np.random.default_rng(104)
        relations = 0
        for gens in self.commuting_inputs(rng, 240):
            ctx = close_context(gens)
            members, generators, expected = reference_close_context(gens)
            assert ctx.names == tuple(op.body() for op in members)
            assert ctx.members == members
            assert ctx.generators == generators
            assert [expand_relation(ctx, r) for r in range(len(ctx.relations))] == expected
            assert ctx.signs >> len(expected) == 0
            relations += len(expected)
        assert relations > 200

    def test_maximal_contexts_close_like_the_reference(self):
        """Each clique is closed as the oracle closes the pool's observables in it.

        Pools hold the identity, both signs of some observables and repeats;
        each context must also be maximal among the pool's observables. Its
        names are read before its deferred members are built.
        """
        rng = np.random.default_rng(108)
        pools = [all_paulis(3)]
        for t in range(60):
            width = 1 + t % 4
            pool = [random_pauli(rng, width) for _ in range(int(rng.integers(1, 9)))]
            pool += [op.negate() for op in pool[:2]] + [pool[0], identity(width)]
            pools.append([pool[int(i)] for i in rng.permutation(len(pool))])
        relations = 0
        for pool in pools:
            for ctx in maximal_contexts(pool):
                bodies = set(ctx.names)
                clique = [op for op in pool if op.is_identity_class or op.body() in bodies]
                members, generators, expected = reference_close_context(clique)
                assert ctx.names == tuple(op.body() for op in members)
                assert ctx.members == members
                assert ctx.generators == generators
                assert [expand_relation(ctx, r) for r in range(len(ctx.relations))] == expected
                assert ctx.signs >> len(expected) == 0
                relations += len(expected)
                for op in pool:
                    if op not in clique:
                        assert not all(commutes(op, m) for m in ctx.members)
        assert relations > 540
        full = maximal_contexts(pools[0])
        assert len(full) == 135
        assert {(len(c.members), c.rank, len(c.relations)) for c in full} == {(7, 3, 4)}

    def test_body_sort_orders_like_body_strings(self):
        """Bodies built from the bits sort in body-string order, one key per Pauli."""
        paulis = all_paulis(4)
        rng = np.random.default_rng(105)
        shuffled = [paulis[int(i)] for i in rng.permutation(len(paulis))]
        fresh = [PauliOperator(op.width, op.x_bits, op.z_bits, op.phase_exp) for op in shuffled]
        assert sorted(fresh, key=PauliOperator.body) == paulis
        assert len({op.body() for op in fresh}) == 255

    def test_noncommuting_error_names_the_first_pair(self):
        rng = np.random.default_rng(106)
        failures = 0
        for _ in range(300):
            width = int(rng.integers(1, 5))
            gens = [random_pauli(rng, width, signed=False) for _ in range(int(rng.integers(2, 7)))]
            try:
                reference_close_context(gens)
            except NonCommutingGeneratorsError as expected:
                failures += 1
                with pytest.raises(NonCommutingGeneratorsError) as excinfo:
                    close_context(gens)
                assert str(excinfo.value) == str(expected)
        assert failures > 150

    @pytest.mark.parametrize(
        "texts,message",
        [
            (("+XX", "-XX"), "generators include both +XX and -XX"),
            (("-II",), "generator is minus the identity"),
            (("X", "Z", "-X"), "generators include both +X and -X"),
            (("XZ", "-II", "ZX"), "generator is minus the identity"),
        ],
    )
    def test_minus_identity_messages(self, texts, message):
        with pytest.raises(MinusIdentityError) as excinfo:
            close_context(ops(*texts))
        assert str(excinfo.value) == message


class TestMembership:
    def test_decompose_and_element_sign(self):
        ctx = close_context(ops("XXX", "XYY", "YXY", "YYX"))
        xxx = parse_pauli("XXX")
        chosen, sign_bit = ctx.decompose(xxx)
        assert sign_bit == 0
        assert member_sign(ctx.basis, xxx) == 0
        product = multiply_all(chosen, width=3)
        assert (product.x_bits, product.z_bits) == (xxx.x_bits, xxx.z_bits)

    def test_minus_xxx_is_the_product_of_the_other_three(self):
        """In the all-products block the group element on XXX's axis is -XXX."""
        ctx = close_context(ops("XYY", "YXY", "YYX"))
        xxx = parse_pauli("XXX")
        assert ctx.decompose(xxx)[1] == 1
        assert member_sign(ctx.basis, xxx) == 1
        assert member_sign(ctx.basis, parse_pauli("XYY")) == 0

    def test_non_hermitian_query_is_refused(self):
        """iX and -iX get no sign from the context of X, nor a value from its points."""
        ctx = close_context(ops("X"))
        for phase in (1, 3):
            query = PauliOperator(1, 1, 0, phase)
            with pytest.raises(NonHermitianError):
                ctx.decompose(query)
            with pytest.raises(NonHermitianError):
                spectrum(ctx)[0].value_of(query)

    def test_non_member(self):
        ctx = close_context(ops("XX"))
        assert ctx.decompose(parse_pauli("ZZ")) is None
        assert member_sign(ctx.basis, parse_pauli("ZZ")) is None

    def test_subgroup_relation(self):
        big = close_context(ops("XII", "IXI", "IIX", "XXX"))
        small = close_context(ops("XXX"))
        assert small.is_subgroup_of(big)
        assert not big.is_subgroup_of(small)
        assert big.is_subgroup_of(big)

    def test_span_inclusion_ignores_generator_order(self):
        a = close_context(ops("XI", "IX"))
        b = close_context(ops("IX", "XX"))
        assert a.is_subgroup_of(b) and b.is_subgroup_of(a)


class TestElimination:
    def test_queries_call_no_gf2_function(self, monkeypatch):
        ctx = close_context(ops("XYY", "YXY", "YYX"))
        group = ghz_group()

        def refuse(*args, **kwargs):
            raise AssertionError("a membership query ran GF(2) elimination")

        for name, value in vars(gf2).items():
            if inspect.isfunction(value) and value.__module__ == gf2.__name__:
                monkeypatch.setattr(gf2, name, refuse)
        xxx = parse_pauli("XXX")
        assert ctx.decompose(xxx)[1] == 1
        assert ctx.decompose(parse_pauli("ZZZ")) is None
        assert member_sign(ctx.basis, xxx) == 1
        assert member_sign(group, parse_pauli("XYY")) == 1
        points = spectrum(ctx)
        assert len(points) == 8
        assert points[0].value_of(parse_pauli("-XXX")) == 0

    def test_close_context_eliminates_at_most_once(self, monkeypatch):
        """One pass: each member enters the basis once, and rref never runs."""
        inserted = []
        original = gf2.Basis.add

        def counting(basis, vector, name):
            inserted.append(vector)
            return original(basis, vector, name)

        def refuse(matrix):
            raise AssertionError("close_context ran a second elimination")

        monkeypatch.setattr(gf2.Basis, "add", counting)
        monkeypatch.setattr(gf2, "rref", refuse)
        all_z = ["".join(z) for z in product("IZ", repeat=3)][1:]
        for block in (ops("X"), ops("XII", "IXI", "IIX", "XXX"), ops(*all_z)):
            inserted.clear()
            ctx = close_context(block)
            assert inserted == [op.packed() for op in ctx.members]
            assert len(ctx.relations) == len(ctx.members) - ctx.rank

    def test_maximal_contexts_close_on_first_read(self, monkeypatch):
        """Names and rank come at once; members, relations and signs wait for a reader.

        No member tuple is built by the search. Each context is closed once,
        by the first read of its relations or signs; one whose members are
        independent is never passed to _insert. The solver builds members
        for exactly the contexts it closes: on the 255 four-qubit Paulis,
        the 11 it reads before the certificate. A context needs its
        relations or its rank.
        """
        closed = []
        original = contexts_module._insert
        monkeypatch.setattr(
            contexts_module, "_insert", lambda ops: closed.append(ops) or original(ops)
        )
        contexts = maximal_contexts(mermin_observables() + [identity(3)])
        assert closed == []
        assert all(ctx._members is None for ctx in contexts)
        assert [ctx.group_order for ctx in contexts] == [8] * 15
        assert all(ctx.members[0].body() != "III" for ctx in contexts)
        assert closed == []
        for ctx in contexts[:2]:
            ctx.signs
            ctx.relations
            ctx.generators
        assert [len(ctx.members) for ctx in contexts[:2]] == [4, 3]
        assert closed == [contexts[0].members]
        assert (contexts[1].relations, contexts[1].signs) == ((), 0)
        census = maximal_contexts(all_paulis(4))
        assert all(ctx._members is None for ctx in census)
        read = []
        members = ContextGroup.members
        monkeypatch.setattr(
            ContextGroup, "members", property(lambda ctx: read.append(ctx) or members.fget(ctx))
        )
        closed.clear()
        _, outcome = decide_global(census)
        assert isinstance(outcome, gf2.Certificate)
        assert len(read) == 11
        assert [ctx for ctx in census if ctx._members is not None] == read
        assert closed == [ctx._members for ctx in read]
        with pytest.raises(ValueError, match="relations or its rank"):
            ContextGroup(members=(), width=1)

    def test_maximal_contexts_prepare_each_observable_once(self, monkeypatch):
        """At most one body build per input observable, and no copy of a canonical one."""
        built = []
        body = PauliOperator.body

        def counting(op):
            if op._body is None:
                built.append(op)
            return body(op)

        monkeypatch.setattr(PauliOperator, "body", counting)
        pool = mermin_observables() + [parse_pauli("-XXX"), identity(3)]
        assert len(maximal_contexts(pool)) == 15
        assert 0 < len(built) <= len(pool)
        for op in ops("X", "XYZ", "-XYZ", "-Y", "IIII"):
            if op.sign == 1:
                assert op.canonical() is op
            else:
                assert op.canonical() == op.negate()


def retained_by(call):
    """call() and the bytes tracemalloc still traces after it, with its result alive."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, retained


class TestMemory:
    """Contexts keep their names, and their members and relation rows once built, and little else.

    The 64 KiB and 2 MiB bounds hold with headroom on Python 3.10-3.12,
    where these contexts retain about 33 KiB and 1.28-1.35 MiB. The 2,295
    maximal contexts of the four-qubit census retain about 0.73 MiB on
    Python 3.11: names, clique ints and rank, with no member tuple.
    """

    def test_three_qubit_census_retains_under_64_kib(self):
        """The 135 maximal contexts of all 63 three-qubit Paulis stay small.

        One call beforehand warms every cache.
        """
        paulis = all_paulis(3)
        maximal_contexts(paulis)
        contexts, retained = retained_by(lambda: maximal_contexts(paulis))
        assert len(contexts) == 135
        assert retained < 64 * 1024

    def test_four_qubit_census_retains_under_2_mib(self):
        """Closing the 2,295 maximal cliques of all 255 four-qubit Paulis.

        The cliques come from an untraced search; only closing them is traced.
        """
        cliques = [ctx.members for ctx in maximal_contexts(all_paulis(4))]
        close_context(cliques[0])
        contexts, retained = retained_by(lambda: [close_context(c) for c in cliques])
        assert len(contexts) == 2295
        assert retained < 2 * 1024 * 1024

    def test_four_qubit_census_search_retains_under_1_mib(self):
        """The 2,295 maximal contexts of all 255 four-qubit Paulis, members deferred.

        One call beforehand warms every cache.
        """
        paulis = all_paulis(4)
        maximal_contexts(paulis)
        contexts, retained = retained_by(lambda: maximal_contexts(paulis))
        assert len(contexts) == 2295
        assert retained < 1024 * 1024


def recursive_cliques(neighbours, highest_first):
    """Bron-Kerbosch with Tomita pivoting, as a recursion, in discovery order.

    Pivot ties go to the highest vertex and branches run highest vertex
    first when highest_first is set, else both go lowest first.
    """
    found = []

    def extend(clique, candidates, excluded):
        if not candidates | excluded:
            found.append(frozenset(clique))
            return
        pool = set_bits(candidates | excluded)
        order = reversed if highest_first else list
        pivot = max(order(pool), key=lambda u: (neighbours[u] & candidates).bit_count())
        for v in order(set_bits(candidates & ~neighbours[pivot])):
            extend(clique | {v}, candidates & neighbours[v], excluded & neighbours[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    if neighbours:
        extend(set(), (1 << len(neighbours)) - 1, 0)
    return found


class TestCliqueSearch:
    def test_anticommuting_pair_has_no_edge(self):
        assert commutation_graph(ops("X", "Z")) == [0, 0]
        # XX commutes with ZZ and XI; ZZ and XI anticommute.
        assert commutation_graph(ops("XX", "ZZ", "XI")) == [0b110, 0b001, 0b001]

    def test_single_qubit_letters_give_three_singletons(self):
        contexts = maximal_contexts(ops("X", "Y", "Z"))
        assert len(contexts) == 3
        assert [c.members[0].body() for c in contexts] == ["X", "Y", "Z"]

    def test_mermin_clique_census(self):
        """The ten observables support fifteen maximal cliques.

        Five of them close with a product relation: the four mixed blocks of
        three local letters plus their product, and the block of the four
        three-letter products. The other ten are relation-free triples.
        """
        observables = mermin_observables()
        adj = commutation_graph(observables)
        contexts = maximal_contexts(observables)
        assert len(contexts) == 15
        with_relations = [c for c in contexts if c.relations]
        assert len(with_relations) == 5
        expected = {
            frozenset({"XII", "IXI", "IIX", "XXX"}),
            frozenset({"XII", "IYI", "IIY", "XYY"}),
            frozenset({"YII", "IXI", "IIY", "YXY"}),
            frozenset({"YII", "IYI", "IIX", "YYX"}),
            frozenset({"XXX", "XYY", "YXY", "YYX"}),
        }
        found = {frozenset(m.body() for m in c.members) for c in with_relations}
        assert found == expected
        signs = sorted(c.signs for c in with_relations)
        assert signs == [0, 0, 0, 0, 1]
        relation_free = [c for c in contexts if not c.relations]
        assert all(len(c.members) == 3 for c in relation_free)

    def test_deterministic_order(self):
        observables = mermin_observables()
        first = maximal_contexts(observables)
        second = maximal_contexts(list(reversed(observables)))
        assert [c.members for c in first] == [c.members for c in second]

    def test_every_observable_is_covered(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            width = int(rng.integers(1, 4))
            pool = []
            for _ in range(int(rng.integers(1, 7))):
                pool.extend(random_commuting_set(rng, width, 2))
            if not pool:
                continue
            contexts = maximal_contexts(pool)
            for op in pool:
                assert any(
                    op.body() in {m.body() for m in c.members}
                    for c in contexts
                )

    def test_cliques_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(107)
        graphs = [np.zeros((0, 0), dtype=bool), np.zeros((7, 7), dtype=bool)]
        graphs.append(~np.eye(9, dtype=bool))
        for _ in range(60):
            n = int(rng.integers(1, 41))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
            graphs.append(upper | upper.T)
        for adj in graphs:
            graph = nx.Graph()
            graph.add_nodes_from(range(adj.shape[0]))
            graph.add_edges_from(zip(*np.nonzero(np.triu(adj, 1))))
            expected = {frozenset(c) for c in nx.find_cliques(graph)}
            found = [frozenset(set_bits(c)) for c in _maximal_cliques(pack_rows(adj))]
            assert len(found) == len(set(found))
            assert set(found) == expected

    def test_discovery_order_is_the_recursive_order(self):
        """The explicit stack finds cliques in the order the recursion does.

        The reference recursion breaks pivot ties towards the highest vertex
        and branches highest vertex first, as the search does.
        """
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(0, 41))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
            neighbours = pack_rows(upper | upper.T)
            found = [frozenset(set_bits(c)) for c in _maximal_cliques(neighbours)]
            assert found == recursive_cliques(neighbours, highest_first=True)

    def test_visiting_order_over_body_order_is_the_ascending_one(self):
        """Numbered in descending body order, the search finds the cliques the
        lowest-first recursion finds on the ascending numbering, in sequence.

        So the budget stops an over-large input at the same clique.
        """
        rng = np.random.default_rng(152)
        four = all_paulis(4)
        pools = [mermin_observables()]
        for size in (20, 29, 32, 41, 50, 64, 80, 84):
            subset = [four[int(i)] for i in rng.choice(len(four), size, replace=False)]
            pools.append(clifford_relabel(rng, subset))
        for pool in pools:
            ascending = sorted(pool, key=PauliOperator.body)
            descending = ascending[::-1]
            expected = [
                {ascending[v].body() for v in clique}
                for clique in recursive_cliques(
                    commutation_graph(ascending), highest_first=False
                )
            ]
            found = [
                {descending[v].body() for v in set_bits(clique)}
                for clique in _maximal_cliques(commutation_graph(descending))
            ]
            assert found == expected

    def test_complete_graph_deeper_than_the_recursion_limit(self):
        """One clique of 1,100 vertices: the search keeps its own stack."""
        n = 1100
        full = (1 << n) - 1
        cliques = _maximal_cliques([full ^ 1 << v for v in range(n)])
        assert [list(set_bits(c)) for c in cliques] == [list(range(n))]

    @pytest.mark.parametrize("width,count", [(2, 15), (3, 135), (4, 2295)])
    def test_all_paulis_census(self, width, count):
        """Maximal commuting sets of all Paulis: prod_k (2^k + 1) of them.

        The 20 s budget on four qubits (about 1 s here) makes a search
        without pivoting, which takes minutes, fail instead of hang.
        """
        start = time.perf_counter()
        cliques = _maximal_cliques(commutation_graph(all_paulis(width)))
        assert time.perf_counter() - start < 20
        assert len(cliques) == count
        assert {len(list(set_bits(c))) for c in cliques} == {(1 << width) - 1}

    def test_graph_matches_the_pairwise_oracle(self):
        """The coordinate masks give the graph pairwise commutes gives, signs and repeats aside."""
        rng = np.random.default_rng(153)
        for width in range(1, 6):
            paulis = [identity(width), *all_paulis(width)]
            for _ in range(8):
                size = int(rng.integers(1, min(len(paulis), 96) + 1))
                pool = [paulis[int(i)] for i in rng.choice(len(paulis), size, replace=False)]
                pool = [op.negate() if rng.integers(0, 2) else op for op in pool] + pool[:1]
                expected = [
                    sum(1 << j for j, q in enumerate(pool) if j != i and commutes(p, q))
                    for i, p in enumerate(pool)
                ]
                assert commutation_graph(pool) == expected
        assert commutation_graph([]) == []
        with pytest.raises(ValueError, match="mixed widths"):
            commutation_graph(ops("X", "XX", "Z"))

    def test_ranks_match_the_dense_rank(self):
        """Each context's rank is the uint8 rank of its members' (x | z) rows.

        Pools hold the identity, repeats and both signs; the identity alone
        gives one empty context of rank 0.
        """
        rng = np.random.default_rng(154)
        pools = [all_paulis(3), [identity(2), identity(2).negate()]]
        for t in range(45):
            width = 2 + t % 3
            paulis = [identity(width), *all_paulis(width)]
            size = int(rng.integers(1, min(len(paulis), 64) + 1))
            pool = [paulis[int(i)] for i in rng.choice(len(paulis), size, replace=False)]
            pools.append(pool + [op.negate() for op in pool[:2]])
        ranks = set()
        for pool in pools:
            for ctx in maximal_contexts(pool):
                bodies = [m.body() for m in ctx.members]
                rows = np.array(
                    [[c in "XY" for c in b] + [c in "YZ" for c in b] for b in bodies],
                    dtype=np.uint8,
                ).reshape(len(bodies), 2 * ctx.width)
                assert ctx.rank == (rank(rows) if len(rows) else 0)
                ranks.add((ctx.width, ctx.rank))
        assert {(4, 4), (3, 3), (2, 0), (2, 1)} <= ranks

    def test_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            maximal_contexts(ops("X", "XX"))

    def test_rejects_non_hermitian(self):
        """iX is not an observable: maximal_contexts refuses it as close_context does."""
        ix = PauliOperator(1, 1, 0, 1)
        with pytest.raises(ValueError, match="non-Hermitian"):
            close_context([ix])
        with pytest.raises(ValueError, match="non-Hermitian"):
            maximal_contexts([parse_pauli("Z"), ix])


def clifford_relabel(rng, obs, gates=32):
    """The positive operators of obs after random H, S and CNOT gates.

    The symplectic images keep every commutation, so the relabelled set has
    the same commutation graph, vertex for vertex.
    """
    width = obs[0].width
    vectors = [(op.x_bits, op.z_bits) for op in obs]
    for _ in range(gates):
        gate, a = int(rng.integers(3)), int(rng.integers(width))
        b = (a + 1 + int(rng.integers(width - 1))) % width
        moved = []
        for x, z in vectors:
            xa, za = x >> a & 1, z >> a & 1
            if gate == 0:  # Hadamard on a swaps x_a and z_a
                x, z = x ^ (xa ^ za) << a, z ^ (xa ^ za) << a
            elif gate == 1:  # phase on a: z_a ^= x_a
                z ^= xa << a
            else:  # CNOT a -> b: x_b ^= x_a, z_a ^= z_b
                x, z = x ^ xa << b, z ^ (z >> b & 1) << a
            moved.append((x, z))
        vectors = moved
    return [PauliOperator(width, x, z, (x & z).bit_count()) for x, z in vectors]


class TestCliqueSearchOnPaulis:
    def test_relabelled_four_qubit_subsets_match_networkx(self):
        """Commutation graphs of the benchmark's shapes: 20 to 84 of the 255 Paulis."""
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(151)
        four = all_paulis(4)
        for size in (20, 29, 32, 41, 50, 64, 80, 84):
            subset = [four[int(i)] for i in rng.choice(len(four), size, replace=False)]
            obs = clifford_relabel(rng, subset)
            neighbours = commutation_graph(obs)
            assert neighbours == commutation_graph(subset)
            graph = nx.Graph()
            graph.add_nodes_from(range(size))
            graph.add_edges_from(
                (i, j) for i in range(size) for j in set_bits(neighbours[i]) if i < j
            )
            expected = {frozenset(c) for c in nx.find_cliques(graph)}
            found = [frozenset(set_bits(c)) for c in _maximal_cliques(neighbours)]
            assert len(found) == len(set(found))
            assert set(found) == expected


class TestContextBudget:
    def test_search_stops_past_the_budget(self, monkeypatch):
        """The Mermin set has 15 maximal contexts: 15 pass, 14 are refused."""
        monkeypatch.setattr(contexts_module, "MAX_CONTEXTS", 15)
        assert len(maximal_contexts(mermin_observables())) == 15
        monkeypatch.setattr(contexts_module, "MAX_CONTEXTS", 14)
        with pytest.raises(ContextBudgetError, match="more than 14 maximal contexts"):
            maximal_contexts(mermin_observables())

    def test_analyze_exits_2_naming_the_budget(self, monkeypatch):
        monkeypatch.setattr(contexts_module, "MAX_CONTEXTS", 14)
        obs = Path(__file__).resolve().parent.parent / "fixtures" / "mermin.txt"
        result = CliRunner().invoke(main, ["analyze", "--obs", str(obs)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: more than 14 maximal contexts")
        assert "Traceback" not in result.stderr

    def test_each_search_stops_past_the_budget(self, monkeypatch):
        """Both searches refuse the Mermin set's 15 cliques under a budget of 14."""
        observables = mermin_observables()
        neighbours = commutation_graph(observables)
        vectors = [op.packed() for op in observables]
        monkeypatch.setattr(contexts_module, "MAX_CONTEXTS", 15)
        assert len(_maximal_cliques(neighbours)) == 15
        assert len(_lagrangian_cliques(vectors, neighbours, 3)) == 15
        monkeypatch.setattr(contexts_module, "MAX_CONTEXTS", 14)
        with pytest.raises(ContextBudgetError, match="more than 14 maximal contexts"):
            _maximal_cliques(neighbours)
        with pytest.raises(ContextBudgetError, match="more than 14 maximal contexts"):
            _lagrangian_cliques(vectors, neighbours, 3)


def symplectic_form(width, u, v):
    """The symplectic form of two packed vectors x | z << width."""
    low = (1 << width) - 1
    return ((u & low & v >> width).bit_count() + (v & low & u >> width).bit_count()) & 1


def lagrangian_pools():
    """Four-qubit pools of the benchmark's shapes, relabelled, and the Mermin set."""
    rng = np.random.default_rng(151)
    four = all_paulis(4)
    pools = [mermin_observables()]
    for size in (20, 29, 32, 41, 50, 64, 80, 84):
        subset = [four[int(i)] for i in rng.choice(len(four), size, replace=False)]
        pools.append(clifford_relabel(rng, subset))
    return pools


def signed_pools():
    """Signed operators of one width from 1 to 4, with repeats and the identity."""

    def pool(width):
        letters = st.text("IXYZ", min_size=width, max_size=width)
        signed = st.tuples(st.sampled_from("+-"), letters).map("".join)
        texts = st.lists(signed, min_size=1, max_size=48)
        return st.tuples(texts, st.booleans()).map(
            lambda drawn: [parse_pauli(t) for t in drawn[0]] + [identity(width)] * drawn[1]
        )

    return st.integers(1, 4).flatmap(pool)


def lagrangian_search(obs):
    """The cliques the Lagrangian path finds on obs, sorted."""
    neighbours = commutation_graph(obs)
    return sorted(_lagrangian_cliques([op.packed() for op in obs], neighbours, obs[0].width))


def forced(monkeypatch, path, obs):
    """maximal_contexts(obs) with the given search forced, as (names, rank, members, relations, signs)."""
    with monkeypatch.context() as patch:
        if path == "lagrangian":
            patch.setattr(contexts_module, "_lagrangian_count", lambda width: 0)
        else:
            patch.setattr(contexts_module, "_LAGRANGIAN_WIDTHS", 0)
        return [
            (ctx.names, ctx.rank, ctx.members, ctx.relations, ctx.signs)
            for ctx in maximal_contexts(obs)
        ]


class TestLagrangianSearch:
    @pytest.mark.parametrize("width,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_table_lists_each_lagrangian_once(self, width, count):
        """prod_k (2^k + 1) entries of width independent, pairwise commuting vectors."""
        table = _lagrangians(width)
        assert isinstance(table, bytes)
        assert len(table) == width * count
        spans = set()
        for start in range(0, len(table), width):
            generators = table[start : start + width]
            span = {0}
            for g in generators:
                span |= {v ^ g for v in span}
            assert len(span) == 1 << width
            assert all(symplectic_form(width, u, v) == 0 for u in generators for v in generators)
            spans.add(frozenset(span))
        assert len(spans) == count
        assert _lagrangians(width) is table

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_all_paulis_match_the_tomita_search(self, width):
        paulis = all_paulis(width)
        expected = sorted(_maximal_cliques(commutation_graph(paulis)))
        assert lagrangian_search(paulis) == expected
        assert len(expected) == len(_lagrangians(width)) // width

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pool=signed_pools())
    def test_signed_pools_match_the_tomita_search(self, pool):
        """Signs, repeats and the identity: repeated vectors are twin vertices to both searches."""
        assert lagrangian_search(pool) == sorted(_maximal_cliques(commutation_graph(pool)))

    def test_relabelled_four_qubit_subsets_match_the_tomita_search(self):
        for pool in lagrangian_pools():
            assert lagrangian_search(pool) == sorted(_maximal_cliques(commutation_graph(pool)))

    def test_cliques_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for pool in [all_paulis(3), *lagrangian_pools()[::2]]:
            neighbours = commutation_graph(pool)
            graph = nx.Graph()
            graph.add_nodes_from(range(len(pool)))
            graph.add_edges_from(
                (i, j) for i in range(len(pool)) for j in set_bits(neighbours[i]) if i < j
            )
            expected = {frozenset(c) for c in nx.find_cliques(graph)}
            found = [frozenset(set_bits(c)) for c in lagrangian_search(pool)]
            assert len(found) == len(set(found))
            assert set(found) == expected

    def test_both_paths_give_equal_contexts(self, monkeypatch):
        """Names, ranks, members, relations and signs agree whichever search is forced."""
        pools = [*(all_paulis(width) for width in (1, 2, 3, 4)), *lagrangian_pools()]
        pools.append([identity(2), *ops("XX", "-ZZ", "YY", "XX", "ZI")])
        pools.append([identity(3), identity(3).negate()])
        for pool in pools:
            assert forced(monkeypatch, "lagrangian", pool) == forced(monkeypatch, "tomita", pool)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pool=signed_pools())
    def test_both_paths_give_equal_contexts_on_signed_pools(self, pool):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert forced(monkeypatch, "lagrangian", pool) == forced(monkeypatch, "tomita", pool)

    def test_path_choice(self, monkeypatch):
        """Censuses of three and four qubits read the table; sparse and wide inputs search."""
        calls = []
        for name in ("_lagrangian_cliques", "_maximal_cliques"):
            original = getattr(contexts_module, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(contexts_module, name, counting)
        rng = np.random.default_rng(155)
        four = all_paulis(4)
        sparse = [four[int(i)] for i in rng.choice(len(four), 20, replace=False)]
        cases = [
            (all_paulis(3), "_lagrangian_cliques"),
            (all_paulis(4), "_lagrangian_cliques"),
            (sparse, "_maximal_cliques"),
            (ops("XXXXX", "ZZZZZ", "YYYYY", "ZZIII"), "_maximal_cliques"),
            (ops("XI", "IZ"), "_lagrangian_cliques"),
            (four[:57], "_maximal_cliques"),
            (four[:58], "_lagrangian_cliques"),
            (ops("XII", "IXI", "IIX"), "_maximal_cliques"),
            (ops("XII", "IXI", "IIX", "ZZZ"), "_lagrangian_cliques"),
        ]
        for pool, expected in cases:
            calls.clear()
            maximal_contexts(pool)
            assert calls == [expected]


def commuting_lists(max_size=12):
    """A width and signed operators of that width, each kept if it commutes with those before."""

    def keep_commuting(width, texts):
        kept = []
        for op in map(parse_pauli, texts):
            if all(commutes(op, p) for p in kept):
                kept.append(op)
        return width, kept

    def texts(width):
        signed = st.tuples(st.sampled_from("+-"), st.text("IXYZ", min_size=width, max_size=width))
        return st.lists(signed.map("".join), max_size=max_size).map(
            lambda drawn: keep_commuting(width, drawn)
        )

    return st.integers(1, 4).flatmap(texts)


class TestInsertSigns:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=commuting_lists())
    def test_folded_sign_is_the_product_sign(self, drawn):
        """Each relation row is its circuit over the ops' positions, signed by multiply_all."""
        width, obs = drawn
        replay = PauliBasis(width)
        kept, expected, relations = [], [], []
        for i, op in enumerate(obs):
            circuit = replay.add(op)
            if circuit is None:
                kept.append(i)
                continue
            chosen = (*(replay.generators[j] for j in set_bits(circuit)), op)
            expected.append(sum(1 << kept[j] for j in set_bits(circuit)) | 1 << i)
            relations.append((chosen, multiply_all(chosen).phase_exp // 2))
        rows, signs, positions = _insert(obs)
        dependent = {row.bit_length() - 1 for row in rows}
        assert [i for i in range(len(obs)) if i not in dependent] == kept == positions
        assert rows == tuple(expected)
        expanded = [
            (tuple(op for i, op in enumerate(obs) if row >> i & 1), signs >> r & 1)
            for r, row in enumerate(rows)
        ]
        assert expanded == relations
        assert signs >> len(rows) == 0


class TestDecompose:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=commuting_lists(), subset=st.integers(0, 15), flip=st.booleans(),
           other=st.text("IXYZ", min_size=4, max_size=4))
    def test_signed_product_names_its_generators(self, drawn, subset, flip, other):
        """decompose inverts multiply_all on independent commuting generators."""
        width, obs = drawn
        basis = PauliBasis(width)
        for op in obs:
            basis.add(op)
        gens = basis.generators
        chosen = tuple(g for j, g in enumerate(gens) if subset >> j & 1)
        product = multiply_all(chosen, width=width)
        query = product.negate() if flip else product
        assert basis.decompose(query) == (chosen, int(flip))
        skewed = PauliOperator(width, query.x_bits, query.z_bits, query.phase_exp + 1)
        with pytest.raises(NonHermitianError):
            basis.decompose(skewed)
        with pytest.raises(NonHermitianError):
            close_context(gens, width=width).decompose(skewed)
        assert basis.decompose(identity(width)) == ((), 0)
        outsider = parse_pauli(other[:width])
        products = (
            multiply_all([g for j, g in enumerate(gens) if mask >> j & 1], width=width)
            for mask in range(1 << len(gens))
        )
        span = {(op.width, op.x_bits, op.z_bits) for op in products}
        key = (outsider.width, outsider.x_bits, outsider.z_bits)
        assert (basis.decompose(outsider) is None) == (key not in span)


def eager_basis(ctx):
    """The PauliBasis fed every member in order, as contexts once kept it."""
    basis = PauliBasis(ctx.width)
    for op in ctx.members:
        basis.add(op)
    return basis


class TestDerivedView:
    """Generators, rank and basis derive from the members and relation rows."""

    @staticmethod
    def assert_matches_eager(ctx, queries):
        eager = eager_basis(ctx)
        assert ctx.generators == eager.generators
        assert ctx.rank == eager.rank
        assert ctx.basis._basis._rows == eager._basis._rows
        for op in (*ctx.members, *queries):
            assert ctx.basis.decompose(op) == eager.decompose(op)
            assert ctx.decompose(op) == eager.decompose(op.canonical())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=commuting_lists(), other=st.text("IXYZ", min_size=4, max_size=4))
    def test_drawn_contexts_match_the_eager_basis(self, drawn, other):
        width, obs = drawn
        # One sign per observable, so no drawn list puts -I in the group.
        canonical = {op.body(): op.canonical() for op in obs}
        ctx = close_context(canonical.values(), width=width)
        outsider = parse_pauli(other[:width])
        self.assert_matches_eager(ctx, (outsider, outsider.negate(), identity(width)))

    def test_three_qubit_census_matches_the_eager_basis(self):
        paulis = all_paulis(3)
        queries = (*paulis, *(op.negate() for op in paulis))
        for ctx in maximal_contexts(paulis):
            self.assert_matches_eager(ctx, queries)

    def test_no_basis_is_built_before_a_membership_query(self, monkeypatch):
        built = []
        original = PauliBasis.__init__

        def counting(basis, *args, **kwargs):
            built.append(basis)
            original(basis, *args, **kwargs)

        inst = anders_browne_instance()
        monkeypatch.setattr(PauliBasis, "__init__", counting)
        contexts = maximal_contexts(mermin_observables())
        contexts.append(close_context(ops("XII", "IXI", "IIX", "XXX")))
        contexts.extend(
            joint_observable(inst, bits)[1] for bits in product((0, 1), repeat=inst.input_bits)
        )
        assert [ctx.rank for ctx in contexts[-5:]] == [3] * 5
        assert all(len(ctx.generators) == ctx.rank for ctx in contexts)
        assert built == []
        ctx = contexts[-5]
        assert ctx.decompose(parse_pauli("XXX")) == (ctx.generators, 0)
        assert len(built) == 1
        assert len(spectrum(ctx)) == 8
        assert member_sign(ctx.basis, parse_pauli("-XXX")) == 1
        assert len(built) == 1
