"""Measurement contexts: abelian Pauli groups with sign-tracked relations.

A context is the group generated by a set of pairwise commuting Hermitian
observables. Observables are identified projectively (the canonical positive
representative); all sign information is carried by product relations,
held as :class:`~contextua.gf2.Gf2System` holds its rows: an int row over
the members (bit i names ``members[i]``) and a sign bit, so in {XXX, XYY,
YXY, YYX} the row 0b1111 with sign bit 1 says that the four multiply to
minus the identity. Everything here works on packed symplectic ints,
except the member order: members sort by
:meth:`~contextua.pauli.PauliOperator.body`, the letter string each
operator builds once and keeps. Closing is one pass. Each generator's phase
excess, computed once, validates, signs and canonicalises it; the sorted
members then stream once through one :class:`~contextua.gf2.Basis`. Each
member it does not keep yields one relation, its fundamental circuit,
signed by :func:`~contextua.pauli.circuit_sign`, which folds only the
sign. These relations are a basis of all product constraints of the
context, so any valuation that respects them respects every one. The kept
members, its generators, top no row, and commutation is checked on their
pairs alone. Maximal contexts come from a pivoted Bron-Kerbosch search
over int-bitset neighbourhoods, on an explicit stack, returning int
cliques and refusing more than MAX_CONTEXTS. They share one vertex table,
each distinct observable with its packed vector read once; a clique takes
its members and its rank from it at once, and is closed only when its
relations are first read, so a solver that stops early closes few.

Membership and inclusion are projective and answered by the
:class:`~contextua.pauli.PauliBasis` of the generators, built on the first
query. :func:`~contextua.stabilizer.make_stabilizer` checks a stabilizer
group's generators with the same generator-pair check.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .gf2 import Basis, rank, set_bits
from .pauli import PauliBasis, PauliOperator, circuit_sign, commutes

# The clique search refuses inputs with more maximal contexts than this; all
# 255 four-qubit Paulis have 2295.
MAX_CONTEXTS = 10_000


class NonCommutingGeneratorsError(ValueError):
    """A context was requested for observables that do not pairwise commute."""


class MinusIdentityError(ValueError):
    """The generated group contains minus the identity, so no valuation exists."""


class ContextBudgetError(ValueError):
    """An observable set has more maximal contexts than MAX_CONTEXTS."""


class ContextGroup:
    """The abelian group generated by commuting Hermitian observables.

    Attributes:
        members: the named observables (canonical positive, deduplicated,
            sorted by body string).
        width: the number of qubits.
        rank: the number of independent members.
        relations: one int row per member that is a product of earlier
            ones, in member order: its fundamental circuit over the greedy
            independent subset of members, bit i naming ``members[i]``, so
            the row's top bit is that member itself.
        signs: bit r is the sign bit of row r: the product of the row's
            members is (-1)^bit times the identity.

    The members that top no row are the ``generators``: they generate a
    group of exactly 2 ** rank elements that never contains minus the
    identity. Their :class:`~contextua.pauli.PauliBasis`, which answers
    membership, is built on the first query and kept.

    Construct through :func:`close_context` or :func:`maximal_contexts`;
    the constructor assumes its arguments are validated and canonical.
    Given relations and signs, a context is closed and its rank is read off
    them. Given only a rank, as :func:`maximal_contexts` gives it, the
    members are closed by :func:`_insert` on the first read of
    ``relations`` or ``signs``, once; independent members, as many as the
    rank, need no closing and have no relations.
    """

    __slots__ = ("members", "width", "rank", "_relations", "_signs", "_basis")

    def __init__(
        self,
        members: tuple[PauliOperator, ...],
        width: int,
        relations: tuple[int, ...] | None = None,
        signs: int = 0,
        rank: int | None = None,
    ) -> None:
        self.members = members
        self.width = width
        self._relations = relations
        self._signs = signs
        self._basis: PauliBasis | None = None
        if relations is not None:
            self.rank = len(members) - len(relations)
        elif rank is None:
            raise ValueError("a context needs its relations or its rank")
        else:
            self.rank = rank

    def _find_relations(self) -> None:
        """Find the relations and signs of a context given its rank alone."""
        if self.rank == len(self.members):  # independent members: no relation
            self._relations, self._signs = (), 0
        else:
            self._relations, self._signs, _ = _insert(self.members)

    @property
    def relations(self) -> tuple[int, ...]:
        if self._relations is None:
            self._find_relations()
        return self._relations

    @property
    def signs(self) -> int:
        if self._relations is None:
            self._find_relations()
        return self._signs

    @property
    def generators(self) -> tuple[PauliOperator, ...]:
        dependent = 0
        for row in self.relations:
            dependent |= 1 << row.bit_length() - 1
        return tuple(op for i, op in enumerate(self.members) if not dependent >> i & 1)

    @property
    def group_order(self) -> int:
        return 1 << self.rank

    @property
    def basis(self) -> PauliBasis:
        """The PauliBasis of the generators, built once, on first use."""
        if self._basis is None:
            self._basis = PauliBasis(self.width, self.generators)
        return self._basis

    def decompose(self, op: PauliOperator) -> tuple[tuple[PauliOperator, ...], int] | None:
        """Express op over the generators, with the realized sign.

        Returns (chosen, sign_bit), the generators whose product in generator
        order is (-1)^sign_bit times the canonical representative of op, or
        None when op is not in the group projectively. A non-Hermitian op is
        passed on as it is, so PauliBasis.decompose refuses it.
        """
        return self.basis.decompose(op.canonical() if op.is_hermitian else op)

    def is_subgroup_of(self, other: "ContextGroup") -> bool:
        """Projective inclusion: every generator lies in the other group."""
        if self.width != other.width:
            return False
        return all(other.decompose(g) is not None for g in self.generators)

    def __repr__(self) -> str:
        names = ", ".join(op.body() for op in self.members)
        return f"ContextGroup([{names}])"


def close_context(gens: Iterable[PauliOperator], *, width: int | None = None) -> ContextGroup:
    """Close a commuting Hermitian generating set into a ContextGroup.

    Generators are deduplicated by body string and canonicalized to
    the positive representative; the relation set then carries all signs. A
    pair of generators with equal body but opposite signs, or an explicit
    negative identity operator, puts -I in the group and is rejected because
    such a context has an empty spectrum. One phase excess per generator
    decides these, naming the first offender; commutation is checked last.
    """
    ops = list(gens)
    if not ops and width is None:
        raise ValueError("empty generator list needs an explicit width")
    w = width if width is not None else ops[0].width
    excesses: dict[str, int] = {}
    given: list[PauliOperator] = []
    for op in ops:
        if op.width != w:
            raise ValueError(f"width mismatch: {op.width} vs {w}")
        excess = op.phase_excess
        if excess & 1:
            raise ValueError(f"non-Hermitian generator: {op!r}")
        if op.is_identity_class:
            if excess:
                raise MinusIdentityError("generator is minus the identity")
            continue
        body = op.body()
        known = excesses.get(body)
        if known is None:
            excesses[body] = excess
            given.append(op.negate() if excess else op)
        elif known != excess:
            raise MinusIdentityError(f"generators include both +{body} and -{body}")
    members = sorted(given, key=PauliOperator.body)
    rows, signs, kept = _insert(members)
    _check_commuting([members[i] for i in kept], w, given)
    return ContextGroup(tuple(members), w, rows, signs)


def _insert(ops: Sequence[PauliOperator]) -> tuple[tuple[int, ...], int, list[int]]:
    """Stream ops through one GF(2) basis, with one relation row per op it does not keep.

    Op i is named by bit i in the basis, so each circuit is already a row
    over the positions of ops. Returns (rows, signs, kept): per op not kept,
    its fundamental circuit, the kept ops it names and itself (its top bit);
    bit r of signs, the sign of row r, meaningful once the ops commute, from
    the sign-only fold; and the positions of the kept ops, the generators.
    """
    basis = Basis()
    rows: list[int] = []
    signs = 0
    kept: list[int] = []
    for i, op in enumerate(ops):
        remainder, circuit = basis.add(op.packed(), 1 << i)
        if remainder:
            kept.append(i)
        else:
            signs |= circuit_sign(ops, circuit, op) << len(rows)
            rows.append(circuit | 1 << i)
    return tuple(rows), signs, kept


def _check_commuting(
    generators: Sequence[PauliOperator], width: int, given: Sequence[PauliOperator]
) -> None:
    """Raise NonCommutingGeneratorsError unless given, which the generators span, commutes.

    The symplectic form is bilinear, so checking the generator pairs suffices;
    on failure the given pairs are scanned in order to name the first.
    """
    vectors = [g.packed() for g in generators]
    swapped = [g.z_bits | g.x_bits << width for g in generators]
    pairs = ((v, s) for i, v in enumerate(vectors) for s in swapped[:i])
    if any((v & s).bit_count() & 1 for v, s in pairs):
        for i, p in enumerate(given):
            for q in given[i + 1 :]:
                if not commutes(p, q):
                    raise NonCommutingGeneratorsError(
                        f"{p.body()} and {q.body()} do not commute"
                    )


def commutation_graph(obs: Sequence[PauliOperator]) -> list[int]:
    """Int-bitset neighbourhoods: bit j of entry i iff i != j and obs[i], obs[j] commute."""
    neighbours = [0] * len(obs)
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if commutes(obs[i], obs[j]):
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
    return neighbours


def _maximal_cliques(neighbours: Sequence[int]) -> list[int]:
    """All maximal cliques as int bitsets, by Bron-Kerbosch with Tomita pivoting.

    Neighbourhoods and vertex sets are int bitsets (bit v is vertex v). Each
    step branches only on the candidates outside the neighbourhood of a
    pivot that has the most neighbours among the candidates, the lowest
    such vertex (Tomita, Tanaka and Takahashi, TCS 363, 2006), so the search
    takes O(3^(n/3)) steps at worst. It runs on an explicit stack, so it has
    no recursion-depth limit, and it never pushes a dead end, a child with
    no candidates left that an excluded vertex extends. Cliques come in the
    order the recursion finds them. More than MAX_CONTEXTS cliques raise
    ContextBudgetError.
    """
    cliques: list[int] = []
    stack = [(0, (1 << len(neighbours)) - 1, 0)] if neighbours else []
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            cliques.append(clique)
            if len(cliques) > MAX_CONTEXTS:
                raise ContextBudgetError(
                    f"more than {MAX_CONTEXTS} maximal contexts; "
                    "the clique search stops at that budget"
                )
            continue
        pool = candidates | excluded
        pivot, most, size = 0, -1, candidates.bit_count()
        while pool:
            low = pool & -pool
            pool ^= low
            covered = neighbours[low.bit_length() - 1] & candidates
            count = covered.bit_count()
            if count > most:
                pivot, most = covered, count
                if count == size:  # none covers more: the lowest such is the pivot
                    break
        # Children are pushed highest vertex first, each without the branch
        # vertices below it, so they pop lowest first, as the recursion runs.
        branch = candidates & ~pivot
        while branch:
            v = branch.bit_length() - 1
            branch ^= 1 << v
            near = neighbours[v]
            below, beside = candidates & ~branch & near, (excluded | branch) & near
            if below or not beside:
                stack.append((clique | 1 << v, below, beside))
    return cliques


def maximal_contexts(obs: Sequence[PauliOperator]) -> list[ContextGroup]:
    """One context per maximal clique of the commutation graph, closed when first read.

    Each input observable is validated and canonicalized by one phase excess,
    deduplicated and sorted by its kept body; that sorted list is the vertex
    table, and each vertex's packed vector is read once, beside it. Each int
    clique reads its members off its bits in body order, and its rank from
    one :func:`~contextua.gf2.rank` pass over its vectors; its relations
    and signs wait until something reads them, as the global-section stream
    does context by context. Contexts come in lexicographic order of their
    member body strings, so runs agree.
    """
    unique: list[PauliOperator] = []
    seen: set[str] = set()
    for op in obs:
        excess = op.phase_excess
        if excess & 1:
            raise ValueError(f"non-Hermitian observable: {op!r}")
        body = op.body()
        if body not in seen:
            seen.add(body)
            unique.append(op.negate() if excess else op)
    if not unique:
        return []
    widths = {op.width for op in unique}
    if len(widths) > 1:
        raise ValueError(f"mixed widths in observable set: {sorted(widths)}")
    # Indexed in body order, bit lists order like their contexts' members; the
    # identity lies in every clique, so dropping it changes no comparison.
    unique.sort(key=PauliOperator.body)
    vectors = [op.packed() for op in unique]
    member, vector = unique.__getitem__, vectors.__getitem__
    width = unique[0].width
    contexts = []
    for clique in sorted(set_bits(c) for c in _maximal_cliques(commutation_graph(unique))):
        if not vectors[clique[0]]:  # the identity, which can only come first
            del clique[0]
        # No relations yet: they are found when first read.
        members = tuple(map(member, clique))
        contexts.append(ContextGroup(members, width, None, 0, rank(map(vector, clique))))
    return contexts


def _close(members: Sequence[PauliOperator], width: int) -> ContextGroup:
    """The context of unchecked distinct canonical members, sorted by body, closed at once.

    An identity member, which can only come first, is dropped.
    """
    if members and members[0].is_identity_class:
        members = members[1:]
    rows, signs, _ = _insert(members)
    return ContextGroup(tuple(members), width, rows, signs)
