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
operator builds once and keeps. Closing streams the sorted members once
through one :class:`~contextua.gf2.Basis`; each member it does not keep
yields one relation, its fundamental circuit: the kept members whose
product it is, and itself, signed by
:func:`~contextua.pauli.signed_circuit`. These relations are a basis of
all product constraints of the context, so any valuation that respects
them respects every one, and the relation set stays small. A context keeps only its members and these rows; the kept
members, its generators, are the members that top no row. Maximal
contexts come from a pivoted Bron-Kerbosch search over int-bitset
neighbourhoods, on an explicit stack, refusing more than MAX_CONTEXTS.

Membership and inclusion are projective and answered by the
:class:`~contextua.pauli.PauliBasis` of the generators, built on the first
query; a decomposition names the generators and signs them by the same
routine. :func:`~contextua.stabilizer.make_stabilizer` checks a stabilizer
group's generators with the same generator-pair check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .gf2 import Basis, set_bits
from .pauli import PauliBasis, PauliOperator, commutes, signed_circuit

# The clique search refuses inputs with more maximal contexts than this; all
# 255 four-qubit Paulis have 2295.
MAX_CONTEXTS = 10_000


class NonCommutingGeneratorsError(ValueError):
    """A context was requested for observables that do not pairwise commute."""


class MinusIdentityError(ValueError):
    """The generated group contains minus the identity, so no valuation exists."""


class ContextBudgetError(ValueError):
    """An observable set has more maximal contexts than MAX_CONTEXTS."""


@dataclass(eq=False, slots=True)
class ContextGroup:
    """The abelian group generated by commuting Hermitian observables.

    Attributes:
        members: the named observables (canonical positive, deduplicated,
            sorted by body string).
        width: the number of qubits.
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
    """

    members: tuple[PauliOperator, ...]
    width: int
    relations: tuple[int, ...]
    signs: int
    _basis: PauliBasis | None = field(default=None, init=False)

    @property
    def generators(self) -> tuple[PauliOperator, ...]:
        dependent = 0
        for row in self.relations:
            dependent |= 1 << row.bit_length() - 1
        return tuple(op for i, op in enumerate(self.members) if not dependent >> i & 1)

    @property
    def rank(self) -> int:
        return len(self.members) - len(self.relations)

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
    such a context has an empty spectrum.
    """
    ops = list(gens)
    if not ops and width is None:
        raise ValueError("empty generator list needs an explicit width")
    w = width if width is not None else ops[0].width
    seen_signs: dict[str, int] = {}
    given: list[PauliOperator] = []
    for op in ops:
        if op.width != w:
            raise ValueError(f"width mismatch: {op.width} vs {w}")
        if not op.is_hermitian:
            raise ValueError(f"non-Hermitian generator: {op!r}")
        if op.is_identity_class:
            if op.sign == -1:
                raise MinusIdentityError("generator is minus the identity")
            continue
        body = op.body()
        if body in seen_signs:
            if seen_signs[body] != op.sign:
                raise MinusIdentityError(f"generators include both +{body} and -{body}")
            continue
        seen_signs[body] = op.sign
        given.append(op.canonical())
    context = _close(sorted(given, key=PauliOperator.body), w)
    _check_commuting(context.generators, w, given)
    return context


def _close(members: Sequence[PauliOperator], width: int) -> ContextGroup:
    """The context of unchecked distinct canonical members, sorted by body.

    An identity member, which can only come first, is dropped.
    """
    if members and members[0].is_identity_class:
        members = members[1:]
    rows, signs = _insert(members)
    return ContextGroup(tuple(members), width, rows, signs)


def _insert(ops: Sequence[PauliOperator]) -> tuple[tuple[int, ...], int]:
    """Stream ops through one GF(2) basis, with one relation row per op it does not keep.

    Op i is named by bit i in the basis, so each circuit is already a row
    over the positions of ops. Returns (rows, signs): per op not kept, its
    fundamental circuit, the kept ops it names and itself (its top bit);
    and bit r of signs, the sign of row r, meaningful once the ops commute.
    """
    basis = Basis()
    rows: list[int] = []
    signs = 0
    for i, op in enumerate(ops):
        remainder, circuit = basis.add(op.packed(), 1 << i)
        if not remainder:
            signs |= signed_circuit(ops, circuit, op)[1] << len(rows)
            rows.append(circuit | 1 << i)
    return tuple(rows), signs


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


def _maximal_cliques(neighbours: Sequence[int]) -> list[frozenset[int]]:
    """All maximal cliques, by Bron-Kerbosch with Tomita pivoting.

    Neighbourhoods and vertex sets are int bitsets (bit v is vertex v). Each
    step branches only on the candidates outside the neighbourhood of a
    pivot that has the most neighbours among the candidates, the lowest
    such vertex (Tomita, Tanaka and Takahashi, TCS 363, 2006), so the search
    takes O(3^(n/3)) steps at worst. It runs on an explicit stack, so it has
    no recursion-depth limit. More than MAX_CONTEXTS cliques raise
    ContextBudgetError.
    """
    cliques: list[frozenset[int]] = []
    stack = [(0, (1 << len(neighbours)) - 1, 0)] if neighbours else []
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(frozenset(set_bits(clique)))
                if len(cliques) > MAX_CONTEXTS:
                    raise ContextBudgetError(
                        f"more than {MAX_CONTEXTS} maximal contexts; "
                        "the clique search stops at that budget"
                    )
            continue
        pool = candidates | excluded
        pivot, most = 0, -1
        while pool:
            low = pool & -pool
            pool ^= low
            covered = neighbours[low.bit_length() - 1] & candidates
            count = covered.bit_count()
            if count > most:
                pivot, most = covered, count
        # Children are pushed highest vertex first, each without the branch
        # vertices below it, so they pop lowest first, as the recursion runs.
        branch = candidates & ~pivot
        while branch:
            v = branch.bit_length() - 1
            branch ^= 1 << v
            near = neighbours[v]
            stack.append(
                (clique | 1 << v, candidates & ~branch & near, (excluded | branch) & near)
            )
    return cliques


def maximal_contexts(obs: Sequence[PauliOperator]) -> list[ContextGroup]:
    """One closed context per maximal clique of the commutation graph.

    Each input observable is validated, canonicalized and deduplicated once,
    sorted by its kept body, and every clique is closed on those shared
    operators. Contexts come in lexicographic order of their member body
    strings, so runs agree.
    """
    unique: list[PauliOperator] = []
    seen: set[str] = set()
    for op in obs:
        if not op.is_hermitian:
            raise ValueError(f"non-Hermitian observable: {op!r}")
        body = op.body()
        if body not in seen:
            seen.add(body)
            unique.append(op.canonical())
    if not unique:
        return []
    widths = {op.width for op in unique}
    if len(widths) > 1:
        raise ValueError(f"mixed widths in observable set: {sorted(widths)}")
    # Indexed in body order, sorted cliques order like their contexts' members;
    # the identity lies in every clique, so dropping it changes no comparison.
    unique.sort(key=PauliOperator.body)
    cliques = sorted(sorted(clique) for clique in _maximal_cliques(commutation_graph(unique)))
    return [_close([unique[i] for i in clique], unique[0].width) for clique in cliques]
