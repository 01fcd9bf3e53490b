"""Measurement contexts: abelian Pauli groups with sign-tracked relations.

A context is the group generated by a set of pairwise commuting Hermitian
observables. Observables are identified projectively (the canonical positive
representative); all sign information is carried by product relations, e.g.
the relation ({XYY, YXY, YYX, XXX}, sign_bit=1) records that the product of
those four observables is minus the identity. Everything here works on
packed symplectic ints. The context's :class:`~contextua.pauli.PauliBasis`
takes the sorted members in one pass; each member it does not keep yields
one relation, its fundamental circuit: the generators whose product it is,
and itself, signed by the basis's one signed-circuit routine. These
relations are a basis of all product constraints of the context, so any
valuation that respects them respects every one, and the relation set
stays small. Maximal contexts come from a pivoted Bron-Kerbosch search
over int-bitset neighbourhoods, on an explicit stack, which refuses inputs
with more than MAX_CONTEXTS of them.

Membership and inclusion are projective and answered by the same basis;
a decomposition names the generators and signs them by the same routine.
:func:`~contextua.stabilizer.make_stabilizer` closes a stabilizer group with
the same insertion pass and generator-pair check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import set_bits
from .pauli import PauliBasis, PauliOperator, commutes

# The clique search refuses inputs with more maximal contexts than this; all
# 255 four-qubit Paulis have 2295.
MAX_CONTEXTS = 10_000


class NonCommutingGeneratorsError(ValueError):
    """A context was requested for observables that do not pairwise commute."""


class MinusIdentityError(ValueError):
    """The generated group contains minus the identity, so no valuation exists."""


class ContextBudgetError(ValueError):
    """An observable set has more maximal contexts than MAX_CONTEXTS."""


@dataclass(frozen=True)
class Relation:
    """A product constraint inside one context.

    The product of the selected member observables (in a context, canonical
    positive representatives) equals (-1)^sign_bit times the identity.
    """

    members: tuple[PauliOperator, ...]
    sign_bit: int

    def __str__(self) -> str:
        product = " * ".join(op.body() for op in self.members)
        value = "-1" if self.sign_bit else "+1"
        return f"{product} = {value}"


def _sort_key(op: PauliOperator) -> int:
    """An int that orders like op.body(): qubit 0 first, I < X < Y < Z."""
    key = 0
    for k in range(op.width):
        z = op.z_bits >> k & 1
        key = key << 2 | z << 1 | z ^ (op.x_bits >> k & 1)
    return key


@dataclass(eq=False)
class ContextGroup:
    """The abelian group generated by commuting Hermitian observables.

    Attributes:
        members: the named observables (canonical positive, deduplicated,
            sorted by body string).
        basis: the greedy independent subset of members, as a PauliBasis;
            its ``generators`` generate a group of exactly 2 ** rank
            elements that never contains minus the identity.
        relations: one Relation per member outside the basis, in member
            order: its fundamental circuit, with the sign of its exact
            product.

    Construct through :func:`close_context` or :func:`maximal_contexts`;
    the constructor assumes its arguments are validated and canonical.
    """

    members: tuple[PauliOperator, ...]
    basis: PauliBasis
    relations: tuple[Relation, ...]

    @property
    def width(self) -> int:
        return self.basis.width

    @property
    def generators(self) -> tuple[PauliOperator, ...]:
        return self.basis.generators

    @property
    def rank(self) -> int:
        return self.basis.rank

    @property
    def group_order(self) -> int:
        return 1 << self.rank

    def decompose(self, op: PauliOperator) -> tuple[tuple[PauliOperator, ...], int] | None:
        """Express op over the generators, with the realized sign.

        Returns (chosen, sign_bit), the generators whose product in generator
        order is (-1)^sign_bit times the canonical representative of op, or
        None when op is not in the group projectively.
        """
        return self.basis.decompose(op.canonical())

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

    Generators are deduplicated by observable identity and canonicalized to
    the positive representative; the relation set then carries all signs. A
    pair of generators with equal identity but opposite signs, or an explicit
    negative identity operator, puts -I in the group and is rejected because
    such a context has an empty spectrum.
    """
    ops = list(gens)
    if not ops and width is None:
        raise ValueError("empty generator list needs an explicit width")
    w = width if width is not None else ops[0].width
    seen_signs: dict[tuple[int, int, int], int] = {}
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
        key = op.identity_key()
        if key in seen_signs:
            if seen_signs[key] != op.sign:
                raise MinusIdentityError(
                    f"generators include both +{op.body()} and -{op.body()}"
                )
            continue
        seen_signs[key] = op.sign
        given.append(op.canonical())
    context = _close(sorted(given, key=_sort_key), w)
    _check_commuting(context.basis, given)
    return context


def _close(members: Sequence[PauliOperator], width: int) -> ContextGroup:
    """The context of unchecked distinct canonical members, sorted by _sort_key.

    An identity member, which can only come first, is dropped.
    """
    if members and members[0].is_identity_class:
        members = members[1:]
    basis = PauliBasis(width)
    return ContextGroup(tuple(members), basis, relations=_insert(basis, members))


def _insert(basis: PauliBasis, ops: Iterable[PauliOperator]) -> tuple[Relation, ...]:
    """Add ops to the basis in order, with one Relation per op it does not keep.

    The relation is the op's fundamental circuit: the generators it names,
    lowest bit first, then the op, signed by ``basis.signed_circuit``; the
    sign is meaningful once the ops are known to commute.
    """
    relations = []
    for op in ops:
        circuit = basis.add(op)
        if circuit is not None:
            chosen, sign_bit = basis.signed_circuit(circuit, op)
            relations.append(Relation((*chosen, op), sign_bit))
    return tuple(relations)


def _check_commuting(basis: PauliBasis, given: Sequence[PauliOperator]) -> None:
    """Raise NonCommutingGeneratorsError unless given, which spans the basis, commutes.

    The symplectic form is bilinear, so checking the generator pairs suffices;
    on failure the given pairs are scanned in order to name the first.
    """
    vectors = [g.packed() for g in basis.generators]
    swapped = [g.z_bits | g.x_bits << basis.width for g in basis.generators]
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
    and every clique is closed on those shared operators. Contexts come in
    lexicographic order of their member body strings, so runs agree.
    """
    unique: list[PauliOperator] = []
    seen: set[tuple[int, int, int]] = set()
    for op in obs:
        if not op.is_hermitian:
            raise ValueError(f"non-Hermitian observable: {op!r}")
        key = op.identity_key()
        if key not in seen:
            seen.add(key)
            unique.append(op.canonical())
    if not unique:
        return []
    widths = {op.width for op in unique}
    if len(widths) > 1:
        raise ValueError(f"mixed widths in observable set: {sorted(widths)}")
    # Indexed in body order, sorted cliques order like their contexts' members;
    # the identity lies in every clique, so dropping it changes no comparison.
    unique.sort(key=_sort_key)
    cliques = sorted(sorted(clique) for clique in _maximal_cliques(commutation_graph(unique)))
    return [_close([unique[i] for i in clique], unique[0].width) for clique in cliques]
