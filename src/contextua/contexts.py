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
operator builds once and keeps. Closing a context is one pass over its
generators: each one's phase excess, computed once, validates, signs and
canonicalises it, and the first copy of its vector is reduced, unsigned,
under the highest-bit rule, for the rank and the kept generators, on whose
pairs alone commutation is checked. The relations wait for a reader: the
sorted members stream once through one signed pivot table,
:func:`~contextua.pauli.reduce_signed`, which folds the phase of each
member's product while it reduces the member. Each member it does not
keep yields one relation, its fundamental circuit, signed by that fold.
These relations are a basis of all product constraints of the context,
so any valuation that respects them respects every one. Maximal contexts
are the maximal cliques of the commutation graph, found by one of two
exact searches that return int cliques and refuse more than MAX_CONTEXTS.
Up to four qubits, when the Lagrangian subspaces number at most 53 per
distinct observable, the cliques are read off constant tables of those
subspaces, with no graph built: every maximal clique is the set of
vertices in one of them, and a set is maximal exactly when the number of
them that give it is the number that hold its span, whose rank a table of
subset ranks gives. Otherwise a pivoted Bron-Kerbosch search runs on an
explicit stack over int-bitset neighbourhoods, built from coordinate masks.

Every context carries ``names``, the bodies of its members in member
order, which is all the global-section columns and the report read of
it. Both builders give deferred contexts; :meth:`ContextGroup.rows`
yields a context's relations named by the global-section columns, so a
solver that stops early reduces few contexts.
"""
from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .gf2 import set_bits
from .pauli import (
    NonCommutingGeneratorsError,
    PauliOperator,
    commutes,
    reduce_signed,
)

# The clique search refuses inputs with more maximal contexts than this; all
# 255 four-qubit Paulis have 2295.
MAX_CONTEXTS = 10_000


class MinusIdentityError(ValueError):
    """The generated group contains minus the identity, so no valuation exists."""


class ContextBudgetError(ValueError):
    """An observable set has more maximal contexts than MAX_CONTEXTS."""


class ContextGroup:
    """The abelian group generated by commuting Hermitian observables.

    Attributes:
        members: the named observables (canonical positive, deduplicated,
            sorted by body string).
        names: their bodies, in member order: the context's names for its
            members, as the global-section columns and the report read them.
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
    identity.

    Construct through :func:`close_context` or :func:`maximal_contexts`. A
    context has one of two shapes. A closed context is
    ``ContextGroup(members, width, relations, signs)``: the constructor
    assumes its arguments are validated and canonical, reads the rank off
    them and makes the names from the members unless they are given, as
    for an MBQC local context. A deferred context, as both builders give
    it, is made by :func:`_deferred` from its names, its rank and a lookup
    from each name to its member operator: its members are looked up on
    their first read, and the first read of ``relations`` or ``signs``
    takes both, once, from :meth:`rows` with member i named by bit i.
    :meth:`rows` gives the relations over column bits straight from the
    signed pass, closing nothing. Independent members, as many as the rank,
    have no relations.
    """

    __slots__ = ("_members", "names", "_lookup", "width", "rank", "_relations", "_signs")

    def __init__(
        self,
        members: tuple[PauliOperator, ...],
        width: int,
        relations: tuple[int, ...],
        signs: int = 0,
        names: tuple[str, ...] | None = None,
    ) -> None:
        self._members = members
        self.names = tuple([op.body() for op in members]) if names is None else names
        self._lookup = None
        self.width = width
        self._relations = relations
        self._signs = signs
        self.rank = len(self.names) - len(relations)

    @property
    def members(self) -> tuple[PauliOperator, ...]:
        if self._members is None:
            self._members = tuple(map(self._lookup.__getitem__, self.names))
        return self._members

    def _find_relations(self) -> None:
        """Read the relations and signs of a deferred context off its signed pass."""
        rows: list[int] = []
        if self.rank < len(self.names):  # independent members have no relation
            for row, sign in self.rows([1 << i for i in range(len(self.names))]):
                self._signs |= sign << len(rows)
                rows.append(row)
        self._relations = tuple(rows)

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

    def rows(self, columns: Iterable[int]) -> Iterable[tuple[int, int]]:
        """(row, sign bit) per relation, member i named by the i-th bit of columns.

        A context given one all-members relation (an MBQC local context)
        yields the sum of the columns; any other, its signed pass, which
        reduces the members only as far as its rows are read.
        """
        relations = self._relations
        if relations and relations[0] + 1 == 1 << len(self.names):
            return ((sum(columns), self._signs),)
        return reduce_signed({}, self.members, columns)

    @property
    def generators(self) -> tuple[PauliOperator, ...]:
        dependent = 0
        for row in self.relations:
            dependent |= 1 << row.bit_length() - 1
        return tuple(op for i, op in enumerate(self.members) if not dependent >> i & 1)

    @property
    def group_order(self) -> int:
        return 1 << self.rank

    def __repr__(self) -> str:
        return f"ContextGroup([{', '.join(self.names)}])"


def close_context(gens: Iterable[PauliOperator], *, width: int | None = None) -> ContextGroup:
    """Validate a commuting Hermitian generating set into a deferred ContextGroup.

    Generators are deduplicated by body string and canonicalized to
    the positive representative; the relation set then carries all signs. A
    pair of generators with equal body but opposite signs, or an explicit
    negative identity operator, puts -I in the group and is rejected because
    such a context has an empty spectrum. Each generator's phase excess,
    from its fields, names the first offender; commutation is checked last,
    on the generators that the same loop keeps while it reduces each new
    vector, unsigned, for the rank. The context is deferred (:func:`_deferred`).
    """
    ops = list(gens)
    if not ops and width is None:
        raise ValueError("empty generator list needs an explicit width")
    w = width if width is not None else ops[0].width
    excesses: dict[str, int] = {}
    given: dict[str, PauliOperator] = {}  # canonical generators by body, as given
    pivots: dict[int, int] = {}
    kept: list[PauliOperator] = []
    for op in ops:
        if op.width != w:
            raise ValueError(f"width mismatch: {op.width} vs {w}")
        x, z = op.x_bits, op.z_bits
        excess = (op.phase_exp - (x & z).bit_count()) & 3
        if excess & 1:
            raise ValueError(f"non-Hermitian generator: {op!r}")
        if not x | z:
            if excess:
                raise MinusIdentityError("generator is minus the identity")
            continue
        body = op._body or op.body()
        known = excesses.get(body)
        if known is None:
            excesses[body] = excess
            given[body] = canonical = op.negate() if excess else op
            vector = x | z << w
            while vector:
                pivot = pivots.get(vector.bit_length())
                if pivot is None:
                    pivots[vector.bit_length()] = vector
                    kept.append(canonical)
                    break
                vector ^= pivot
        elif known != excess:
            raise MinusIdentityError(f"generators include both +{body} and -{body}")
    _check_commuting(kept, w, list(given.values()))
    return _deferred(tuple(sorted(given)), w, len(kept), given)


def _deferred(
    names: tuple[str, ...], width: int, rank: int, lookup: Mapping[str, PauliOperator]
) -> ContextGroup:
    """A deferred context: its names, its rank and the lookup of its members, built unchecked.

    The caller has found the rank and canonical members for every name, so
    only a missing lookup or rank raises ValueError; members, relations and
    signs wait for their first read.
    """
    if lookup is None or rank is None:
        raise ValueError("a deferred context needs its rank and the lookup of its members")
    ctx = object.__new__(ContextGroup)
    ctx._members = None
    ctx.names = names
    ctx._lookup = lookup
    ctx.width = width
    ctx.rank = rank
    ctx._relations = None
    ctx._signs = 0
    return ctx


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
    """Int-bitset neighbourhoods: bit j of entry i iff i != j and obs[i], obs[j] commute.

    Built from 2n coordinate masks: bit i of has[k] is bit k of obs[i]'s
    packed vector. The symplectic form of two operators is the parity of
    one's packed vector AND the other's swapped one (z | x << n), so the
    vertices that anticommute with obs[i] are the XOR of has[k] over the set
    bits k of its swapped vector, and its neighbours are all vertices but
    those and itself. Mixed widths raise ValueError.
    """
    if not obs:
        return []
    width = _common_width(obs)
    has = _coordinate_masks([op.packed() for op in obs], width)
    everyone = (1 << len(obs)) - 1
    neighbours = []
    for i, op in enumerate(obs):
        swapped, others = op.z_bits | op.x_bits << width, everyone ^ 1 << i
        while swapped:
            low = swapped & -swapped
            others ^= has[low.bit_length() - 1]
            swapped ^= low
        neighbours.append(others)
    return neighbours


def _common_width(obs: Sequence[PauliOperator]) -> int:
    """The width of a nonempty observable set; mixed widths raise ValueError."""
    widths = {op.width for op in obs}
    if len(widths) > 1:
        raise ValueError(f"mixed widths in observable set: {sorted(widths)}")
    return obs[0].width


def _coordinate_masks(vectors: Sequence[int], width: int) -> list[int]:
    """Bit i of entry k is bit k of vectors[i], for the 2 * width coordinates k."""
    has = [0] * (2 * width)
    for i, vector in enumerate(vectors):
        vertex = 1 << i
        while vector:
            low = vector & -vector
            has[low.bit_length() - 1] |= vertex
            vector ^= low
    return has


def _maximal_cliques(neighbours: Sequence[int]) -> list[int]:
    """All maximal cliques as int bitsets, by Bron-Kerbosch with Tomita pivoting.

    Neighbourhoods and vertex sets are int bitsets (bit v is vertex v). Each
    step branches only on the candidates outside the neighbourhood of a
    pivot that has the most neighbours among the candidates, the highest
    such vertex (Tomita, Tanaka and Takahashi, TCS 363, 2006), so the search
    takes O(3^(n/3)) steps at worst. It runs on an explicit stack, so it has
    no recursion-depth limit, and it never pushes a dead end, a child with
    no candidates left that an excluded vertex extends. Cliques come in the
    order the recursion that branches highest vertex first finds them: the
    order of the lowest-first recursion on the mirrored numbering. More than
    MAX_CONTEXTS cliques raise ContextBudgetError.

    A vertex adjacent to every other lies in every maximal clique (Kirby
    and Love, PRL 123, 200501, 2019), the identity among them. Such
    vertices start in the clique instead of among the candidates: the
    recursion would only peel them off one by one, each the one branch
    under a pivot that is itself, so the cliques and their order stay.
    """
    cliques: list[int] = []
    last = len(neighbours) - 1
    universal = sum(1 << v for v, near in enumerate(neighbours) if near.bit_count() == last)
    stack = [(universal, (1 << len(neighbours)) - 1 ^ universal, 0)] if neighbours else []
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
            u = pool.bit_length() - 1
            pool ^= 1 << u
            covered = neighbours[u] & candidates
            count = covered.bit_count()
            if count > most:
                pivot, most = covered, count
                if count == size:  # none covers more: the highest such is the pivot
                    break
        # Children are pushed lowest vertex first, each without the branch
        # vertices above it, so they pop highest first, as the recursion runs.
        branch = candidates & ~pivot
        while branch:
            low = branch & -branch
            branch ^= low
            near = neighbours[low.bit_length() - 1]
            rest, beside = candidates & ~branch & near, (excluded | branch) & near
            if rest or not beside:
                stack.append((clique | low, rest, beside))
    return cliques


# Widths whose Lagrangian subspaces are listed: every packed vector fits a byte.
_LAGRANGIAN_WIDTHS = 4

_LAGRANGIANS: dict[int, bytes] = {}
_LAGRANGIAN_ELEMENTS: dict[int, bytes] = {}
_SUBSET_RANKS: dict[int, bytes] = {}


def _echelon_bases(width: int) -> Iterator[tuple[int, list[int]]]:
    """Each subspace of GF(2)^width once, as (pivot mask, rows) in reduced echelon form.

    A row per pivot, its lowest set bit, clear at the other pivots and below
    its own, free at the other columns above; pivot masks ascend.
    """
    full = (1 << width) - 1
    for pivot_mask in range(full + 1):
        pivots = set_bits(pivot_mask)
        above = [(full ^ pivot_mask) & ~((2 << p) - 1) for p in pivots]
        fills = [[f for f in range(mask + 1) if not f & ~mask] for mask in above]
        for fill in product(*fills):
            yield pivot_mask, [1 << p | f for p, f in zip(pivots, fill)]


def _lagrangians(width: int) -> bytes:
    """The Lagrangian subspaces of GF(2)^(2 * width), width packed generators each.

    Each subspace L is listed once, by its X-projection W and the lifts of
    W's rows (Aaronson and Gottesman, quant-ph/0406196). W is taken in
    reduced echelon form, as :func:`_echelon_bases` lists it. L holds
    the Z-type vectors of W's annihilator, one per free column, and a lift
    (w, z) of each row w; z is fixed modulo the annihilator by the values
    z . w' over the rows w', and L is isotropic exactly when those values
    form a symmetric matrix. So there are prod_k (2^k + 1) subspaces: 3, 15,
    135 and 2,295 at widths 1 to 4. Vectors are packed as x | z << width;
    at widths up to _LAGRANGIAN_WIDTHS each is a byte. The table depends on
    the width alone; it is built on first use and kept.
    """
    table = _LAGRANGIANS.get(width)
    if table is not None:
        return table
    full = (1 << width) - 1
    entries = bytearray()
    for pivot_mask, rows in _echelon_bases(width):
        pivots = set_bits(pivot_mask)
        pairs = [(i, j) for i in range(len(pivots)) for j in range(i, len(pivots))]
        annihilator = [
            (1 << c | sum(1 << p for p, row in zip(pivots, rows) if row >> c & 1)) << width
            for c in set_bits(full ^ pivot_mask)
        ]
        for matrix in range(1 << len(pairs)):
            lifts = list(rows)
            for t, (i, j) in enumerate(pairs):
                if matrix >> t & 1:
                    lifts[i] ^= 1 << pivots[j] + width
                    if i != j:
                        lifts[j] ^= 1 << pivots[i] + width
            entries += bytes(annihilator + lifts)
    table = _LAGRANGIANS[width] = bytes(entries)
    return table


def _lagrangian_elements(width: int) -> bytes:
    """The nonzero elements of every Lagrangian subspace, one column per coordinate.

    Column m - 1, for m from 1 to 2^width - 1, holds element m of each
    subspace of :func:`_lagrangians`, in its order: the XOR of its
    generators g_k over the set bits k of m. Each column is one big-int XOR
    of two earlier ones, by a lowest-set-bit recurrence. 34,425 bytes at
    width 4, built on first use and kept.
    """
    table = _LAGRANGIAN_ELEMENTS.get(width)
    if table is None:
        generators = _lagrangians(width)
        count = len(generators) // width
        columns = [0]
        for m in range(1, 1 << width):
            low = m & -m
            g = int.from_bytes(generators[low.bit_length() - 1 :: width], "little")
            columns.append(columns[m ^ low] ^ g)
        table = b"".join(column.to_bytes(count, "little") for column in columns[1:])
        _LAGRANGIAN_ELEMENTS[width] = table
    return table


def _subset_ranks(width: int) -> bytes:
    """Byte s is the rank of the vectors m of GF(2)^width at the set bits m - 1 of s.

    A subset's rank is the least dimension of a subspace that holds it.
    Every subset starts at the width, and each proper subspace, the
    largest first, writes its dimension over every nonempty subset of its
    nonzero elements: 2,165 writes at width 4, where the table has 32,768
    bytes. Built on first use and kept.
    """
    table = _SUBSET_RANKS.get(width)
    if table is None:
        ranks = bytearray([width]) * (1 << (1 << width) - 1)
        ranks[0] = 0
        bases = sorted(_echelon_bases(width), key=lambda basis: -len(basis[1]))
        for _, rows in bases:
            if len(rows) == width:
                continue
            span = [0]
            for row in rows:
                span += [v ^ row for v in span]
            elements = sum(1 << v - 1 for v in span[1:])
            subset = elements
            while subset:
                ranks[subset] = len(rows)
                subset = subset - 1 & elements
        table = _SUBSET_RANKS[width] = bytes(ranks)
    return table


def _lagrangian_count(width: int) -> int:
    """The number of Lagrangian subspaces of GF(2)^(2 * width): prod_k (2^k + 1)."""
    return prod((1 << k) + 1 for k in range(1, width + 1))


def _lagrangian_cliques(vectors: Sequence[int], width: int) -> list[int]:
    """Each maximal clique of the commutation graph, as the key outside << 3 | rank.

    ``outside`` is the int bitset of the vertices outside the clique and
    ``rank`` the clique's rank. The keys ascend, so the cliques come in
    descending order of their int bitsets.

    Commuting vectors span an isotropic subspace, and every isotropic
    subspace lies in a Lagrangian L, so each maximal clique is the set of
    vertices in some L, and each such set T is a clique. Bit i of anti[g]
    is set when vertex i anticommutes with the packed vector g; anti is
    linear in g, so it is filled by a lowest-set-bit recurrence from the
    coordinate masks, and the vertices in L are those that commute with
    each of its generators. Each distinct T is counted over the Lagrangians
    that give it.

    The count and the rank decide maximality. Let W be the span of T, of
    dimension k, and N(k) = prod_{j=1}^{width-k} (2^j + 1) the number of
    Lagrangians that contain W (those of W^perp / W).
    - Every Lagrangian that gives T holds W, so the count is at most N(k).
    - If T is maximal, every Lagrangian that holds W meets the vertices in
      a clique that holds T, so it gives T: the count is N(k).
    - If T is not maximal, some vertex v outside T commutes with W, and v
      is not in W (W lies in L, which holds no vertex outside T). So
      W + <v> is isotropic and lies in a Lagrangian that holds W and gives
      a larger set: the count is less than N(k).
    So T is maximal exactly when its count is N(k), and its rank is k. At
    k = width, N(k) = 1: a set that spans its L is maximal.

    The rank needs no elimination. A 256-byte presence table, and one
    ``bytes.translate`` and one shift per column of the element table
    (:func:`_lagrangian_elements`), give, for each L, the set of its nonzero
    elements that are vertices, as a mask over its coordinates; the rank
    table (:func:`_subset_ranks`) reads off its rank, which is T's. The
    element table's columns 2^k - 1 are the generators, so the search
    reads no other table. More than MAX_CONTEXTS cliques raise
    ContextBudgetError, as the search does.
    """
    has = _coordinate_masks(vectors, width)
    swapped = has[width:] + has[:width]  # bit k of a vector meets bit k +- width
    anti = [0] * (1 << 2 * width)
    for g in range(1, len(anti)):
        low = g & -g
        anti[g] = anti[g ^ low] ^ swapped[low.bit_length() - 1]
    elements = _lagrangian_elements(width)
    count = len(elements) // ((1 << width) - 1)
    presence = bytearray(256)
    for v in vectors:
        presence[v] = 1
    presence[0] = 0  # the identity, a vertex in every set, spans nothing
    # Element m of each L at bit m - 1 of its mask: bits 0-7 and 8-14.
    lanes = [0, 0]
    for m in range(1, 1 << width):
        flags = elements[(m - 1) * count : m * count].translate(presence)
        lanes[m - 1 >> 3] |= int.from_bytes(flags, "little") << (m - 1 & 7)
    lows, highs = (lane.to_bytes(count, "little") for lane in lanes)
    ranks = _subset_ranks(width)
    # Element 2^k of each L is its generator k; below width 4 the missing
    # generators read as zero, which anticommutes with no vertex.
    spans = [
        elements[((1 << k) - 1) * count : (1 << k) * count] if k < width else bytes(count)
        for k in range(4)
    ]
    # Keyed by the vertices outside the set and its rank, which the set fixes.
    counts = Counter(
        (anti[a] | anti[b] | anti[c] | anti[d]) << 3 | ranks[high << 8 | low]
        for a, b, c, d, low, high in zip(*spans, lows, highs)
    )
    holding = [prod((2 << j) + 1 for j in range(width - k)) for k in range(width + 1)]
    keys = [key for key, found in counts.items() if found == holding[key & 7]]
    if len(keys) > MAX_CONTEXTS:
        raise ContextBudgetError(
            f"more than {MAX_CONTEXTS} maximal contexts; "
            "the clique search stops at that budget"
        )
    keys.sort()
    return keys


def maximal_contexts(obs: Sequence[PauliOperator]) -> list[ContextGroup]:
    """One deferred context per maximal clique of the commutation graph.

    Each input observable is validated and canonicalized by one phase excess,
    deduplicated and sorted by its kept body, descending; that sorted list
    is the vertex table, and each vertex's packed vector is read once,
    beside it. The cliques come from :func:`_lagrangian_cliques` when the
    width is at most four and there are at most 53 Lagrangian subspaces
    per distinct observable (every input of one or two qubits, three-qubit
    inputs of 3 or more observables, four-qubit inputs of 44 or more), and
    from the Tomita search over the commutation graph otherwise, which on
    this numbering visits cliques in the order the ascending one did, so an
    over-large input meets the budget at the same clique. Both give the
    same cliques; only the search builds the graph, and mixed widths are
    refused before either runs. Maximal cliques form an antichain, so the
    lexicographic order of their member body strings is the descending
    order of the clique ints, and each search hands its cliques over once,
    in that order. One walk per clique, from its highest bit down, takes
    its names (member bodies, from a bodies list beside the vertex table)
    in body order. The table path's keys give each clique, as the vertices
    outside it, and its rank. After the search the walk takes the rank too:
    it reduces each vector under the highest-bit rule of
    :class:`~contextua.gf2.Basis` until the rank reaches the width, the
    most that commuting members can span, and takes the rest by name
    alone. Each context is deferred (:func:`_deferred`): it keeps the map
    from body to canonical operator built here, shared by all, and its
    member operators, relations and signs wait until something reads them,
    as the global-section stream reads the rows of the contexts it reaches.
    Contexts come in lexicographic order, so runs agree.
    """
    seen: dict[str, PauliOperator] = {}
    for op in obs:
        excess = op.phase_excess
        if excess & 1:
            raise ValueError(f"non-Hermitian observable: {op!r}")
        body = op.body()
        if body not in seen:
            seen[body] = op.negate() if excess else op
    if not seen:
        return []
    bodies = sorted(seen, reverse=True)
    unique = [seen[body] for body in bodies]
    vectors = [op.packed() for op in unique]
    width = _common_width(unique)
    # The identity, when given, has the lowest body, so the top vertex; it
    # lies in every clique and is no member.
    identity = 0 if vectors[-1] else 1 << len(unique) - 1
    # The table costs about what the search does near 53 Lagrangians per
    # vertex: 40 to 44 members of four qubits.
    contexts = []
    if width <= _LAGRANGIAN_WIDTHS and _lagrangian_count(width) <= 53 * len(unique):
        members = (1 << len(unique)) - 1 ^ identity  # every vertex but the identity
        for key in _lagrangian_cliques(vectors, width):
            clique = members ^ key >> 3
            names = []
            while clique:
                v = clique.bit_length() - 1
                clique ^= 1 << v
                names.append(bodies[v])
            contexts.append(_deferred(tuple(names), width, key & 7, seen))
        return contexts
    for clique in sorted(_maximal_cliques(commutation_graph(unique)), reverse=True):
        clique ^= identity
        names = []
        pivots: dict[int, int] = {}
        while clique and len(pivots) < width:
            v = clique.bit_length() - 1
            clique ^= 1 << v
            names.append(bodies[v])
            vector = vectors[v]
            while vector:
                pivot = pivots.get(vector.bit_length())
                if pivot is None:
                    pivots[vector.bit_length()] = vector
                    break
                vector ^= pivot
        while clique:  # the rank is the width: the rest are names alone
            v = clique.bit_length() - 1
            clique ^= 1 << v
            names.append(bodies[v])
        contexts.append(_deferred(tuple(names), width, len(pivots), seen))
    return contexts
