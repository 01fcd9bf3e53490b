"""The spectral presheaf over measurement contexts.

Each context carries its spectrum: the set of multiplicative ±1 valuations
of its observables, encoded as bit assignments (value a means eigenvalue
(-1)^a). A valuation's value on a group element is the sign bit of the
element's decomposition over the generators plus their bits. Restriction
maps a valuation to any subcontext, that is, any context whose group lies
inside the valuation's context. A global section is a single bit
assignment over all named observables whose restriction to every
context is a valuation. Deciding whether one exists is one GF(2) system:
one variable per observable, one int row per context relation (bit c names
observable c) plus one unit row per pinned eigenvalue of a distinguished
state. A context holds its relations as such rows over its own members,
so they only change columns. A solution of the system is a global section,
and an inconsistency certificate for it, a set of rows that sums to 0 = 1,
is a Kochen-Specker style proof of contextuality, which
:func:`contextua.gf2.verify_certificate` checks exactly.

The system is built by one row stream. Its columns are numbered, and its
pins checked, before any row is built; then each context yields its rows
when the reader reaches it, and is closed only then. :func:`decide_global`
lets :func:`contextua.gf2.solve_rows` read the stream and stop at the
first inconsistent row, so a contradiction found among the first contexts
closes no later one; every command decides this way. No command calls
:func:`build_global_problem`, which collects the whole stream into the
matrix view, or :func:`solve_global`: they are the whole-system reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import gf2
from .contexts import ContextGroup
from .pauli import PauliOperator


class EmptySpectrumError(ValueError):
    """The context admits no valuation (minus the identity is a member)."""


class NotASubcontextError(ValueError):
    """Restriction target is not contained in the valuation's context."""


class UnknownConstrainedObservableError(ValueError):
    """A pinned observable does not occur in any provided context."""


@dataclass(eq=True)
class Valuation:
    """A point of one context's spectrum.

    values maps each member's body string to its bit a, meaning the member
    takes eigenvalue (-1)^a, as :attr:`GlobalSection.values` maps every
    observable. Construction validates that every relation of the context
    is respected, so a Valuation is multiplicative by construction.
    """

    context: ContextGroup
    values: dict[str, int]

    def __post_init__(self) -> None:
        if self.values.keys() != set(self.context.names):
            raise ValueError("valuation must cover exactly the context members")
        for bit in self.values.values():
            if bit not in (0, 1):
                raise ValueError(f"valuation bits must be 0 or 1, got {bit!r}")
        packed = sum(bit << i for i, bit in enumerate(self.bits))
        for r, row in enumerate(self.context.relations):
            if (packed & row).bit_count() & 1 != self.context.signs >> r & 1:
                raise ValueError(f"valuation violates relation {r} of {self.context!r}")

    @property
    def bits(self) -> tuple[int, ...]:
        """Values in member order (the context's sorted member tuple)."""
        return tuple(self.values[body] for body in self.context.names)

    def value_of(self, op: PauliOperator) -> int:
        """Bit assigned to any group element, signed operators included.

        Extends the member assignment multiplicatively through the group.
        Raises KeyError for operators outside the context.
        """
        decomposed = self.context.decompose(op)
        if decomposed is None:
            raise KeyError(f"{op} is not in this context")
        chosen, sign_bit = decomposed
        return (sign_bit + op.sign_bit + sum(self.values[g.body()] for g in chosen)) % 2


def spectrum(context: ContextGroup) -> tuple[Valuation, ...]:
    """All 2^g valuations of a context with g independent generators.

    Enumeration order is binary counting on the generator bits, generator 0
    taken as the most significant, so the order is reproducible.
    """
    if any(not row and context.signs >> r & 1 for r, row in enumerate(context.relations)):
        raise EmptySpectrumError("context contains minus the identity")
    g = context.rank
    # Generators and their bodies are read once: generator j is bit g - 1 - j.
    bit = {gen.body(): 1 << g - 1 - j for j, gen in enumerate(context.generators)}
    # Members always decompose; each is expressed once, as its index mask.
    forms = [(body, sign, sum(bit[gen.body()] for gen in chosen))
             for body, op in zip(context.names, context.members)
             for chosen, sign in [context.decompose(op)]]
    return tuple(
        Valuation(context=context, values={
            body: (sign + (idx & mask).bit_count()) % 2 for body, sign, mask in forms
        })
        for idx in range(1 << g)
    )


def restrict(valuation: Valuation, sub: ContextGroup) -> Valuation:
    """Restriction map of the presheaf: push a valuation down to a subcontext."""
    if not sub.is_subgroup_of(valuation.context):
        raise NotASubcontextError("target context is not contained in the source")
    values = {body: valuation.value_of(op) for body, op in zip(sub.names, sub.members)}
    return Valuation(context=sub, values=values)


@dataclass(slots=True, unsafe_hash=True)
class StateConstraint:
    """Pins one observable to a fixed eigenvalue bit: λ(O) = (-1)^value_bit.

    Signed operators are folded onto the canonical representative, so pinning
    -XYY to eigenvalue -1 is stored as XYY pinned to +1.
    """

    observable: PauliOperator
    value_bit: int

    def __post_init__(self) -> None:
        if self.value_bit not in (0, 1):
            raise ValueError("value_bit must be 0 or 1")
        excess = self.observable.phase_excess
        if excess & 1:
            raise ValueError("only Hermitian observables can be pinned")
        if excess:
            self.observable = self.observable.negate()
            self.value_bit ^= 1

    @classmethod
    def from_eigenvalue(cls, observable: PauliOperator, eigenvalue: int) -> "StateConstraint":
        if eigenvalue not in (1, -1):
            raise ValueError("eigenvalue must be +1 or -1")
        return cls(observable=observable, value_bit=0 if eigenvalue == 1 else 1)


@dataclass(eq=True)
class GlobalSection:
    """A global bit assignment restricting to a valuation in every context.

    values is keyed by observable body string in variable order; dimension is
    the GF(2) dimension of the full solution space the section was drawn from.
    """

    values: dict[str, int]
    dimension: int = 0

    def value_of(self, op: PauliOperator) -> int:
        return (self.values[op.body()] + op.sign_bit) % 2


class _GlobalRows:
    """The global-section system of contexts and pins, built as it is read.

    Construction makes one pass over every context's ``names``, numbering
    a column per observable body by first appearance (member order within
    each context), then checks every pin against those columns, so an
    unknown pin is refused before any row is built. The identity lies in
    every context but names no column: its pin is a row with no columns.
    Iterating yields (row, rhs bit), one row per context relation, context
    by context, then one per pin in the given order. A context is closed,
    and its names looked up as column bits, only when its first row is
    needed, and each row is recorded as it is yielded, so :meth:`system` is
    the system of every label and the rows read so far. A context whose one
    relation names all its members, as an MBQC local context's does, gives
    the sum of its distinct columns as that row, with no walk over its bits.
    """

    def __init__(
        self, contexts: Sequence[ContextGroup], constraints: Iterable[StateConstraint]
    ) -> None:
        if not contexts:
            raise ValueError("at least one context is required")
        widths = {c.width for c in contexts}
        if len(widths) > 1:
            raise ValueError(f"contexts of mixed widths: {sorted(widths)}")
        # Observable body -> its column's bit, numbered by first appearance.
        first_seen = dict.fromkeys(chain.from_iterable([ctx.names for ctx in contexts]))
        columns = {body: 1 << c for c, body in enumerate(first_seen)}
        identity = "I" * contexts[0].width
        pins: list[tuple[int, int]] = []
        for constraint in constraints:
            body = constraint.observable.body()
            bit = columns.get(body)
            if bit is None:
                if body != identity:
                    raise UnknownConstrainedObservableError(
                        f"pinned observable {body} does not occur in any context"
                    )
                bit = 0
            pins.append((bit, constraint.value_bit))
        self.labels = tuple(columns)
        self.rows: list[int] = []
        self._rhs = 0
        self._contexts = contexts
        self._columns = columns
        self._pins = pins

    def __iter__(self) -> Iterator[tuple[int, int]]:
        rows = self.rows
        column = self._columns.__getitem__
        for ctx in self._contexts:
            relations = ctx.relations
            if relations:
                signs = ctx.signs
                self._rhs |= signs << len(rows)  # system() drops bits of unread rows
                names = ctx.names
                if len(relations) == 1 and relations[0] + 1 == 1 << len(names):
                    row = sum(map(column, names))
                    rows.append(row)
                    yield row, signs
                    continue
                table = list(map(column, names))
                for relation in relations:
                    row = 0
                    while relation:
                        low = relation & -relation
                        row |= table[low.bit_length() - 1]
                        relation ^= low
                    rows.append(row)
                    yield row, signs & 1
                    signs >>= 1
        for row, bit in self._pins:
            self._rhs |= bit << len(rows)
            rows.append(row)
            yield row, bit

    def system(self) -> gf2.Gf2System:
        return gf2.Gf2System(
            matrix=gf2.BitMatrix(tuple(self.rows), len(self.labels)),
            rhs=self._rhs & (1 << len(self.rows)) - 1,
            labels=self.labels,
        )


def build_global_problem(
    contexts: Sequence[ContextGroup],
    constraints: Iterable[StateConstraint] = (),
) -> gf2.Gf2System:
    """The whole global-section decision problem as a GF(2) system.

    One variable per observable body (first appearance across the given
    contexts, member order within each); one row per context relation, then
    one pinned row per state constraint, in the given order. It collects
    every row of the stream :func:`decide_global` reads, closing every
    context. No command calls it; it is the whole-system reference.
    """
    stream = _GlobalRows(contexts, constraints)
    for _ in stream:
        pass
    return stream.system()


def decide_global(
    contexts: Sequence[ContextGroup],
    constraints: Iterable[StateConstraint] = (),
) -> tuple[gf2.Gf2System, GlobalSection | gf2.Certificate]:
    """Decide the global-section problem, building rows only as the solver reads them.

    :func:`contextua.gf2.solve_rows` reads the row stream that
    :func:`build_global_problem` collects and stops at the first
    inconsistent row, so no later row is built and no later context closed.
    Returns the system of every label and the rows read (all of them when a
    section exists) with the outcome :func:`solve_global` gives on the
    whole system: the solver's assignment, whose forward substitution
    gives the binary-lowest section.
    """
    stream = _GlobalRows(contexts, constraints)
    outcome = gf2.solve_rows(stream, len(stream.labels))
    problem = stream.system()
    if isinstance(outcome, gf2.Certificate):
        return problem, outcome
    return problem, _section(problem, outcome.assignment, outcome.dimension)


def solve_global(problem: gf2.Gf2System) -> GlobalSection | gf2.Certificate:
    """Decide a global-section problem built whole, as :func:`decide_global` does.

    Returns the binary-lowest satisfying assignment, which the solver's one
    forward substitution gives, as a GlobalSection, or the inconsistency
    Certificate naming the contradicting rows. No command calls it.
    """
    outcome = gf2.solve(problem)
    if isinstance(outcome, gf2.Certificate):
        return outcome
    return _section(problem, outcome.assignment, outcome.dimension)


def _section(problem: gf2.Gf2System, assignment: int, dimension: int) -> GlobalSection:
    """The GlobalSection of an assignment to problem's variables."""
    values = {label: assignment >> c & 1 for c, label in enumerate(problem.labels)}
    return GlobalSection(values=values, dimension=dimension)


def section_valuation(section: GlobalSection, context: ContextGroup) -> Valuation:
    """Restrict a global section to one context (raises if it fails to be one).

    Members are canonical, so each takes its name's value in the section.
    """
    values = {body: section.values[body] for body in context.names}
    return Valuation(context=context, values=values)
