"""Linear algebra over GF(2) on packed ints.

A bit vector is a Python int whose bit c is entry c, and a matrix is a
:class:`BitMatrix` of such rows. A system's right-hand side holds bit r for
row r, a solution bit c for variable c, and a certificate names its rows
by index.

:class:`Basis` is the one elimination routine. Vectors are inserted one at
a time; each is reduced against a pivot table keyed by lowest set bit and
kept when something is left, so the kept vectors are the greedy basis of
the insertion order. Every reduced vector carries its combination over
the kept ones, at most rank bits wide, so a dependent vector yields its
fundamental circuit (the unique kept vectors that sum to it) directly.
One back substitution turns the table into reduced row-echelon form.
``pauli.PauliBasis`` (and through it ``contexts.close_context`` and
``stabilizer``), :func:`solve` and :func:`rref` all run on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence


def set_bits(bits: int) -> Iterator[int]:
    """The indices of the set bits of an int, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class BitMatrix:
    """A matrix over GF(2): row r is an int holding column c at bit c."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0 or any(row < 0 or row >> self.cols for row in self.rows):
            raise ValueError(f"rows must be bit sets below column {self.cols}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.cols


class Basis:
    """The greedy basis of a stream of GF(2) vectors.

    Kept vector j is stored reduced against the ones kept before it, under
    its lowest set bit (its pivot), together with its combination: the bit
    set over kept vectors whose sum it is, holding bit j itself. Reducing a
    vector clears its lowest bit with the row stored there until no row is,
    at one XOR per pivot met.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[int, int]] = {}

    def reduce(self, vector: int) -> tuple[int, int]:
        """(remainder, combination) of vector against the kept vectors.

        The remainder is 0 exactly when vector lies in their span; vector is
        then the sum of the kept vectors that the combination selects.
        """
        combination = 0
        rows = self._rows
        while vector:
            entry = rows.get(vector & -vector)
            if entry is None:
                break
            vector ^= entry[0]
            combination ^= entry[1]
        return vector, combination

    def add(self, vector: int) -> tuple[int, int]:
        """Reduce vector, keeping it when a remainder is left.

        Returns :meth:`reduce`'s (remainder, combination). For a vector that
        is not kept, the combination plus the vector itself is its
        fundamental circuit in the binary matroid of the stream.
        """
        remainder, combination = self.reduce(vector)
        if remainder:
            self._rows[remainder & -remainder] = (remainder, combination | 1 << len(self._rows))
        return remainder, combination

    def reduced_rows(self) -> list[tuple[int, int, int]]:
        """(pivot, row, combination) per kept vector, in pivot order.

        Back substitution, from the highest pivot down, clears every other
        pivot from each row, so the rows are the reduced row-echelon form of
        the span and each combination still selects the kept vectors that
        sum to its row.
        """
        done: dict[int, tuple[int, int]] = {}
        later = 0
        for low in sorted(self._rows, reverse=True):
            row, combination = self._rows[low]
            hits = row & later
            while hits:
                bit = hits & -hits
                finished, selected = done[bit]
                row ^= finished
                combination ^= selected
                hits ^= bit
            done[low] = (row, combination)
            later |= low
        return [(low.bit_length() - 1, *done[low]) for low in sorted(done)]


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the row transform producing it.

    Row r of rows holds reduced row r below bit cols and, from bit cols up,
    the transform row that selects the input rows summing to it. The pivot
    rows come first; then each dependent input row, in input order, with
    its fundamental circuit as transform and no reduced bits.
    """

    reduced: BitMatrix
    pivots: tuple[int, ...]
    rows: Sequence[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(matrix: BitMatrix) -> RrefResult:
    """Gauss-Jordan elimination over GF(2), by one pass of a :class:`Basis`.

    Reduced row r is the sum of the input rows that the transform bits of
    rows[r] select, and the transform is invertible. Rows at index >= rank
    of the reduced matrix are zero, and their transform bits form a basis
    of the left nullspace of the input.
    """
    cols = matrix.cols
    basis = Basis()
    kept: list[int] = []
    dependent: list[int] = []
    for r, row in enumerate(matrix.rows):
        remainder, combination = basis.add(row)
        if remainder:
            kept.append(1 << cols + r)
        else:
            dependent.append(sum(kept[j] for j in set_bits(combination)) | 1 << cols + r)
    reduced = basis.reduced_rows()
    rows = [row | sum(kept[j] for j in set_bits(c)) for _, row, c in reduced] + dependent
    mask = (1 << cols) - 1
    return RrefResult(
        reduced=BitMatrix(tuple(row & mask for row in rows), cols),
        pivots=tuple(pivot for pivot, _, _ in reduced),
        rows=rows,
    )


@dataclass(frozen=True)
class Gf2System:
    """A linear system A x = b over GF(2) with labelled columns.

    Labels name the variables (one hashable label per column, pairwise
    distinct); rows are the constraints, and bit r of rhs is row r's
    right-hand side.
    """

    matrix: BitMatrix
    rhs: int
    labels: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if self.rhs < 0 or self.rhs >> self.num_rows:
            raise ValueError(f"rhs must be a bit set below row {self.num_rows}")
        if len(self.labels) != self.num_vars:
            raise ValueError("one label per column required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_rows(self) -> int:
        return len(self.matrix.rows)

    @property
    def num_vars(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class Certificate:
    """A proof that a GF(2) system is unsolvable.

    The selected rows (ascending row indices) of the coefficient matrix sum
    to the zero vector while their right-hand-side bits sum to 1, exhibiting
    0 = 1. :func:`solve` selects the fundamental circuit of the first row k
    whose prefix, rows 0..k, is inconsistent: row k and the unique rows of
    the greedy basis of rows 0..k-1 that sum to its left-hand side. So the
    certificate depends on the system and its row order alone, and no
    proper subset of it sums to zero.
    """

    selected: tuple[int, ...]


@dataclass(frozen=True)
class Gf2Solution:
    """A particular solution plus a basis of the homogeneous solution space.

    Bit c of the assignment and of each nullspace row is variable c.
    """

    assignment: int
    nullspace: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.nullspace)


def solve(system: Gf2System) -> Gf2Solution | Certificate:
    """Solve a labelled GF(2) system; inconsistency is a value, not an error.

    Rows stream into one :class:`Basis` with their right-hand side at bit
    num_vars, so a row whose left-hand side reduces to zero leaves 1 there
    exactly when the rows up to it are inconsistent. The first such row
    stops the pass, and its fundamental circuit is the :class:`Certificate`.
    Otherwise one back substitution gives the solution: the assignment
    satisfies A x = b with free variables fixed to zero, and nullspace row i
    sets the i-th free variable and the pivot variables that match it.
    """
    cols = system.num_vars
    basis = Basis()
    kept: list[int] = []
    for r, row in enumerate(system.matrix.rows):
        remainder, combination = basis.add(row | (system.rhs >> r & 1) << cols)
        if remainder == 1 << cols:
            return Certificate(selected=(*(kept[j] for j in set_bits(combination)), r))
        if remainder:
            kept.append(r)
    reduced = basis.reduced_rows()
    pivots = {pivot for pivot, _, _ in reduced}
    nullspace = {c: 1 << c for c in range(cols) if c not in pivots}
    mask = (1 << cols) - 1
    assignment = 0
    for pivot, row, _ in reduced:
        assignment |= (row >> cols & 1) << pivot
        for c in set_bits((row & mask) ^ 1 << pivot):
            nullspace[c] |= 1 << pivot
    return Gf2Solution(assignment=assignment, nullspace=tuple(nullspace.values()))


def verify_certificate(system: Gf2System, certificate: Certificate) -> bool:
    """Re-sum the selected rows and check they exhibit 0 = 1."""
    if not all(0 <= r < system.num_rows for r in certificate.selected):
        raise ValueError("selected rows must be row indices of the system")
    lhs = rhs = 0
    for r in certificate.selected:
        lhs ^= system.matrix.rows[r]
        rhs ^= system.rhs >> r & 1
    return not lhs and rhs == 1


@dataclass(frozen=True)
class AffineForm:
    """An affine Boolean form o(i) = coefficients . i xor constant over Z_2^m."""

    coefficients: tuple[int, ...]
    constant: int

    def evaluate(self, bits: Sequence[int]) -> int:
        if len(bits) != len(self.coefficients):
            raise ValueError("input length does not match form arity")
        total = self.constant
        for coeff, bit in zip(self.coefficients, bits):
            total ^= coeff & bit
        return total


def input_vector(index: int, m: int) -> tuple[int, ...]:
    """Input bit-vector (i_1..i_m) for a table index, i_1 most significant."""
    return tuple((index >> (m - 1 - j)) & 1 for j in range(m))


def fit_affine(outputs: Sequence[int]) -> AffineForm | None:
    """Fit o(i) = a . i xor c to a complete truth table, or return None.

    The table holds 2^m output bits indexed in binary order (input bit i_1 is
    the most significant index bit). The only possible candidate is forced:
    c = o(0) and a_j = o(e_j) xor o(0); it is then verified on every input,
    where it predicts c xor the parity of the index bits that a selects.
    """
    table = tuple(outputs)
    size = len(table)
    m = size.bit_length() - 1
    if size == 0 or size != 1 << m:
        raise ValueError("table must hold exactly 2^m outputs")
    if not set(table) <= {0, 1}:
        raise ValueError("entries must be bits")
    c = int(table[0])
    a = tuple(int(table[1 << (m - 1 - j)]) ^ c for j in range(m))
    selected = sum(coeff << (m - 1 - j) for j, coeff in enumerate(a))
    if all(bit == c ^ ((index & selected).bit_count() & 1) for index, bit in enumerate(table)):
        return AffineForm(coefficients=a, constant=c)
    return None
