"""Linear algebra over GF(2) on packed ints.

A bit vector is a Python int whose bit c is entry c, and a matrix is a
:class:`BitMatrix` of such rows. A system's right-hand side holds bit r for
row r, a solution bit c for variable c, and a certificate names its rows
by index.

:class:`Basis` eliminates GF(2) systems, with one pivot rule: a vector
pivots on its highest set bit. Vectors are inserted one at a time; each
is reduced against a pivot table keyed by highest set bit and kept when
something is left, so the kept vectors are the greedy basis of the
insertion order. The caller names each vector by one bit of its own
numbering, and every reduced vector carries its combination, the OR of
the names of the kept vectors that sum to it; so a dependent vector yields
its fundamental circuit directly, in the caller's numbering. Greedy bases
and fundamental circuits do not depend on the pivot rule. One back
substitution turns the table into reduced row-echelon form; only
:func:`rref` reads it. :func:`rref` (row r is bit cols + r) and
:func:`solve_rows` run on it; closing contexts and stabilizer groups
runs on the signed pivot table of ``pauli.reduce_signed``, under the same
rule. Only :func:`solve_rows` names kept row j by bit j: a bit per row
index would make every combination as wide as the rows streamed so far.

:func:`solve_rows` is the one solver loop. It reads (row, right-hand side)
pairs from any iterable, so a caller can build each row only when the loop
asks for it, and :func:`solve` feeds it a system's rows. Each row streams
shifted up one bit, with its right-hand side at bit 0, so a row pivots on
its last variable and a remainder of exactly 1 is 0 = 1; the loop stops
there and reads no further row. With those pivots each kept row holds its
pivot and lower variables only, so one forward substitution, in ascending
pivot order, gives the solution whose free variables are zero, which is
the binary-lowest one, with no back substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


def set_bits(bits: int) -> list[int]:
    """The indices of the set bits of an int, lowest first."""
    indices = []
    while bits:
        low = bits & -bits
        indices.append(low.bit_length() - 1)
        bits ^= low
    return indices


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

    Each kept vector is stored reduced against the ones kept before it,
    under its highest set bit (its pivot), with its combination: the OR of
    the names of the kept vectors whose sum it is, its own included. A name
    is the single bit the caller passes to :meth:`add`, a new one per vector.
    Reducing a vector clears its highest bit with the row stored there until
    no row is, at one XOR per pivot met.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[int, int]] = {}

    def add(self, vector: int, name: int) -> tuple[int, int]:
        """Reduce vector, keeping the remainder under name when one is left.

        Each step clears the highest set bit left with the kept vector that
        pivots there. Returns (remainder, combination); the remainder is 0
        exactly when vector is the sum of the kept vectors the combination
        selects, and with the vector itself they are its fundamental circuit
        in the binary matroid of the stream, whatever the pivot rule.
        """
        combination = 0
        rows = self._rows
        while vector:
            entry = rows.get(vector.bit_length())
            if entry is None:
                rows[vector.bit_length()] = (vector, combination | name)
                break
            vector ^= entry[0]
            combination ^= entry[1]
        return vector, combination

    def reduced_rows(self) -> list[tuple[int, int, int]]:
        """(pivot, row, combination) per kept vector, in ascending pivot order.

        Each row's pivot is its highest set bit. Back substitution, from the
        lowest pivot up, clears every lower pivot from each row, so the rows
        are the reduced row-echelon form of the span and each combination
        still names the kept vectors that sum to its row.
        """
        done: dict[int, tuple[int, int]] = {}
        earlier = 0
        for length in sorted(self._rows):
            row, combination = self._rows[length]
            hits = row & earlier
            while hits:
                bit = hits & -hits
                finished, selected = done[bit.bit_length()]
                row ^= finished
                combination ^= selected
                hits ^= bit
            done[length] = (row, combination)
            earlier |= 1 << length - 1
        return [(length - 1, row, combination) for length, (row, combination) in done.items()]


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the row transform producing it.

    Row r of rows holds reduced row r below bit cols and, from bit cols up,
    the transform row that selects the input rows summing to it. The pivot
    rows come first, in ascending pivot order; then each dependent input
    row, in input order, with its fundamental circuit as transform and no
    reduced bits.
    """

    reduced: BitMatrix
    pivots: tuple[int, ...]
    rows: Sequence[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(matrix: BitMatrix) -> RrefResult:
    """Gauss-Jordan elimination over GF(2), by one pass of a :class:`Basis`.

    Each pivot row pivots on its highest column, the one rule of
    :class:`Basis`, and no other pivot row holds that column. Reduced row r
    is the sum of the input rows that the transform bits of rows[r] select,
    and the transform is invertible. Rows at index >= rank of the reduced
    matrix are zero, and their transform bits form a basis of the sets of
    input rows that sum to zero. Input row r is named by bit cols + r, so each
    combination the basis returns is a transform row.
    """
    cols = matrix.cols
    basis = Basis()
    dependent: list[int] = []
    for r, row in enumerate(matrix.rows):
        remainder, combination = basis.add(row, 1 << cols + r)
        if not remainder:
            dependent.append(combination | 1 << cols + r)
    reduced = basis.reduced_rows()
    rows = [row | combination for _, row, combination in reduced] + dependent
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
    0 = 1. :func:`solve_rows` selects the fundamental circuit of the first
    row k whose prefix, rows 0..k, is inconsistent: row k and the unique rows of
    the greedy basis of rows 0..k-1 that sum to its left-hand side. So the
    certificate depends on the system and its row order alone, and no
    proper subset of it sums to zero.
    """

    selected: tuple[int, ...]


@dataclass(frozen=True)
class Gf2Solution:
    """The binary-lowest solution of a consistent system and its space's dimension.

    Bit c of the assignment is variable c. The dimension of the solution
    space is the number of variables minus the rank.
    """

    assignment: int
    dimension: int


def solve(system: Gf2System) -> Gf2Solution | Certificate:
    """Solve a labelled GF(2) system; inconsistency is a value, not an error.

    The system's rows, each with its right-hand-side bit, feed
    :func:`solve_rows`.
    """
    rhs = system.rhs
    pairs = ((row, rhs >> r & 1) for r, row in enumerate(system.matrix.rows))
    return solve_rows(pairs, system.num_vars)


def solve_rows(rows: Iterable[tuple[int, int]], cols: int) -> Gf2Solution | Certificate:
    """Solve the system whose rows, over cols variables, stream in as (row, rhs bit).

    Row r streams into one :class:`Basis` as ``row << 1`` with its
    right-hand side at bit 0, so variable c sits at bit c + 1 and each row
    pivots on its last variable. A row whose left-hand side reduces to zero
    leaves exactly 1 when the rows up to it are inconsistent. The first such
    row stops the pass, before the next row is read, and its fundamental
    circuit is the :class:`Certificate`, which no pivot rule changes. Kept
    row j is named by bit j, so a combination has at most rank bits;
    ``kept`` maps it to row indices.

    Otherwise one forward substitution gives the solution. Each kept row
    holds its pivot and lower variables only, so taking the rows in
    ascending pivot order, with every free variable zero, sets each pivot
    variable to its right-hand side plus the parity of the lower variables
    already set: one AND and one popcount per row. Every pivot variable
    depends only on free variables of lower index, so the assignment is the
    binary-lowest solution (variable 0 most significant). Variables of a
    global-section system are numbered by first appearance, so the last
    variable of a row is seldom held by an earlier row, and the pass makes
    little fill-in. The dimension is cols minus the rank.
    """
    basis = Basis()
    kept: list[int] = []
    for r, (row, bit) in enumerate(rows):
        remainder, combination = basis.add(row << 1 | bit, 1 << len(kept))
        if remainder == 1:
            return Certificate(selected=(*(kept[j] for j in set_bits(combination)), r))
        if remainder:
            kept.append(r)
    assignment = 0
    table = basis._rows
    for length in sorted(table):
        row = table[length][0]
        assignment |= ((row ^ (row & assignment).bit_count()) & 1) << length - 1
    return Gf2Solution(assignment=assignment >> 1, dimension=cols - len(kept))


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
    return tuple([index >> shift & 1 for shift in range(m - 1, -1, -1)])


def fit_affine(outputs: Sequence[int]) -> AffineForm | None:
    """Fit o(i) = a . i xor c to a complete truth table, or return None.

    The table holds 2^m output bits indexed in binary order (input bit i_1 is
    the most significant index bit). The only possible candidate is forced:
    c = o(0) and a_j = o(e_j) xor o(0). The entries are checked by two counts,
    and the candidate's table, built by m doublings, each flipping the copy by
    ``bytes.translate`` when its coefficient is set, is compared with it once.
    """
    table = tuple(outputs)
    size = len(table)
    m = size.bit_length() - 1
    if size == 0 or size != 1 << m:
        raise ValueError("table must hold exactly 2^m outputs")
    if table.count(0) + table.count(1) != size:
        raise ValueError("entries must be bits")
    c = int(table[0])
    a = tuple(int(table[1 << (m - 1 - j)]) ^ c for j in range(m))
    flip = bytes.maketrans(b"\0\1", b"\1\0")
    candidate = bytes((c,))
    for coeff in reversed(a):
        candidate += candidate.translate(flip) if coeff else candidate
    if table == tuple(candidate):
        return AffineForm(coefficients=a, constant=c)
    return None
