"""Linear algebra over GF(2) on packed ints.

A bit vector is a Python int whose bit c is entry c, and a matrix is a
:class:`BitMatrix` of such rows. A system's right-hand side holds bit r for
row r, a solution bit c for variable c, and a certificate names its rows
by index. Inside :func:`eliminate`, the one elimination routine, each row
also carries its transform bits above the matrix bits, so a single XOR
updates a row of both. :func:`solve` reads the reduced right-hand sides as
parities of those rows and the certificate off the transform bits of one
of them, so the n x n transform is never built. Callers that already hold
int rows (``contexts.close_context``) call :func:`eliminate` directly.

The systems met in practice are sparse, so elimination visits only the
rows that hold each column: rows wait in buckets keyed by their lowest set
bit, the next column that would clear them. The result is exactly that of
column-scan Gauss-Jordan with the pivot at the lowest-index column and the
lowest-index row, so solutions, nullspace bases and inconsistency
certificates are byte-stable across runs.
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


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the row transform producing it.

    rows are the int rows of :func:`eliminate`: row r holds reduced row r
    below bit cols and, from bit cols up, the transform row that selects the
    input rows summing to it.
    """

    reduced: BitMatrix
    pivots: tuple[int, ...]
    rows: Sequence[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def eliminate(rows: Sequence[int], cols: int) -> tuple[list[int], tuple[int, ...]]:
    """Gauss-Jordan elimination over GF(2) on int rows.

    Row r holds column c at bit c, for c < cols. Returns (reduced, pivots):
    reduced row r holds its reduced bits below bit cols and, from bit cols
    up, its transform row, whose bit j selects input row j. Rows at index
    >= len(pivots) have no reduced bits left; their transform rows form a
    basis of the left nullspace of the input.

    The result is that of column-scan Gauss-Jordan: for each column c in
    turn, the lowest-position row at or after position rank that holds c
    (the lead) is swapped into position rank and XORed into every other
    row holding c. Here that takes two passes, which touch only the rows
    holding each column:

    - Forward. Invariant: before column c, an unreduced row (position >=
      rank) has no bits below c, so the rows holding c are exactly those
      whose lowest bit is c, and buckets[c] holds their positions. The lead
      is the lowest position in buckets[c]. The row it swaps with does not
      hold c (it would be the lead), so it stays in its own bucket under
      its new position. The lead is XORed into the other rows of
      buckets[c] only, and each is filed under its new lowest bit, which
      is above c.
    - Back substitution. From the last pivot row to the first, each pivot
      row takes in the finished rows of the later pivot columns it holds.

    Unreduced rows only ever take in leads, so the forward pass chooses
    the same leads, makes the same swaps and leaves the same non-pivot rows
    as the column scan; the scan differs only in also clearing each column
    from the earlier pivot rows. In both, pivot row k ends as lead k plus a
    sum of later leads, zero in every other pivot column. Each later lead's
    lowest bit is its own pivot column, so that sum is forced column by
    column and the rows agree bit for bit, transform bits included.
    """
    mask = (1 << cols) - 1
    rows = [row | 1 << (cols + r) for r, row in enumerate(rows)]
    buckets: list[list[int]] = [[] for _ in range(cols)]
    for r, row in enumerate(rows):
        low = row & mask
        if low:
            buckets[(low & -low).bit_length() - 1].append(r)
    pivots: list[int] = []
    for col, bucket in enumerate(buckets):
        if not bucket:
            continue
        rank = len(pivots)
        pivot = min(bucket)
        lead = rows[pivot]
        if pivot != rank:
            moved = rows[rank]
            rows[pivot] = moved
            rows[rank] = lead
            low = moved & mask
            if low:
                filed = buckets[(low & -low).bit_length() - 1]
                filed[filed.index(rank)] = pivot
        for r in bucket:
            if r != pivot:
                row = rows[r] ^ lead
                rows[r] = row
                low = row & mask
                if low:
                    buckets[(low & -low).bit_length() - 1].append(r)
        pivots.append(col)
    place = [0] * cols
    later = 0
    for k in range(len(pivots) - 1, -1, -1):
        row = rows[k]
        hits = row & later
        while hits:
            bit = hits & -hits
            row ^= rows[place[bit.bit_length() - 1]]
            hits ^= bit
        rows[k] = row
        place[pivots[k]] = k
        later |= 1 << pivots[k]
    return rows, tuple(pivots)


def rref(matrix: BitMatrix) -> RrefResult:
    """Gauss-Jordan elimination over GF(2), by :func:`eliminate`.

    Returns (reduced, pivots, rows): reduced row r is the sum of the input
    rows that the transform bits of rows[r] select, and the transform is
    invertible. Rows at index >= rank of the reduced matrix are zero, and
    their transform bits form a basis of the left nullspace of the input.
    """
    rows, pivots = eliminate(matrix.rows, matrix.cols)
    mask = (1 << matrix.cols) - 1
    return RrefResult(
        reduced=BitMatrix(tuple(row & mask for row in rows), matrix.cols),
        pivots=pivots,
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
    0 = 1.
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

    On success the assignment satisfies A x = b with free variables fixed to
    zero, and nullspace row i sets the i-th free variable and the pivot
    variables that match it. On failure the certificate selects the
    transform row of the first all-zero reduced row with nonzero reduced
    right-hand side, which is reproducible because elimination order is
    deterministic.
    """
    result = rref(system.matrix)
    cols = system.num_vars
    shifted = system.rhs << cols
    for row in result.rows[result.rank :]:
        if (row & shifted).bit_count() & 1:
            return Certificate(selected=tuple(set_bits(row >> cols)))
    assignment = 0
    for row, p in zip(result.rows, result.pivots):
        assignment |= ((row & shifted).bit_count() & 1) << p
    pivots = set(result.pivots)
    free = [c for c in range(cols) if c not in pivots]
    basis = {c: 1 << c for c in free}
    for row, p in zip(result.reduced.rows, result.pivots):
        for c in set_bits(row ^ 1 << p):
            basis[c] |= 1 << p
    return Gf2Solution(assignment=assignment, nullspace=tuple(basis[c] for c in free))


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
    """An affine Boolean form o(i) = a . i xor c over Z_2^m."""

    a: tuple[int, ...]
    c: int

    def evaluate(self, bits: Sequence[int]) -> int:
        if len(bits) != len(self.a):
            raise ValueError("input length does not match form arity")
        total = self.c
        for coeff, bit in zip(self.a, bits):
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
        return AffineForm(a=a, c=c)
    return None
