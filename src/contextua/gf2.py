"""Linear algebra over GF(2).

Bit matrices cross the API as numpy arrays of dtype uint8 with entries in
{0, 1}, shape (rows, cols). Inside :func:`eliminate`, the one elimination
routine, each row is a Python int holding column c at bit c, followed by
the row's transform bits, so a single XOR updates a row of both.
:func:`rref` wraps it for numpy matrices and keeps its int rows: the n x n
transform is unpacked only when read, and :func:`solve` takes reduced
right-hand sides as parities of the packed rows and unpacks only the
certificate row. Callers that already hold int rows
(``contexts.close_context``) call :func:`eliminate` directly.

The systems met in practice are sparse, so elimination visits only the
rows that hold each column: rows wait in buckets keyed by their lowest set
bit, the next column that would clear them. The result is exactly that of
column-scan Gauss-Jordan with the pivot at the lowest-index column and the
lowest-index row, so solutions, nullspace bases and inconsistency
certificates are byte-stable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np


def as_bits(data, *, cols: int | None = None) -> np.ndarray:
    """Coerce array-like data to a 2-D uint8 matrix with entries in {0, 1}."""
    mat = np.atleast_2d(np.asarray(data, dtype=np.uint8))
    if mat.size and not np.all(mat <= 1):
        raise ValueError("entries must be bits")
    if cols is not None and mat.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {mat.shape[1]}")
    return mat


def as_bit_vector(data, *, length: int | None = None) -> np.ndarray:
    """Coerce array-like data to a 1-D uint8 vector with entries in {0, 1}."""
    vec = np.asarray(data, dtype=np.uint8).ravel()
    if vec.size and not np.all(vec <= 1):
        raise ValueError("entries must be bits")
    if length is not None and vec.shape[0] != length:
        raise ValueError(f"expected length {length}, got {vec.shape[0]}")
    return vec


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the row transform producing it.

    rows are the int rows of :func:`eliminate`, which carry the transform
    bits; the n x n transform is unpacked from them only when it is read.
    """

    reduced: np.ndarray
    pivots: tuple[int, ...]
    rows: Sequence[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def transform(self) -> np.ndarray:
        """The uint8 transform, unpacked on every read."""
        return self.transform_rows(range(len(self.rows)))

    def transform_rows(self, indices: Iterable[int]) -> np.ndarray:
        """The selected rows of the transform, unpacked."""
        cols = self.reduced.shape[1]
        return unpack_rows([self.rows[r] >> cols for r in indices], len(self.rows))

    def reduce_rhs(self, rhs: np.ndarray) -> list[int]:
        """transform @ rhs (mod 2), one bit per row, from the packed rows."""
        packed = int.from_bytes(np.packbits(rhs, bitorder="little").tobytes(), "little")
        shifted = packed << self.reduced.shape[1]
        return [(row & shifted).bit_count() & 1 for row in self.rows]


def unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    """The uint8 bit matrix whose row r has bit c of rows[r] in column c."""
    width = (cols + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


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


def rref(matrix) -> RrefResult:
    """Gauss-Jordan elimination over GF(2), by :func:`eliminate`.

    Returns (reduced, pivots, rows) with reduced = transform @ matrix
    (mod 2) and transform invertible. Rows at index >= rank of the reduced
    matrix are zero, and the corresponding transform rows form a basis of the
    left nullspace of the input.
    """
    mat = as_bits(matrix)
    cols = mat.shape[1]
    packed = np.packbits(mat, axis=1, bitorder="little")
    rows, pivots = eliminate([int.from_bytes(bits.tobytes(), "little") for bits in packed], cols)
    mask = (1 << cols) - 1
    return RrefResult(
        reduced=unpack_rows([row & mask for row in rows], cols),
        pivots=pivots,
        rows=rows,
    )


def rank(matrix) -> int:
    return rref(matrix).rank


def left_nullspace(matrix) -> np.ndarray:
    """Basis (as rows) of {c : c @ matrix = 0 mod 2}, in elimination order."""
    result = rref(matrix)
    return result.transform_rows(range(result.rank, len(result.rows)))


def nullspace(matrix) -> np.ndarray:
    """Basis (as rows) of {x : matrix @ x = 0 mod 2}, ordered by free column."""
    return _nullspace_of(rref(matrix))


def _nullspace_of(result: RrefResult) -> np.ndarray:
    """Row i sets free column i to 1 and each pivot variable to match it."""
    n_cols = result.reduced.shape[1]
    pivots = list(result.pivots)
    free = sorted(set(range(n_cols)) - set(pivots))
    basis = np.zeros((len(free), n_cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = result.reduced[: result.rank][:, free].T
    return basis


def linear_solve(matrix, rhs) -> np.ndarray | None:
    """One solution of matrix @ x = rhs over GF(2), or None if inconsistent.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    mat = as_bits(matrix)
    vec = as_bit_vector(rhs, length=mat.shape[0])
    result = rref(mat)
    reduced_rhs = result.reduce_rhs(vec)
    if any(reduced_rhs[result.rank :]):
        return None
    solution = np.zeros(mat.shape[1], dtype=np.uint8)
    for row, p in enumerate(result.pivots):
        solution[p] = reduced_rhs[row]
    return solution


def row_space_contains(matrix, vector) -> bool:
    """True iff vector lies in the GF(2) row space of matrix."""
    mat = as_bits(matrix)
    vec = as_bit_vector(vector, length=mat.shape[1])
    if mat.shape[0] == 0:
        return not np.any(vec)
    return linear_solve(mat.T, vec) is not None


@dataclass(frozen=True)
class Gf2System:
    """A linear system A x = b over GF(2) with labelled columns.

    Labels name the variables (one hashable label per column, pairwise
    distinct); rows are the constraints.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        mat = as_bits(self.matrix)
        vec = as_bit_vector(self.rhs, length=mat.shape[0])
        if len(self.labels) != mat.shape[1]:
            raise ValueError("one label per column required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "rhs", vec)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_vars(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class Certificate:
    """A proof that a GF(2) system is unsolvable.

    The selected rows of the coefficient matrix sum to the zero vector while
    the selected right-hand-side bits sum to 1, exhibiting 0 = 1.
    """

    row_selector: np.ndarray

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.row_selector))


@dataclass(frozen=True, eq=False)
class Gf2Solution:
    """A particular solution plus a basis of the homogeneous solution space."""

    assignment: np.ndarray
    nullspace: np.ndarray

    @property
    def dimension(self) -> int:
        return self.nullspace.shape[0]


def solve(system: Gf2System) -> Gf2Solution | Certificate:
    """Solve a labelled GF(2) system; inconsistency is a value, not an error.

    On success the assignment satisfies A x = b with free variables fixed to
    zero. On failure the certificate's selector is the transform row of the
    first all-zero reduced row with nonzero reduced right-hand side, which is
    reproducible because elimination order is deterministic.
    """
    result = rref(system.matrix)
    reduced_rhs = result.reduce_rhs(system.rhs)
    for r in range(result.rank, system.num_rows):
        if reduced_rhs[r]:
            return Certificate(row_selector=result.transform_rows([r])[0])
    assignment = np.zeros(system.num_vars, dtype=np.uint8)
    for row, p in enumerate(result.pivots):
        assignment[p] = reduced_rhs[row]
    return Gf2Solution(assignment=assignment, nullspace=_nullspace_of(result))


def verify_certificate(system: Gf2System, certificate: Certificate) -> bool:
    """Re-sum the selected rows and check they exhibit 0 = 1."""
    sel = as_bit_vector(certificate.row_selector, length=system.num_rows)
    lhs = (sel @ system.matrix) % 2
    rhs = int(sel @ system.rhs) % 2
    return not np.any(lhs) and rhs == 1


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


def fit_affine(outputs) -> AffineForm | None:
    """Fit o(i) = a . i xor c to a complete truth table, or return None.

    The table holds 2^m output bits indexed in binary order (input bit i_1 is
    the most significant index bit). The only possible candidate is forced:
    c = o(0) and a_j = o(e_j) xor o(0); it is then verified on every input.
    """
    table = as_bit_vector(outputs)
    size = table.shape[0]
    m = size.bit_length() - 1
    if size == 0 or size != 1 << m:
        raise ValueError("table must hold exactly 2^m outputs")
    c = int(table[0])
    a = tuple(int(table[1 << (m - 1 - j)]) ^ c for j in range(m))
    indices = np.arange(size)
    predicted = np.full(size, c, dtype=np.uint8)
    for j, coeff in enumerate(a):
        if coeff:
            predicted ^= ((indices >> (m - 1 - j)) & 1).astype(np.uint8)
    if np.array_equal(predicted, table):
        return AffineForm(a=a, c=c)
    return None
