"""Linear algebra over GF(2).

Bit matrices cross the API as numpy arrays of dtype uint8 with entries in
{0, 1}, shape (rows, cols). Inside :func:`eliminate`, the one elimination
routine, each row is a Python int holding column c at bit c, followed by
the row's transform bits, so a single XOR updates a row of both;
:func:`rref` wraps it for numpy matrices, and callers that already hold
int rows (``contexts.close_context``) call it directly. Elimination
is fully deterministic: pivots are chosen at the lowest-index column and the
lowest-index row, so solutions, nullspace bases and inconsistency
certificates are byte-stable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

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
    """Reduced row-echelon form together with the row transform producing it."""

    reduced: np.ndarray
    pivots: tuple[int, ...]
    transform: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
    """
    n = len(rows)
    rows = [row | 1 << (cols + r) for r, row in enumerate(rows)]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == n:
            break
        bit = 1 << col
        pivot = next((r for r in range(rank, n) if rows[r] & bit), None)
        if pivot is None:
            continue
        lead = rows[pivot]
        rows[pivot] = rows[rank]
        rows[rank] = lead
        for r in range(n):
            if r != rank and rows[r] & bit:
                rows[r] ^= lead
        pivots.append(col)
    return rows, tuple(pivots)


def rref(matrix) -> RrefResult:
    """Gauss-Jordan elimination over GF(2), by :func:`eliminate`.

    Returns (reduced, pivots, transform) with reduced = transform @ matrix
    (mod 2) and transform invertible. Rows at index >= rank of the reduced
    matrix are zero, and the corresponding transform rows form a basis of the
    left nullspace of the input.
    """
    mat = as_bits(matrix)
    n, cols = mat.shape
    packed = np.packbits(mat, axis=1, bitorder="little")
    rows, pivots = eliminate([int.from_bytes(bits.tobytes(), "little") for bits in packed], cols)
    mask = (1 << cols) - 1
    return RrefResult(
        reduced=unpack_rows([row & mask for row in rows], cols),
        pivots=pivots,
        transform=unpack_rows([row >> cols for row in rows], n),
    )


def rank(matrix) -> int:
    return rref(matrix).rank


def left_nullspace(matrix) -> np.ndarray:
    """Basis (as rows) of {c : c @ matrix = 0 mod 2}, in elimination order."""
    result = rref(matrix)
    return result.transform[result.rank :].copy()


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
    reduced_rhs = (result.transform @ vec) % 2
    if np.any(reduced_rhs[result.rank :]):
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
    reduced_rhs = (result.transform @ system.rhs) % 2
    for r in range(result.rank, system.num_rows):
        if reduced_rhs[r]:
            return Certificate(row_selector=result.transform[r].copy())
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
