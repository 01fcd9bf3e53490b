"""Shared oracles and generators for the test suite.

The dense-matrix helpers here are written directly against explicit 2x2
matrices and np.kron, independently of the package's symplectic arithmetic,
so they can serve as ground truth for it; stabilizer_state builds the state
a group fixes from them. The GF(2) helpers work on uint8 arrays through
reference_rref, independently of the package's int rows; pack_rows,
unpack_rows and bit_system convert between the two formats.
brute_force_global decides a global-section system by trying every
assignment, as ground truth for the solver.
"""
from __future__ import annotations

import numpy as np

from contextua import gf2
from contextua.contexts import ContextGroup, NonCommutingGeneratorsError, close_context
from contextua.mbqc import MBQCInstance, validate_instance
from contextua.pauli import PauliBasis, PauliOperator, commutes, format_pauli, multiply_all
from contextua.presheaf import GlobalSection
from contextua.stabilizer import make_stabilizer, member_sign

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER_MATRICES = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

LETTERS = "IXYZ"


def dense_from_string(text: str) -> np.ndarray:
    """Matrix for a signed Pauli string, built by plain kron products."""
    sign = 1.0
    body = text
    if body[0] in "+-":
        sign = -1.0 if body[0] == "-" else 1.0
        body = body[1:]
    out = np.array([[sign]], dtype=complex)
    for letter in body:
        out = np.kron(out, LETTER_MATRICES[letter])
    return out


def dense_operator(op: PauliOperator) -> np.ndarray:
    """Matrix for an operator from its raw encoding (phases included)."""
    out = np.array([[1j ** op.phase_exp]], dtype=complex)
    for k in range(op.width):
        factor = I2
        if (op.z_bits >> k) & 1:
            factor = Z2 @ factor
        if (op.x_bits >> k) & 1:
            factor = X2 @ factor
        out = np.kron(out, factor)
    return out


def stabilizer_state(group: PauliBasis) -> np.ndarray:
    """A unit vector the group stabilizes (unique up to phase at full rank).

    The projector is the product of (I + g)/2 over the generators; its first
    nonzero column j is normalised. Column j's entries above j vanish, since
    the projector is Hermitian and its earlier columns are zero, and entry j
    is its squared norm, so the first nonzero amplitude is real and positive.
    """
    dim = 1 << group.width
    projector = np.eye(dim, dtype=complex)
    for g in group.generators:
        projector = projector @ (np.eye(dim) + dense_operator(g)) / 2
    column = next(col for col in projector.T if np.linalg.norm(col) > 1e-9)
    return column / np.linalg.norm(column)


def ghz_vector() -> np.ndarray:
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    return vec


def random_pauli(rng: np.random.Generator, width: int, signed: bool = True) -> PauliOperator:
    body = "".join(LETTERS[int(i)] for i in rng.integers(0, 4, size=width))
    sign = "-" if signed and rng.integers(0, 2) else "+"
    from contextua.pauli import parse_pauli

    return parse_pauli(sign + body)


def random_commuting_set(
    rng: np.random.Generator, width: int, count: int
) -> list[PauliOperator]:
    """Pairwise commuting positive operators, drawn by rejection."""
    chosen: list[PauliOperator] = []
    attempts = 0
    while len(chosen) < count and attempts < 400:
        attempts += 1
        candidate = random_pauli(rng, width, signed=False)
        if candidate.is_identity_class:
            continue
        if any(candidate.body() == c.body() for c in chosen):
            continue
        if all(commutes(candidate, c) for c in chosen):
            chosen.append(candidate)
    return chosen


def random_stabilizer_group(rng: np.random.Generator, width: int) -> PauliBasis:
    """A full-rank stabilizer group (width independent signed generators)."""
    gens: list[PauliOperator] = []
    basis: list[np.ndarray] = []
    attempts = 0
    while len(gens) < width:
        attempts += 1
        if attempts > 2000:
            raise RuntimeError("generator sampling stalled")
        candidate = random_pauli(rng, width, signed=True)
        if candidate.is_identity_class:
            continue
        if not all(commutes(candidate, g) for g in gens):
            continue
        vector = unpack_rows([candidate.packed()], 2 * width)[0]
        stacked = np.array(basis + [vector], dtype=np.uint8)
        if rank(stacked) <= len(basis):
            continue
        gens.append(candidate)
        basis.append(vector)
    return make_stabilizer(gens)


def reference_rref(matrix) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Gauss-Jordan over GF(2) on uint8 rows, one column at a time.

    An independent oracle for gf2.rref: the pivot is the lowest-index row at
    or below the rank row holding a one in the lowest remaining column; it is
    swapped into the rank row and cleared from every other row. Returns
    (reduced, pivots, transform) with reduced = transform @ matrix mod 2.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8)).copy()
    rows, cols = mat.shape
    transform = np.eye(rows, dtype=np.uint8)
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r, col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
            transform[[rank, pivot]] = transform[[pivot, rank]]
        for r in range(rows):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
                transform[r] ^= transform[rank]
        rank += 1
        if rank == rows:
            break
    pivots = tuple(int(np.argmax(mat[r])) for r in range(rank))
    return mat, pivots, transform


def pack_rows(matrix) -> tuple[int, ...]:
    """Int rows of a 0/1 matrix: bit c of row r is entry (r, c)."""
    return tuple(sum(int(bit) << c for c, bit in enumerate(row)) for row in matrix)


def unpack_rows(rows, cols: int) -> np.ndarray:
    """The uint8 matrix whose entry (r, c) is bit c of rows[r]."""
    return np.array(
        [[(row >> c) & 1 for c in range(cols)] for row in rows], dtype=np.uint8
    ).reshape(len(rows), cols)


def bit_matrix(matrix) -> gf2.BitMatrix:
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    return gf2.BitMatrix(pack_rows(mat), mat.shape[1])


def bit_system(matrix, rhs, labels=None) -> gf2.Gf2System:
    """A Gf2System from a 0/1 matrix and right-hand side; labels default to 0..n-1."""
    bits = bit_matrix(matrix)
    if labels is None:
        labels = tuple(range(bits.cols))
    return gf2.Gf2System(matrix=bits, rhs=pack_rows([rhs])[0], labels=labels)


def brute_force_global(problem: gf2.Gf2System) -> GlobalSection | None:
    """Exhaust every assignment of the problem's variables: the solver's oracle.

    Returns None when no assignment satisfies every row, else the binary-lowest
    satisfying assignment (variable 0 most significant) as a GlobalSection,
    with the dimension of the solution space.
    """
    v = problem.num_vars
    assignments = (np.arange(1 << v)[:, None] >> np.arange(v - 1, -1, -1)) & 1
    matrix = unpack_rows(problem.matrix.rows, v)
    rhs = unpack_rows([problem.rhs], problem.num_rows)[0]
    satisfying = np.flatnonzero(~((assignments @ matrix.T + rhs) % 2).any(axis=1))
    if satisfying.size == 0:
        return None
    values = dict(zip(problem.labels, map(int, assignments[satisfying[0]])))
    return GlobalSection(values=values, dimension=satisfying.size.bit_length() - 1)


def rank(matrix) -> int:
    return len(reference_rref(matrix)[1])


def row_space_contains(matrix, vector) -> bool:
    """True iff vector lies in the GF(2) row space of matrix."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    return rank(np.vstack([mat, np.asarray(vector, dtype=np.uint8)])) == rank(mat)


def left_nullspace(matrix) -> np.ndarray:
    """Basis (as rows) of {c : c @ matrix = 0 mod 2}, in elimination order."""
    _, pivots, transform = reference_rref(matrix)
    return transform[len(pivots) :]


def greedy_rows(matrix) -> tuple[int, ...]:
    """The rows that raise the rank of the rows before them, ascending.

    Row r raises its prefix rank exactly when column r of the transpose is
    independent of the columns before it, that is, a pivot column of
    reference_rref on the transpose.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    return reference_rref(mat.T)[1]


def fundamental_circuits(matrix) -> dict[int, tuple[int, ...]]:
    """Each row outside the greedy rows, mapped to its fundamental circuit.

    The circuit of row r is r with the greedy rows that sum to it, ascending.
    The greedy rows B are independent, so reference_rref of [B^T | V^T],
    with the other rows V, pivots on B's columns and leaves [I | S] on top,
    where column i of S selects the rows of B that sum to row i of V.
    Those rows all precede it, since the greedy rows before it span it.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    basis = greedy_rows(mat)
    others = [r for r in range(mat.shape[0]) if r not in basis]
    stacked = np.hstack([mat[list(basis)].T, mat[others].T])
    reduced, pivots, _ = reference_rref(stacked)
    assert pivots == tuple(range(len(basis)))
    return {
        r: tuple(sorted([*(basis[j] for j in np.flatnonzero(reduced[: len(basis), len(basis) + i])), r]))
        for i, r in enumerate(others)
    }


def reference_certificate(matrix, rhs) -> tuple[int, ...] | None:
    """The rows gf2.solve must select for A x = b, or None when consistent.

    The first row k whose prefix 0..k is inconsistent is the first row that
    raises the prefix rank of [A | b] but not of A. The certificate is its
    fundamental circuit over the greedy rows of A before it.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.uint8))
    column = np.asarray(rhs, dtype=np.uint8).reshape(-1, 1)
    basis = greedy_rows(mat)
    k = next((r for r in greedy_rows(np.hstack([mat, column])) if r not in basis), None)
    if k is None:
        return None
    return fundamental_circuits(mat[: k + 1])[k]


def reference_close_context(
    gens: list[PauliOperator],
) -> tuple[tuple[PauliOperator, ...], tuple[PauliOperator, ...], list[tuple[tuple, int]]]:
    """Context closure by body strings, uint8 matrices and reference_rref.

    An oracle for close_context on inputs without sign conflicts: members
    are the canonical non-identity generators, deduplicated, checked pair by
    pair in the given order and sorted by body string; generators are the
    members that raise the rank, in member order; each other member gives
    one relation, in member order: its fundamental circuit over the
    generators, with the sign of its product.
    Returns (members, generators, [(relation members, sign bit), ...]).
    """
    given: list[PauliOperator] = []
    for op in gens:
        canon = op.canonical()
        if not canon.is_identity_class and canon not in given:
            given.append(canon)
    for i, p in enumerate(given):
        for q in given[i + 1 :]:
            if not commutes(p, q):
                raise NonCommutingGeneratorsError(f"{p.body()} and {q.body()} do not commute")
    members = tuple(sorted(given, key=lambda op: op.body()))
    if not members:
        return (), (), []
    matrix = unpack_rows([op.packed() for op in members], 2 * members[0].width)
    relations = []
    for circuit in fundamental_circuits(matrix).values():
        chosen = tuple(members[j] for j in circuit)
        product = multiply_all(chosen, width=members[0].width)
        assert product.is_identity_class
        relations.append((chosen, product.sign_bit))
    return members, tuple(members[j] for j in greedy_rows(matrix)), relations


def _embedded_vector(letter_index: int, party: int, width: int) -> np.ndarray:
    vec = np.zeros(2 * width, dtype=np.uint8)
    x = letter_index in (1, 2)
    z = letter_index in (2, 3)
    if x:
        vec[party] = 1
    if z:
        vec[width + party] = 1
    return vec


def random_valid_raw(
    rng: np.random.Generator, max_parties: int = 4, max_input_bits: int = 3
) -> dict:
    """JSON-shaped data of a random instance whose every reachable joint
    observable is determined.

    Sampling: draw a full-rank resource group, resample per-party observable
    letters until the all-zeros setting has its joint in the group's row
    space, then restrict the setting-matrix columns to the solution space of
    settings that keep the joint inside that row space.
    """
    n = int(rng.integers(1, max_parties + 1))
    m = int(rng.integers(1, max_input_bits + 1))
    group = random_stabilizer_group(rng, n)
    g_matrix = unpack_rows([g.packed() for g in group.generators], 2 * n)
    for _ in range(500):
        letters = rng.integers(0, 4, size=(2, n))
        v0 = np.zeros(2 * n, dtype=np.uint8)
        for k in range(n):
            v0 ^= _embedded_vector(int(letters[0][k]), k, n)
        if row_space_contains(g_matrix, v0):
            break
    else:
        raise RuntimeError("observable sampling stalled")
    deltas = np.array(
        [
            _embedded_vector(int(letters[0][k]), k, n)
            ^ _embedded_vector(int(letters[1][k]), k, n)
            for k in range(n)
        ],
        dtype=np.uint8,
    )
    stacked = np.vstack([deltas, g_matrix])
    admissible = [sel[:n] for sel in left_nullspace(stacked)]
    columns = []
    for _ in range(m):
        col = np.zeros(n, dtype=np.uint8)
        for vec in admissible:
            if rng.integers(0, 2):
                col ^= vec
        columns.append(col)
    setting_matrix = (
        np.array(columns, dtype=np.uint8).T
        if columns
        else np.zeros((n, 0), dtype=np.uint8)
    )
    signs = rng.integers(0, 2, size=(2, n))
    observables = [
        [
            ("-" if signs[b][k] else "+") + "".join(
                LETTERS[int(letters[b][k])] if j == k else "I" for j in range(n)
            )
            for k in range(n)
        ]
        for b in (0, 1)
    ]
    return {
        "parties": n,
        "input_bits": m,
        "Q": [[int(b) for b in row] for row in setting_matrix],
        "observables": observables,
        "resource": [format_pauli(g) for g in group.generators],
    }


def random_valid_instance(
    rng: np.random.Generator, max_parties: int = 4, max_input_bits: int = 3
) -> MBQCInstance:
    return validate_instance(random_valid_raw(rng, max_parties, max_input_bits))


def ghz_raw(rng: np.random.Generator, parties: int, inputs: int, inner_rank: int) -> dict:
    """JSON-shaped data of a GHZ instance whose setting matrix has a given rank.

    Q = A B with A and B drawn full rank r = inner_rank over the first
    parties - 1 rows, and the last row the parity of the others. Every
    column of Q then has even weight, so every joint of X and Y locals has
    an even number of Y factors and lies in the GHZ group up to sign, and
    there are 2^r distinct settings.
    """
    def full_rank(rows: int, cols: int) -> np.ndarray:
        while True:
            mat = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if rank(mat) == inner_rank:
                return mat

    top = full_rank(parties - 1, inner_rank) @ full_rank(inner_rank, inputs) % 2
    setting_matrix = np.vstack([top, top.sum(axis=0) % 2])
    return {
        "parties": parties,
        "input_bits": inputs,
        "Q": [[int(b) for b in row] for row in setting_matrix],
        "observables": [["X"] * parties, ["Y"] * parties],
        "resource": ["+" + "X" * parties]
        + ["+" + "I" * k + "ZZ" + "I" * (parties - k - 2) for k in range(parties - 1)],
    }


def large_ghz_instance() -> MBQCInstance:
    """The seeded n = 16, m = 12 GHZ instance of inner rank 11: 2048 settings.

    Its global-section system has 6132 rows over 2080 observables.
    """
    return validate_instance(ghz_raw(np.random.default_rng(16), 16, 12, 11))


def exhaustive_affine_tables(m: int) -> set[tuple[int, ...]]:
    """Truth tables of all 2^(m+1) affine forms on m bits."""
    tables = set()
    for mask in range(1 << m):
        coefficients = tuple((mask >> (m - 1 - j)) & 1 for j in range(m))
        for constant in (0, 1):
            form = gf2.AffineForm(coefficients=coefficients, constant=constant)
            tables.add(
                tuple(
                    form.evaluate(gf2.input_vector(i, m)) for i in range(1 << m)
                )
            )
    return tables


def reference_mbqc(
    inst: MBQCInstance,
) -> tuple[
    tuple[int | None, ...], list[tuple[int, PauliOperator, ContextGroup]], ContextGroup | None
]:
    """The MBQC layer evaluated input by input, as an oracle for the one pass.

    For every input in binary order: settings q = Q i by numpy, with Q
    unpacked from the instance's columns, the product
    of the selected locals, and its sign in the resource group. Returns the
    output of each input (None where undetermined); per setting in
    first-reached order, the index of the input that first reaches it, the
    multiply_all product of its locals and its local context, the
    close_context closure of the locals and their product; and the special
    context, the closure of the distinct products, which is None when some
    output is undetermined.
    """
    n, m = inst.parties, inst.input_bits
    setting_matrix = unpack_rows(inst.columns, n).T
    outputs: list[int | None] = []
    contexts: list[tuple[int, PauliOperator, ContextGroup]] = []
    seen: set[tuple[int, ...]] = set()
    joints: dict[tuple[int, int, int], PauliOperator] = {}
    for index in range(1 << m):
        bits = np.array(gf2.input_vector(index, m), dtype=np.uint8)
        q = tuple(int(b) for b in (setting_matrix @ bits) % 2)
        locals_ = [inst.observables[q[k]][k] for k in range(n)]
        joint = multiply_all(locals_, width=n)
        outputs.append(member_sign(inst.resource, joint))
        if q in seen:
            continue
        seen.add(q)
        gens = [op.canonical() for op in (*locals_, joint) if not op.is_identity_class]
        contexts.append((index, joint, close_context(gens, width=n)))
        joints.setdefault((joint.width, joint.x_bits, joint.z_bits), joint.canonical())
    if None in outputs:
        return tuple(outputs), contexts, None
    return tuple(outputs), contexts, close_context(list(joints.values()), width=n)


def expand_relation(context: ContextGroup, r: int) -> tuple[tuple[PauliOperator, ...], int]:
    """Relation row r of a context as (its members in member order, its sign bit).

    In member order the generators a relation names come first, in generator
    order, and its dependent member last: the circuit order.
    """
    row = context.relations[r]
    members = tuple(op for i, op in enumerate(context.members) if row >> i & 1)
    return members, context.signs >> r & 1


def context_fields(context: ContextGroup) -> tuple:
    """Everything a context determines: members, generators, signed relations.

    ``signs`` is kept whole as well, so a stray bit past the last row shows.
    """
    return (
        context.members,
        context.generators,
        tuple(expand_relation(context, r) for r in range(len(context.relations))),
        context.signs,
    )
