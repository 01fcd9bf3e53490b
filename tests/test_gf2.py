"""GF(2) elimination, solving and affine fitting against brute force."""
import tracemalloc

import numpy as np
import pytest

from contextua import gf2
from contextua.contexts import close_context
from contextua.gf2 import (
    AffineForm,
    BitMatrix,
    Certificate,
    Gf2Solution,
    Gf2System,
    fit_affine,
    input_vector,
    rref,
    set_bits,
    solve,
    verify_certificate,
)
from contextua.pauli import multiply_all
from contextua.presheaf import StateConstraint, build_global_problem

from conftest import (
    bit_matrix,
    bit_system,
    exhaustive_affine_tables,
    fundamental_circuits,
    pack_rows,
    random_stabilizer_group,
    rank,
    reference_certificate,
    reference_fit_affine,
    reference_rref,
    row_space_contains,
    unpack_rows,
)


def random_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)


def all_assignments(n):
    """All 2^n bit vectors as rows, in binary counting order."""
    indices = np.arange(1 << n)
    shifts = np.arange(n - 1, -1, -1)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def brute_solutions(matrix, rhs):
    """Every solution of A x = b, found by exhaustive enumeration."""
    cand = all_assignments(matrix.shape[1])
    predicted = (cand @ matrix.T) % 2
    hits = np.all(predicted == rhs[None, :], axis=1)
    return cand[hits]


def sparse_matrix(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def block_systems():
    """Global-section matrices shaped like ``analyze --contexts`` on blocks.

    Each block lists every element of a random maximal stabilizer group;
    every other system also pins the signed elements of the first group.
    """
    rng = np.random.default_rng(12)
    mats = []
    for k, (width, count) in enumerate([(3, 6), (3, 8), (4, 5), (4, 12), (5, 4), (5, 6)]):
        groups = [random_stabilizer_group(rng, width) for _ in range(count)]
        elements = [
            [
                multiply_all(
                    [g for j, g in enumerate(group.generators) if mask >> j & 1], width=width
                )
                for mask in range(1, 1 << width)
            ]
            for group in groups
        ]
        contexts = [
            close_context([op.canonical() for op in group], width=width) for group in elements
        ]
        pins = [StateConstraint.from_eigenvalue(op, 1) for op in elements[0]] if k % 2 else []
        problem = build_global_problem(contexts, pins)
        mats.append(unpack_rows(problem.matrix.rows, problem.num_vars))
    return mats


def rref_inputs():
    """Matrices every rref test runs on.

    Random matrices up to 8 x 8, then edge shapes: no rows, no columns,
    single rows, tall and wide, and widths on both sides of 64 and 128
    columns, each once dense and once as a low-rank product. Then the sparse
    inputs that elimination meets in practice: random matrices of density
    1-5 %, tall, wide and square; duplicate rows, adjacent and far apart,
    and zero rows between the rows; global-section systems over stabilizer
    blocks; and hand-made row swaps.
    """
    rng = np.random.default_rng(11)
    mats = [
        random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for _ in range(200)
    ]
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (1, 130), (40, 3), (3, 40)]
    shapes += [(r, c) for c in (63, 64, 65, 127, 128, 129) for r in (1, 20, 70, 140)]
    for r, c in shapes:
        mats.append(random_matrix(rng, r, c))
        inner = int(rng.integers(1, 6))
        mats.append((random_matrix(rng, r, inner) @ random_matrix(rng, inner, c)) % 2)
    for r, c in [(200, 60), (60, 200), (200, 200), (150, 150), (120, 40)]:
        for density in (0.01, 0.03, 0.05):
            mats.append(sparse_matrix(rng, r, c, density))
    base = sparse_matrix(rng, 40, 50, 0.05)
    spaced = np.zeros((80, 50), dtype=np.uint8)
    spaced[1::2] = base
    mats += [np.repeat(base, 2, axis=0), np.vstack([base, base[::-1]]), spaced]
    mats += block_systems()
    # A row at the rank position that holds the current column is the pivot
    # itself, so a swapped-out row holds only later columns and must be
    # re-filed under its new position. Below, it becomes the next pivot,
    # loses the next pivot to a lower row, and becomes a pivot two columns
    # later.
    mats.append(np.array([[0, 1, 0], [1, 0, 0], [0, 1, 1]], dtype=np.uint8))
    mats.append(np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8))
    mats.append(np.array([[0, 0, 1], [0, 1, 1], [1, 1, 0], [0, 1, 0]], dtype=np.uint8))
    return mats


RREF_INPUTS = rref_inputs()


def transform_of(result, cols):
    """The transform bits of rref's int rows, unpacked."""
    return unpack_rows([row >> cols for row in result.rows], len(result.rows))


def bits_of(value, length):
    """An int's low bits as a uint8 vector, bit 0 first."""
    return unpack_rows([value], length)[0]


def assert_circuit(mat, selected):
    """Rows that sum to zero with every proper subset independent."""
    assert rank(mat[list(selected)].reshape(len(selected), mat.shape[1])) == len(selected) - 1


class TestBasis:
    def test_combinations_name_the_callers_vectors(self):
        """Combinations are ORs of the caller's names, here spread out to 1 << 7i + 3."""
        rng = np.random.default_rng(2101)
        for _ in range(300):
            width = int(rng.integers(1, 9))
            basis = gf2.Basis()
            given = {}
            span = {0: 0}  # every sum of kept vectors -> the OR of their names
            for i in range(int(rng.integers(1, 13))):
                vector = int(rng.integers(0, 1 << width))
                name = 1 << 7 * i + 3
                remainder, combination = basis.add(vector, name)
                if remainder:
                    assert vector not in span
                    given[name] = vector
                    span.update({v ^ vector: names | name for v, names in list(span.items())})
                else:
                    assert combination == span[vector]
            for pivot, row, combination in basis.reduced_rows():
                assert row.bit_length() - 1 == pivot
                assert combination and combination & ~sum(given) == 0
                total = 0
                for bit in set_bits(combination):
                    total ^= given[1 << bit]
                assert total == row


class TestRref:
    def test_matches_reference_elimination(self):
        """Same reduced form and pivots as the uint8 oracle on reversed columns.

        The oracle pivots on the lowest remaining column, so run on the
        columns reversed it pivots each row on its highest original column;
        mapped back, its pivot rows come in descending pivot order. The rows
        past the rank are the fundamental circuits of the dependent rows, in
        input order, each over the greedy rows before it.
        """
        for mat in RREF_INPUTS:
            cols = mat.shape[1]
            result = rref(bit_matrix(mat))
            reduced, pivots, _ = reference_rref(mat[:, ::-1])
            rank_ = len(pivots)
            assert result.pivots == tuple(cols - 1 - p for p in reversed(pivots))
            expected = np.concatenate([reduced[:rank_][::-1], reduced[rank_:]])[:, ::-1]
            assert result.reduced == BitMatrix(pack_rows(expected), cols)
            found = [tuple(set_bits(row >> cols)) for row in result.rows[result.rank :]]
            assert found == list(fundamental_circuits(mat).values())

    def test_reduced_equals_transform_times_input(self):
        """Each reduced row is the XOR of the input rows its transform bits select."""
        for mat in RREF_INPUTS:
            matrix = bit_matrix(mat)
            result = rref(matrix)
            for row, reduced in zip(result.rows, result.reduced.rows):
                total = 0
                for r, input_row in enumerate(matrix.rows):
                    if row >> (matrix.cols + r) & 1:
                        total ^= input_row
                assert total == reduced

    def test_transform_is_invertible(self):
        for mat in RREF_INPUTS:
            result = rref(bit_matrix(mat))
            assert rank(transform_of(result, mat.shape[1])) == mat.shape[0]

    def test_echelon_shape(self):
        """Pivots increase strictly and pivot columns hold a single one."""
        for mat in RREF_INPUTS:
            result = rref(bit_matrix(mat))
            assert result.reduced.shape == mat.shape
            assert list(result.pivots) == sorted(result.pivots)
            assert len(set(result.pivots)) == len(result.pivots)
            for row, p in enumerate(result.pivots):
                holders = [r for r, bits in enumerate(result.reduced.rows) if bits >> p & 1]
                assert holders == [row]
            assert not any(result.reduced.rows[result.rank :])

    def test_idempotent(self):
        for mat in RREF_INPUTS:
            reduced = rref(bit_matrix(mat)).reduced
            assert rref(reduced).reduced == reduced

    def test_known_ranks(self):
        assert rref(BitMatrix((0, 0, 0), 4)).rank == 0
        assert rref(BitMatrix(tuple(1 << k for k in range(5)), 5)).rank == 5
        assert rref(BitMatrix((0b11, 0b11), 2)).rank == 1
        assert rref(bit_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])).rank == 2

    def test_rejects_non_bits(self):
        """A row with a bit at or beyond the column count is refused."""
        with pytest.raises(ValueError):
            rref(BitMatrix((0b100,), 2))
        with pytest.raises(ValueError):
            BitMatrix((-1,), 2)


class TestNullspaces:
    def test_left_nullspace_annihilates(self):
        """rref's transform rows past the rank are a left-nullspace basis."""
        rng = np.random.default_rng(21)
        for _ in range(150):
            mat = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 7)))
            result = rref(bit_matrix(mat))
            basis = transform_of(result, mat.shape[1])[result.rank :]
            assert basis.shape[0] == mat.shape[0] - rank(mat)
            if basis.shape[0]:
                assert not ((basis @ mat) % 2).any()
                assert rank(basis) == basis.shape[0]

    def test_nullspace_counts_all_solutions(self):
        """2^dimension is the number of brute-force homogeneous solutions."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            mat = random_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 9)))
            zero = np.zeros(mat.shape[0], dtype=np.uint8)
            outcome = solve(bit_system(mat, zero))
            assert brute_solutions(mat, zero).shape[0] == 1 << outcome.dimension


class TestLinearSolve:
    def test_consistent_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            mat = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            seed = rng.integers(0, 2, size=mat.shape[1]).astype(np.uint8)
            rhs = (mat @ seed) % 2
            found = solve(bit_system(mat, rhs))
            assert isinstance(found, Gf2Solution)
            assert np.array_equal((mat @ bits_of(found.assignment, mat.shape[1])) % 2, rhs)

    def test_inconsistent_returns_none(self):
        """An inconsistent system gives a certificate, not a solution."""
        mat = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert solve(bit_system(mat, [0, 1])) == Certificate(selected=(0, 1))

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            mat = random_matrix(rng, 4, 6)
            rhs = (mat @ rng.integers(0, 2, size=6).astype(np.uint8)) % 2
            first = solve(bit_system(mat, rhs))
            second = solve(bit_system(mat, rhs))
            assert first == second


class TestRowSpace:
    """The row-space oracle that random_valid_instance samples with."""

    def test_membership_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            mat = random_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
            vec = rng.integers(0, 2, size=mat.shape[1]).astype(np.uint8)
            spanned = {
                tuple((sel @ mat) % 2) for sel in all_assignments(mat.shape[0])
            }
            assert row_space_contains(mat, vec) == (tuple(vec) in spanned)

    def test_empty_matrix_spans_only_zero(self):
        empty = np.zeros((0, 3), dtype=np.uint8)
        assert row_space_contains(empty, [0, 0, 0])
        assert not row_space_contains(empty, [0, 1, 0])


class TestSystemSolve:
    def test_label_validation(self):
        mat = BitMatrix((0b01, 0b10), 2)
        with pytest.raises(ValueError):
            Gf2System(matrix=mat, rhs=0, labels=("a",))
        with pytest.raises(ValueError):
            Gf2System(matrix=mat, rhs=0, labels=("a", "a"))
        with pytest.raises(ValueError):
            Gf2System(matrix=mat, rhs=0b100, labels=("a", "b"))

    def test_against_brute_force(self):
        """Existence agrees with enumeration; witnesses and proofs check out.

        Consistent draws get a planted solution so both outcomes show up in
        quantity.
        """
        rng = np.random.default_rng(42)
        solved = refuted = 0
        for _ in range(300):
            n = int(rng.integers(1, 13))
            r = int(rng.integers(1, 15))
            mat = random_matrix(rng, r, n)
            if rng.integers(0, 2):
                seed = rng.integers(0, 2, size=n).astype(np.uint8)
                rhs = (mat @ seed) % 2
            else:
                rhs = rng.integers(0, 2, size=r).astype(np.uint8)
            system = bit_system(mat, rhs)
            outcome = solve(system)
            hits = brute_solutions(mat, rhs)
            if isinstance(outcome, Gf2Solution):
                solved += 1
                assert hits.shape[0] == 1 << outcome.dimension
                assert np.array_equal((mat @ bits_of(outcome.assignment, n)) % 2, rhs)
                assert reference_certificate(mat, rhs) is None
            else:
                refuted += 1
                assert hits.shape[0] == 0
                assert isinstance(outcome, Certificate)
                assert verify_certificate(system, outcome)
                sel = np.zeros(r, dtype=np.uint8)
                sel[list(outcome.selected)] = 1
                assert not ((sel @ mat) % 2).any()
                assert int(sel @ rhs) % 2 == 1
                assert outcome.selected == reference_certificate(mat, rhs)
                assert_circuit(mat, outcome.selected)
        assert solved > 50 and refuted > 50

    def test_certificates_on_rref_inputs(self):
        """Every rref input, once with a random and once with a planted rhs.

        A certificate is exactly the fundamental circuit of the first row
        whose prefix is inconsistent; a solution satisfies the system.
        """
        rng = np.random.default_rng(46)
        refuted = 0
        for mat in RREF_INPUTS:
            rows, cols = mat.shape
            planted = (mat @ rng.integers(0, 2, size=cols).astype(np.uint8)) % 2
            for rhs in (rng.integers(0, 2, size=rows).astype(np.uint8), planted):
                outcome = solve(bit_system(mat, rhs))
                expected = reference_certificate(mat, rhs)
                if expected is None:
                    assert isinstance(outcome, Gf2Solution)
                    assert np.array_equal((mat @ bits_of(outcome.assignment, cols)) % 2, rhs)
                else:
                    refuted += 1
                    assert outcome == Certificate(selected=expected)
                    assert_circuit(mat, outcome.selected)
        assert refuted > 120

    def test_certificate_selected_indices(self):
        system = Gf2System(matrix=BitMatrix((0b01, 0b01, 0b10), 2), rhs=0b010, labels=("u", "v"))
        outcome = solve(system)
        assert isinstance(outcome, Certificate)
        assert outcome.selected == (0, 1)
        assert verify_certificate(system, outcome)
        assert not verify_certificate(system, Certificate(selected=(0, 2)))
        with pytest.raises(ValueError):
            verify_certificate(system, Certificate(selected=(0, 3)))

    @pytest.mark.parametrize("consistent", [True, False])
    def test_tall_system_builds_no_dense_transform(self, consistent):
        """Peak memory stays far below the n x n transform's n^2 bytes.

        The solution is still exactly the one the reference transform
        gives, and the certificate the reference one.
        """
        rng = np.random.default_rng(45)
        n, cols = 4000, 40
        mat = random_matrix(rng, n, cols)
        if consistent:
            rhs = (mat @ rng.integers(0, 2, size=cols).astype(np.uint8)) % 2
        else:
            rhs = rng.integers(0, 2, size=n).astype(np.uint8)
        system = bit_system(mat, rhs)
        tracemalloc.start()
        try:
            outcome = solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 4
        if consistent:
            assert isinstance(outcome, Gf2Solution)
            _, pivots, transform = reference_rref(mat)
            expected = np.zeros(cols, dtype=np.uint8)
            expected[list(pivots)] = ((transform @ rhs) % 2)[: len(pivots)]
            assert np.array_equal(bits_of(outcome.assignment, cols), expected)
        else:
            assert outcome == Certificate(selected=reference_certificate(mat, rhs))

    def test_solve_rows_reads_no_row_past_the_certificate(self):
        """The streamed loop gives solve's outcome and stops reading at 0 = 1."""
        rng = np.random.default_rng(2402)
        refuted = 0
        for _ in range(200):
            n, cols = int(rng.integers(0, 14)), int(rng.integers(1, 8))
            mat = sparse_matrix(rng, n, cols, 0.35)
            system = bit_system(mat, rng.integers(0, 2, size=n).astype(np.uint8))
            read = []

            def stream():
                for r, row in enumerate(system.matrix.rows):
                    read.append(r)
                    yield row, system.rhs >> r & 1

            outcome = gf2.solve_rows(stream(), cols)
            assert outcome == solve(system)
            if isinstance(outcome, Certificate):
                refuted += 1
                assert read == list(range(outcome.selected[-1] + 1))
            else:
                assert read == list(range(n))
        assert refuted > 40

    def test_assignment_is_binary_lowest(self):
        """The assignment is the first solution in binary order, variable 0 first."""
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            mat = sparse_matrix(rng, int(rng.integers(1, 15)), n, 0.3)
            rhs = (mat @ rng.integers(0, 2, size=n).astype(np.uint8)) % 2
            outcome = solve(bit_system(mat, rhs))
            assert isinstance(outcome, Gf2Solution)
            assert np.array_equal(bits_of(outcome.assignment, n), brute_solutions(mat, rhs)[0])


class TestAffine:
    def test_input_vector(self):
        assert input_vector(0, 2) == (0, 0)
        assert input_vector(1, 2) == (0, 1)
        assert input_vector(2, 2) == (1, 0)
        assert input_vector(3, 2) == (1, 1)
        assert input_vector(5, 3) == (1, 0, 1)

    def test_evaluate_checks_arity(self):
        form = AffineForm(coefficients=(1, 0), constant=1)
        with pytest.raises(ValueError):
            form.evaluate((1,))

    def test_fit_recovers_known_forms(self):
        xor = fit_affine([0, 1, 1, 0])
        assert xor == AffineForm(coefficients=(1, 1), constant=0)
        negated = fit_affine([1, 0, 0, 1])
        assert negated == AffineForm(coefficients=(1, 1), constant=1)
        constant = fit_affine([1, 1, 1, 1])
        assert constant == AffineForm(coefficients=(0, 0), constant=1)
        second_bit = fit_affine([0, 1, 0, 1])
        assert second_bit == AffineForm(coefficients=(0, 1), constant=0)

    def test_fit_rejects_non_affine(self):
        assert fit_affine([0, 1, 1, 1]) is None
        assert fit_affine([0, 0, 0, 1]) is None
        assert fit_affine([0, 1, 1, 0, 1, 0, 0, 0]) is None

    def test_exhaustive_agreement_small_arity(self):
        """fit_affine accepts exactly the affine tables for m <= 2."""
        for m in (1, 2):
            affine = exhaustive_affine_tables(m)
            for index in range(1 << (1 << m)):
                table = tuple((index >> k) & 1 for k in range(1 << m))
                form = fit_affine(table)
                if table in affine:
                    assert form is not None
                    recovered = tuple(
                        form.evaluate(input_vector(i, m)) for i in range(1 << m)
                    )
                    assert recovered == table
                else:
                    assert form is None

    def test_fit_recovers_random_forms(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            planted = AffineForm(
                coefficients=tuple(int(b) for b in rng.integers(0, 2, size=m)),
                constant=int(rng.integers(0, 2)),
            )
            table = [planted.evaluate(input_vector(i, m)) for i in range(1 << m)]
            assert fit_affine(table) == planted

    def test_fit_requires_power_of_two(self):
        with pytest.raises(ValueError):
            fit_affine([0, 1, 0])
        with pytest.raises(ValueError):
            fit_affine([])

    def test_fit_matches_the_scan_oracle(self):
        """The whole-table fit agrees with the input-by-input scan.

        Random tables of every arity up to 10, random affine tables, every
        affine table of up to 6 bits with one output flipped, and the same
        tables given as bools.
        """
        rng = np.random.default_rng(35)
        tables = []
        for m in range(11):
            for _ in range(20):
                tables.append(tuple(int(b) for b in rng.integers(0, 2, size=1 << m)))
                planted = AffineForm(
                    coefficients=tuple(int(b) for b in rng.integers(0, 2, size=m)),
                    constant=int(rng.integers(0, 2)),
                )
                tables.append(tuple(planted.evaluate(input_vector(i, m)) for i in range(1 << m)))
        for m in range(7):
            for table in exhaustive_affine_tables(m):
                for index in range(1 << m):
                    tables.append(table[:index] + (table[index] ^ 1,) + table[index + 1:])
        affine = 0
        for table in tables:
            expected = reference_fit_affine(table)
            assert fit_affine(table) == expected
            assert fit_affine([bool(b) for b in table]) == expected
            affine += expected is not None
        assert 200 < affine < len(tables) - 1000

    @pytest.mark.parametrize("bad", [2, -1, 256, None, "1", [1]])
    def test_fit_refuses_non_bits(self, bad):
        for table in ([bad], [0, bad], [bad, 0, 1, 1], [0, 1, 1, bad]):
            with pytest.raises(ValueError, match="^entries must be bits$"):
                fit_affine(table)
