"""Stabilizer groups, checked against the dense state they stabilize."""
import numpy as np
import pytest

from contextua.contexts import MinusIdentityError, NonCommutingGeneratorsError
from contextua.fixtures import ghz_group
from contextua.pauli import NonHermitianError, PauliOperator, parse_pauli
from contextua.stabilizer import DependentGeneratorsError, make_stabilizer, member_sign

from conftest import (
    dense_operator,
    ghz_vector,
    random_pauli,
    random_stabilizer_group,
    stabilizer_state,
)


def ops(*texts):
    return [parse_pauli(t) for t in texts]


def expectation(state, op):
    return np.vdot(state, dense_operator(op) @ state).real


class TestMakeStabilizer:
    def test_ghz_generators(self):
        group = ghz_group()
        assert group.width == 3
        assert group.rank == 3
        assert [g.body() for g in group.generators] == ["XXX", "ZZI", "IZZ"]

    def test_signed_generators_are_kept(self):
        group = make_stabilizer(ops("-X"))
        assert group.generators[0].sign == -1

    def test_rejects_sign_conflict(self):
        with pytest.raises(MinusIdentityError):
            make_stabilizer(ops("X", "-X"))

    def test_rejects_dependent_generator(self):
        with pytest.raises(DependentGeneratorsError):
            make_stabilizer(ops("X", "X"))
        with pytest.raises(DependentGeneratorsError):
            make_stabilizer(ops("XI", "IX", "XX"))

    def test_rejects_dependent_sign_conflict(self):
        with pytest.raises(MinusIdentityError):
            make_stabilizer(ops("XI", "IX", "-XX"))

    def test_rejects_noncommuting(self):
        with pytest.raises(NonCommutingGeneratorsError):
            make_stabilizer(ops("X", "Z"))

    def test_rejects_empty_and_mixed_width(self):
        with pytest.raises(ValueError):
            make_stabilizer([])
        with pytest.raises(ValueError):
            make_stabilizer(ops("X", "XX"))

    @pytest.mark.parametrize(
        "gens,error,message",
        [
            ([], ValueError, "at least one generator is required"),
            (ops("X", "XX"), ValueError, "width mismatch: 2 vs 1"),
            ([PauliOperator(1, 1, 0, 1)], ValueError,
             "non-Hermitian generator: PauliOperator(width=1, x=0x1, z=0x0, phase_exp=1)"),
            (ops("II"), DependentGeneratorsError, "+II is the product of earlier generators"),
            (ops("-II"), MinusIdentityError,
             "-II conflicts in sign with the product of earlier generators"),
            (ops("XI", "IZ", "ZI"), NonCommutingGeneratorsError, "XI and ZI do not commute"),
            (ops("XI", "IX", "XX", "ZI"), NonCommutingGeneratorsError,
             "XI and ZI do not commute"),
            (ops("X", "X"), DependentGeneratorsError, "+X is the product of earlier generators"),
            (ops("XI", "IX", "-XX"), MinusIdentityError,
             "-XX conflicts in sign with the product of earlier generators"),
            (ops("X", "-X"), MinusIdentityError,
             "-X conflicts in sign with the product of earlier generators"),
        ],
        ids=["empty", "width", "non-hermitian", "identity", "minus-identity",
             "non-commuting", "non-commuting-before-dependent", "repeated",
             "dependent-sign-conflict", "opposite-signs"],
    )
    def test_error_contract(self, gens, error, message):
        """Type and message of every refusal, in the documented precedence."""
        with pytest.raises(ValueError) as excinfo:
            make_stabilizer(gens)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


class TestMemberSign:
    def test_ghz_fixtures(self):
        group = ghz_group()
        assert member_sign(group, parse_pauli("XXX")) == 0
        assert member_sign(group, parse_pauli("-XXX")) == 1
        assert member_sign(group, parse_pauli("XYY")) == 1
        assert member_sign(group, parse_pauli("YXY")) == 1
        assert member_sign(group, parse_pauli("YYX")) == 1
        assert member_sign(group, parse_pauli("ZII")) is None
        assert member_sign(group, parse_pauli("III")) == 0
        with pytest.raises(NonHermitianError):
            member_sign(group, PauliOperator(3, 0b111, 0, 1))  # iXXX

    def test_matches_dense_expectation(self):
        """Bits 0/1 and None line up with ⟨ψ|P|ψ⟩ = +1/-1/0."""
        rng = np.random.default_rng(301)
        for _ in range(40):
            width = int(rng.integers(1, 6))
            group = random_stabilizer_group(rng, width)
            state = stabilizer_state(group)
            for _ in range(12):
                query = random_pauli(rng, width)
                bit = member_sign(group, query)
                value = expectation(state, query)
                assert abs(value - (0 if bit is None else 1 - 2 * bit)) < 1e-9

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            member_sign(ghz_group(), parse_pauli("XX"))


class TestStateVector:
    """The conftest stabilizer_state oracle the membership tests rely on."""

    def test_ghz_amplitudes(self):
        assert np.allclose(stabilizer_state(ghz_group()), ghz_vector())

    def test_single_qubit_fixtures(self):
        z_up = stabilizer_state(make_stabilizer(ops("Z")))
        assert np.allclose(z_up, [1.0, 0.0])
        z_down = stabilizer_state(make_stabilizer(ops("-Z")))
        assert np.allclose(z_down, [0.0, 1.0])
        plus = stabilizer_state(make_stabilizer(ops("X")))
        assert np.allclose(plus, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_generators_fix_the_state(self):
        rng = np.random.default_rng(302)
        for _ in range(30):
            width = int(rng.integers(1, 6))
            group = random_stabilizer_group(rng, width)
            state = stabilizer_state(group)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
            for g in group.generators:
                assert np.allclose(dense_operator(g) @ state, state)

    def test_repeated_calls_are_identical(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            group = random_stabilizer_group(rng, int(rng.integers(1, 5)))
            assert np.array_equal(stabilizer_state(group), stabilizer_state(group))


class TestDensePath:
    def test_expectation_fixtures(self):
        zero = stabilizer_state(make_stabilizer(ops("Z")))
        assert abs(expectation(zero, parse_pauli("X"))) < 1e-12
        assert abs(expectation(zero, parse_pauli("Z")) - 1.0) < 1e-12
        ghz = stabilizer_state(ghz_group())
        assert abs(expectation(ghz, parse_pauli("XYY")) + 1.0) < 1e-12
        assert abs(expectation(ghz, parse_pauli("ZZI")) - 1.0) < 1e-12
