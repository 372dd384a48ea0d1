import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import (
    DimensionError,
    OrthonormalBasis,
    StateVector,
    UnitaryMatrix,
    haar_unitary,
    inner_product,
    orthonormality_defect,
    random_state,
    standard_basis,
)
from bornlab.construction import partial_dft_basis
from bornlab import hilbert
from bornlab.hilbert import _check_unitary, haar_unitaries

import reference


def e(i, n):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return StateVector(v)


class TestInnerProduct:
    def test_identity_case(self):
        assert inner_product(e(0, 2), e(0, 2)) == 1 + 0j

    def test_orthogonality(self):
        assert inner_product(e(0, 2), e(1, 2)) == 0j

    def test_direct_expansion(self):
        plus = StateVector(np.array([1, 1]) / math.sqrt(2))
        assert inner_product(plus, e(0, 2)) == pytest.approx(1 / math.sqrt(2))

    def test_conjugate_linear_in_first_argument(self):
        a = StateVector(np.array([1j, 0.0]))
        b = e(0, 2)
        assert inner_product(a, b) == pytest.approx(-1j)
        assert inner_product(b, a) == pytest.approx(1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(e(0, 2), e(0, 3))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))

    def test_immutable(self):
        v = e(0, 3)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0

    def test_json_round_trip(self):
        v = random_state(5, 11)
        assert StateVector.from_json(v.to_json()) == v


class TestHaarUnitary:
    def test_n1_is_a_phase(self):
        u = haar_unitary(1, 123)
        assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        u = haar_unitary(8, 7)
        defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(8)))
        assert defect <= 1e-10

    def test_determinism_bit_identical(self):
        a = haar_unitary(8, 7)
        b = haar_unitary(8, 7)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_zero_dimension(self):
        with pytest.raises(DimensionError):
            haar_unitary(0, 1)

    @pytest.mark.parametrize("n", [2, 16, 64, 256])
    def test_orthonormality_defect_up_to_256(self, n):
        u = haar_unitary(n, 42)
        assert orthonormality_defect(OrthonormalBasis(u.matrix)) <= 1e-10


class TestHaarStack:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 32])
    def test_each_entry_is_the_single_seed_draw_bit_for_bit(self, n):
        seeds = [3, 0, 2**63 - 1, 12345, 7]
        stack = haar_unitaries(n, seeds)
        assert stack.shape == (len(seeds), n, n)
        for seed, u in zip(seeds, stack):
            assert u.tobytes() == reference.haar(n, seed).tobytes()
            assert haar_unitary(n, seed).matrix.tobytes() == u.tobytes()

    def test_stack_is_read_only(self):
        with pytest.raises(ValueError):
            haar_unitaries(3, [1, 2])[0, 0, 0] = 0.0

    def test_check_names_the_worst_matrix_of_a_stack(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 4)
        _check_unitary(stack)
        stack[2, 0, 1] = 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(stack)
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _check_unitary(stack)


class TestApplyUnitary:
    def test_identity(self):
        v = random_state(4, 3)
        u = UnitaryMatrix(np.eye(4, dtype=complex))
        assert StateVector(u.matrix @ v.amplitudes) == v

    def test_phase_gate(self):
        u = UnitaryMatrix(np.diag([1j, 1.0]))
        out = StateVector(u.matrix @ e(0, 2).amplitudes)
        assert np.allclose(out.amplitudes, [1j, 0.0])

    def test_preserves_inner_products(self):
        for seed in range(20):
            v = random_state(6, seed)
            w = random_state(6, seed + 1000)
            u = haar_unitary(6, seed + 2000)
            before = inner_product(v, w)
            after = inner_product(StateVector(u.matrix @ v.amplitudes),
                                  StateVector(u.matrix @ w.amplitudes))
            assert abs(after - before) <= 1e-12

    def test_preserves_norm(self):
        v = random_state(32, 5)
        u = haar_unitary(32, 6)
        out = StateVector(u.matrix @ v.amplitudes)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reference.rotate_basis(haar_unitary(3, 0), standard_basis(4))


def test_haar_unitary_checks_unitarity_once(monkeypatch):
    calls, real = [], hilbert._check_unitary

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(hilbert, "_check_unitary", counted)
    u = haar_unitary(8, 3)
    assert calls == [(8, 8)]  # UnitaryMatrix's check, whose defect the kernel reads
    assert u.defect == real(u.matrix)
    haar_unitaries(8, [3, 4])
    assert calls == [(8, 8), (2, 8, 8)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_haar_invariance_property(n, seed):
    v = random_state(n, seed)
    w = random_state(n, seed ^ 0xA5A5)
    u = haar_unitary(n, seed ^ 0x5A5A)
    before = inner_product(v, w)
    after = inner_product(StateVector(u.matrix @ v.amplitudes),
                          StateVector(u.matrix @ w.amplitudes))
    assert abs(after - before) <= 1e-12


class TestOrthonormalityDefect:
    def test_standard_basis(self):
        assert orthonormality_defect(standard_basis(4)) <= 1e-15

    def test_repeated_vector(self):
        v = e(0, 2)
        assert orthonormality_defect([v, v]) == pytest.approx(1.0)

    def test_partial_dft_basis_against_direct_gram(self):
        # oracle: Gram matrix accumulated entry by entry with plain sums
        tilde = partial_dft_basis(standard_basis(6), 4)
        rows = tilde.vectors.matrix
        direct = 0.0
        for i in range(6):
            for j in range(6):
                g = sum(rows[i][k].conjugate() * rows[j][k] for k in range(6))
                direct = max(direct, abs(g - (1.0 if i == j else 0.0)))
        assert direct <= 1e-12
        assert orthonormality_defect(tilde.vectors) <= 1e-12
        assert abs(orthonormality_defect(tilde.vectors) - direct) <= 1e-13

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            orthonormality_defect([e(0, 3), e(1, 3)])


class TestRandomState:
    def test_n1_is_a_phase(self):
        v = random_state(1, 9)
        assert abs(abs(v.amplitudes[0]) - 1.0) <= 1e-12

    def test_unit_norm(self):
        v = random_state(16, 12345)
        assert abs(np.vdot(v.amplitudes, v.amplitudes).real - 1.0) <= 1e-12

    def test_distinct_seeds_differ(self):
        a = random_state(8, 1)
        b = random_state(8, 2)
        assert abs(inner_product(a, b)) < 1.0

    def test_determinism(self):
        assert random_state(16, 3) == random_state(16, 3)

    def test_zero_dimension(self):
        with pytest.raises(DimensionError):
            random_state(0, 1)
        with pytest.raises(DimensionError):
            hilbert.random_states(np.random.default_rng(1), 0, 1)

    def test_stack_rows_are_one_stream(self):
        stack = hilbert.random_states(np.random.default_rng(3), 6, 5)
        assert stack.shape == (5, 6) and not stack.flags.writeable
        # the same states however the stream is cut into calls
        rng = np.random.default_rng(3)
        cut = np.vstack([hilbert.random_states(rng, 6, k) for k in (2, 1, 2)])
        assert cut.tobytes() == stack.tobytes()
        # and one state at a time, n real then n imaginary parts each
        rng = np.random.default_rng(3)
        for row in stack:
            assert row.tobytes() == reference.haar_state(rng, 6).amplitudes.tobytes()
        for seed in [3, 11, 2**63 - 1]:
            first = hilbert.random_states(np.random.default_rng(seed), 6, 1)[0]
            assert first.tobytes() == random_state(6, seed).amplitudes.tobytes()

    @pytest.mark.parametrize("value, error", [
        (0.5, r"state is not normalized: <v\|v> = 0\.75"),
        (math.nan, "amplitudes must be finite"),
    ])
    def test_stack_checked_as_states(self, monkeypatch, value, error):
        # each row is checked as StateVector checks one state
        rows = hilbert._random_rows
        monkeypatch.setattr(hilbert, "_random_rows", lambda rng, n, count: np.vstack(
            [rows(rng, n, 1), np.full(n, value)]))
        with pytest.raises(ValueError, match=error):
            hilbert.random_states(np.random.default_rng(1), 3, 2)
