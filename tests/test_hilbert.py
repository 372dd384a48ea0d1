import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import (
    DimensionError,
    OrthonormalBasis,
    StateVector,
    haar_unitary,
    orthonormality_defect,
    random_state,
    standard_basis,
)
from bornlab import build_ledger, construction, hilbert
from bornlab.construction import partial_dft_basis

import reference


def e(i, n):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return StateVector(v)


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


class TestHaarUnitary:
    def test_n1_is_a_phase(self):
        u = haar_unitary(1, 123)
        assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        u = haar_unitary(8, 7).matrix.T  # the basis U e_1 .. U e_n holds U^T
        defect = np.max(np.abs(u.conj().T @ u - np.eye(8)))
        assert defect <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 64])
    def test_defect_is_that_of_the_unitary(self, n):
        # the basis U e_1 .. U e_n reports max_ij |(U^H U - I)_ij|, bit for bit
        u = reference.haar(n, 5)
        assert haar_unitary(n, 5).defect == float(np.abs(u.conj().T @ u - np.eye(n)).max())

    def test_determinism_bit_identical(self):
        a = haar_unitary(8, 7)
        b = haar_unitary(8, 7)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_zero_dimension(self):
        with pytest.raises(DimensionError):
            haar_unitary(0, 1)

    @pytest.mark.parametrize("n", [2, 16, 64, 256])
    def test_orthonormality_defect_up_to_256(self, n):
        assert orthonormality_defect(haar_unitary(n, 42)) <= 1e-10


class TestHaarStack:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 32])
    def test_each_entry_is_the_single_seed_draw_bit_for_bit(self, n):
        # the basis of each seed holds, bit for bit, the transpose of the one
        # unitary the reference draws from default_rng(seed), read-only
        for seed in [3, 0, 2**63 - 1, 12345, 7]:
            basis = haar_unitary(n, seed)
            assert basis.matrix.tobytes() == reference.haar(n, seed).T.tobytes()
            assert not basis.matrix.flags.writeable

    @pytest.mark.parametrize("value, error", [
        (1e-6, r"basis is not orthonormal: Gram defect 1\.000e-06"),
        (np.nan, r"amplitudes must be finite \(no NaN/Inf\)"),
    ])
    def test_draw_is_gram_checked(self, monkeypatch, value, error):
        q = np.eye(3, dtype=complex)
        q[0, 1] = value
        monkeypatch.setattr(np.linalg, "qr", lambda z: (q.copy(), np.eye(3, dtype=complex)))
        with pytest.raises(ValueError, match=error):
            haar_unitary(3, 0)


class TestApplyUnitary:
    def test_identity(self):
        v = random_state(4, 3)
        assert StateVector(standard_basis(4).matrix @ v.amplitudes) == v

    def test_phase_gate(self):
        u = OrthonormalBasis(np.diag([1j, 1.0]))
        out = StateVector(u.matrix @ e(0, 2).amplitudes)
        assert np.allclose(out.amplitudes, [1j, 0.0])

    def test_preserves_inner_products(self):
        for seed in range(20):
            v = random_state(6, seed)
            w = random_state(6, seed + 1000)
            u = haar_unitary(6, seed + 2000).matrix.T
            before = np.vdot(v.amplitudes, w.amplitudes)
            after = np.vdot(u @ v.amplitudes, u @ w.amplitudes)
            assert abs(after - before) <= 1e-12

    def test_preserves_norm(self):
        v = random_state(32, 5)
        u = haar_unitary(32, 6).matrix.T
        out = StateVector(u @ v.amplitudes)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reference.rotate_basis(reference.haar(3, 0), standard_basis(4))


def test_haar_unitary_checks_unitarity_once(monkeypatch):
    specs = build_ledger(4, rotate_bases=True, seed=3)
    entries = np.flatnonzero(specs.ns == 3).tolist()  # K = 1, 2 over one Haar base
    calls, real = [], hilbert._gram_defect

    def counted(stack):
        calls.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(hilbert, "_gram_defect", counted)
    u = haar_unitary(8, 3)
    assert calls == [(8, 8)]  # OrthonormalBasis's check, whose defect the kernel reads
    assert u.defect == real(u.matrix)
    # a rotated base of certificates is its Haar draw, checked once; then
    # each entry's partial-DFT basis is checked
    calls.clear()
    probes = list(construction.certificate_probes(specs, entries))
    assert len(probes) == 2 and calls == [(3, 3)] * 3


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_haar_invariance_property(n, seed):
    v = random_state(n, seed)
    w = random_state(n, seed ^ 0xA5A5)
    u = haar_unitary(n, seed ^ 0x5A5A).matrix.T
    before = np.vdot(v.amplitudes, w.amplitudes)
    after = np.vdot(u @ v.amplitudes, u @ w.amplitudes)
    assert abs(after - before) <= 1e-12


class TestOrthonormalityDefect:
    def test_standard_basis(self):
        assert orthonormality_defect(standard_basis(4)) <= 1e-15

    def test_repeated_vector(self):
        v = e(0, 2).amplitudes
        assert orthonormality_defect(np.vstack([v, v])) == pytest.approx(1.0)

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
            orthonormality_defect(np.vstack([e(0, 3).amplitudes, e(1, 3).amplitudes]))


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
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1.0

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
