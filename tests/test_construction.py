import math

import numpy as np
import pytest

from bornlab import (
    CertificateError,
    ParameterError,
    orthonormality_defect,
    overlap_with_symmetric,
    partial_dft_basis,
    standard_basis,
    symmetric_state,
)
from bornlab.construction import (
    TWO_PI,
    _rebuild_base,
    dft_block,
    entry_overlaps,
    overlap_contract_error,
)
from bornlab.derivation import ledger_specs
from conftest import float_certificates
from reference import geometric_series_overlap, rotate_basis, spec_rows
import reference


class TestSymmetricState:
    def test_standard_basis_n4(self):
        psi = symmetric_state(standard_basis(4), 0.0)
        assert np.allclose(psi.state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_theta_pi_n2(self):
        psi = symmetric_state(standard_basis(2), math.pi)
        assert np.allclose(
            psi.state.amplitudes, [-1 / math.sqrt(2)] * 2, atol=1e-12
        )

    def test_rotated_basis_overlap_moduli(self):
        base = rotate_basis(reference.haar(9, 17), standard_basis(9))
        psi = symmetric_state(base, 1.3)
        for i in range(9):
            z = np.vdot(base.vector(i).amplitudes, psi.state.amplitudes)
            assert abs(abs(z) - 1 / 3) <= 1e-12

    def test_overlaps_carry_the_phase(self):
        theta = 0.7
        psi = symmetric_state(standard_basis(5), theta)
        expected = np.exp(1j * theta) / math.sqrt(5)
        for i in range(5):
            z = np.vdot(standard_basis(5).vector(i).amplitudes, psi.state.amplitudes)
            assert abs(z - expected) <= 1e-12

    def test_theta_normalized_mod_2pi(self):
        a = symmetric_state(standard_basis(3), 1.0)
        b = symmetric_state(standard_basis(3), 1.0 + 2 * math.pi)
        assert a.theta == pytest.approx(b.theta)
        assert np.allclose(a.state.amplitudes, b.state.amplitudes, atol=1e-12)

    def test_reexpansion_invariant(self):
        base = rotate_basis(reference.haar(6, 5), standard_basis(6))
        psi = symmetric_state(base, 2.2)
        rebuilt = np.exp(1j * psi.theta) / math.sqrt(6) * base.matrix.sum(axis=0)
        assert np.max(np.abs(rebuilt - psi.state.amplitudes)) <= 1e-12


class TestPartialDftBasis:
    def test_n4_k2_explicit(self):
        tilde = partial_dft_basis(standard_basis(4), 2)
        s = 1 / math.sqrt(2)
        expected = np.array(
            [[s, s, 0, 0], [s, -s, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        assert np.max(np.abs(tilde.vectors.matrix - expected)) <= 1e-15

    def test_k1_is_identity_on_base(self):
        base = standard_basis(3)
        tilde = partial_dft_basis(base, 1)
        assert np.allclose(tilde.vectors.matrix, base.matrix, atol=1e-15)

    def test_n6_k4_defect(self):
        tilde = partial_dft_basis(standard_basis(6), 4)
        assert orthonormality_defect(tilde.vectors) <= 1e-12

    def test_tail_untouched(self):
        base = rotate_basis(reference.haar(7, 1), standard_basis(7))
        tilde = partial_dft_basis(base, 3)
        assert np.array_equal(tilde.vectors.matrix[3:], base.matrix[3:])

    @pytest.mark.parametrize("k", [0, 5, 6])
    def test_k_out_of_range(self, k):
        with pytest.raises(ParameterError):
            partial_dft_basis(standard_basis(5), k)

    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64, 128])
    def test_defect_over_dimension_sweep(self, n):
        base = standard_basis(n)
        for k in range(1, n, max(1, n // 7)):
            tilde = partial_dft_basis(base, k)
            assert orthonormality_defect(tilde.vectors) <= 1e-10


class TestGeometricSeriesOverlap:
    def test_diagonal_is_one(self):
        assert geometric_series_overlap(3, 3, 5) == pytest.approx(1.0)

    def test_off_diagonal_k2(self):
        assert abs(geometric_series_overlap(1, 2, 2)) <= 1e-13

    def test_off_diagonal_k7(self):
        assert abs(geometric_series_overlap(2, 5, 7)) <= 1e-13

    def test_bad_indices(self):
        with pytest.raises(ParameterError):
            geometric_series_overlap(0, 1, 3)
        with pytest.raises(ParameterError):
            geometric_series_overlap(1, 4, 3)

    def test_agrees_with_constructed_inner_products(self):
        # the geometric series is the independent route; compare against
        # numerically constructed tilde vectors for every pair j, m <= K
        for k in range(1, 33):
            tilde = partial_dft_basis(standard_basis(k + 1), k)
            rows = tilde.vectors.matrix
            for j in range(1, k + 1):
                for m in range(1, k + 1):
                    series = geometric_series_overlap(j, m, k)
                    direct = np.vdot(rows[j - 1], rows[m - 1])
                    assert abs(series - direct) <= 1e-12


class TestOverlapWithSymmetric:
    def test_n4_k2_theta0(self):
        base = standard_basis(4)
        psi = symmetric_state(base, 0.0)
        tilde = partial_dft_basis(base, 2)
        overlaps = overlap_with_symmetric(tilde, psi)
        assert np.allclose(overlaps, [math.sqrt(0.5), 0.0, 0.5, 0.5], atol=1e-12)

    def test_n2_k1_theta0(self):
        base = standard_basis(2)
        overlaps = overlap_with_symmetric(
            partial_dft_basis(base, 1), symmetric_state(base, 0.0)
        )
        assert np.allclose(overlaps, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_n9_k4_moduli(self):
        base = standard_basis(9)
        overlaps = overlap_with_symmetric(
            partial_dft_basis(base, 4), symmetric_state(base, 2.0)
        )
        moduli = np.abs(overlaps)
        assert moduli[0] == pytest.approx(2 / 3, abs=1e-12)
        assert np.max(moduli[1:4]) <= 1e-12
        assert np.allclose(moduli[4:], 1 / 3, atol=1e-12)

    def test_mismatched_bases_rejected(self):
        base_a = standard_basis(4)
        base_b = rotate_basis(reference.haar(4, 2), standard_basis(4))
        tilde = partial_dft_basis(base_a, 2)
        with pytest.raises(CertificateError):
            overlap_with_symmetric(tilde, symmetric_state(base_b, 0.0))

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi, 5.5])
    @pytest.mark.parametrize("n", [2, 3, 9, 16, 40])
    def test_three_block_contract(self, n, theta):
        base = standard_basis(n)
        psi = symmetric_state(base, theta)
        for k in range(1, n):
            tilde = partial_dft_basis(base, k)
            overlaps = overlap_with_symmetric(tilde, psi)
            assert overlap_contract_error(overlaps, k, n, theta) <= 1e-11


def test_basis_covariance():
    # build over a rotated base, rotate the result back, compare with the
    # standard-basis construction
    n, k, theta = 8, 3, 1.1
    u = reference.haar(n, 99)
    rotated = rotate_basis(u, standard_basis(n))
    tilde_rot = partial_dft_basis(rotated, k)
    back = tilde_rot.vectors.matrix @ u.conj()
    tilde_std = partial_dft_basis(standard_basis(n), k)
    assert np.max(np.abs(back - tilde_std.vectors.matrix)) <= 1e-11
    psi_rot = symmetric_state(rotated, theta)
    psi_std = symmetric_state(standard_basis(n), theta)
    psi_back = u.conj().T @ psi_rot.state.amplitudes
    assert np.max(np.abs(psi_back - psi_std.state.amplitudes)) <= 1e-11


def test_standard_partial_dft_basis_is_blockdiag_of_dft_block():
    # the premise of the certificate kernel's standard-basis path
    for n in range(2, 25):
        for k in range(1, n):
            expected = np.eye(n, dtype=np.complex128)
            expected[:k, :k] = dft_block(k)
            tilde = partial_dft_basis(standard_basis(n), k)
            assert np.array_equal(tilde.vectors.matrix, expected), (k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 509])
def test_dft_block_is_the_root_table(k):
    # the table of K roots indexed by j l mod K, against an exp per entry
    j, l = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    direct = np.exp(-2j * math.pi * (j * l) / k) / math.sqrt(k)
    assert np.max(np.abs(dft_block(k) - direct)) <= 1e-13


@pytest.mark.parametrize("k", [509, 512])
def test_dft_block_rounding_at_the_dimension_bound(k):
    # an exp per entry gave a Gram defect of 5.7e-14 and a row-sum error
    # of 1.3e-12 at K = 509; the root table's angles stay below 2 pi
    block = dft_block(k)
    row_sums = block.conj().sum(axis=1)
    row_sums[0] -= math.sqrt(k)
    assert orthonormality_defect(block) < 1e-14
    assert np.max(np.abs(row_sums)) < 1e-14


def test_kernel_certificates_match_full_construction(ledger64):
    for (k, n, thetas, _), kernel_defect, kernel_errors in float_certificates(ledger64):
        if k == 0 or k == n:
            continue
        base = standard_basis(n)
        tilde = partial_dft_basis(base, k)
        defect = orthonormality_defect(tilde.vectors)
        assert abs(kernel_defect - defect) <= 1e-15
        for theta, kernel_error in zip(thetas, kernel_errors):
            theta %= TWO_PI
            psi = symmetric_state(base, theta)
            error = overlap_contract_error(overlap_with_symmetric(tilde, psi), k, n, theta)
            assert abs(kernel_error - error) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_haar_base_is_the_rotated_standard_basis(n, seed):
    # the rows of U^T, bit for bit the product I U^T that rotate_basis forms
    base = _rebuild_base(n, seed)
    rotated = rotate_basis(reference.haar(n, seed), standard_basis(n))
    assert base.matrix.tobytes() == rotated.matrix.tobytes()
    assert base.matrix.flags.c_contiguous


# 1e308 and -1e-20 (whose remainder rounds up to 2 pi itself) among them
ENTRY_THETAS = (0.0, 1.0, math.pi, 5.5, 1e308, -1e-20, -1e-300, TWO_PI, -TWO_PI, 7.25,
                -0.5, 100.0, 1e-300, 3 * math.pi, 2.0**60, -(2.0**40))


def _same_bits(column: np.ndarray, rows: np.ndarray) -> bool:
    return column.shape == rows.shape and np.array_equal(column.view(np.int64),
                                                         rows.view(np.int64))


def test_entry_overlaps_match_one_row_at_a_time():
    # the column form against one Python complex per row (math.cos, math.sin,
    # complex * float and complex / float), bit for bit
    assert -1e-20 % TWO_PI == TWO_PI
    _, specs = ledger_specs(64, ENTRY_THETAS, rotate_bases=True, seed=3)
    owners = specs.owners()
    first, symmetric = entry_overlaps(specs.ks[owners], specs.ns[owners], specs.thetas)
    rows = [(k, n, t) for k, n, thetas, _ in spec_rows(specs) for t in thetas]
    want_first, want_symmetric = reference.entry_overlaps(rows)
    assert _same_bits(first, want_first) and _same_bits(symmetric, want_symmetric)


@pytest.mark.parametrize("theta", [0.0, 2.5, 1e308, -1e-20])
def test_entry_overlaps_of_unreduced_rows(theta):
    # check_n_independence's rows: every K = 1..N of each N, at one theta
    dims = list(range(1, 41))
    ks = np.concatenate([np.arange(1, n + 1) for n in dims])
    ns = np.repeat(dims, dims)
    first, symmetric = entry_overlaps(ks, ns, theta)
    want_first, want_symmetric = reference.entry_overlaps(
        [(k, n, theta) for k, n in zip(ks.tolist(), ns.tolist())])
    assert _same_bits(first, want_first) and _same_bits(symmetric, want_symmetric)
