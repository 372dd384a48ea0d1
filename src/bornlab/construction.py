"""The two explicit constructions behind the rational constraint ledger.

Given any orthonormal basis of C^N this module builds

- the symmetric state: the equal-weight superposition
  ``e^{i theta} (1/sqrt(N)) sum_i v_i``, whose overlap with every basis
  vector has modulus 1/sqrt(N);
- the partial-DFT basis: the first K base vectors mixed by K-th roots of
  unity, the remaining N-K untouched.  Its first vector overlaps the
  symmetric state with modulus sqrt(K/N), vectors 2..K are orthogonal to
  it, and the tail keeps modulus 1/sqrt(N).

Together these pin the probability of an overlap of modulus sqrt(K/N)
to exactly K/N; the ledger in :mod:`bornlab.derivation` is built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateError, ParameterError
from .hilbert import OrthonormalBasis, StateVector

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SymmetricState:
    """Equal-weight superposition of a full orthonormal basis, with an
    explicit global phase theta kept separate from the amplitudes."""

    base: OrthonormalBasis
    theta: float
    state: StateVector


@dataclass(frozen=True)
class PartialDftBasis:
    """Basis whose first K vectors mix base vectors 1..K by K-th roots of
    unity; the last N-K vectors equal the base vectors exactly."""

    base: OrthonormalBasis
    K: int
    vectors: OrthonormalBasis


def symmetric_state(base: OrthonormalBasis, theta: float) -> SymmetricState:
    """Build e^{i theta} (1/sqrt(N)) sum_i v_i over the given basis.

    theta outside [0, 2 pi) is normalized modulo 2 pi; this is documented
    behavior, not an error.
    """
    theta = float(theta) % TWO_PI
    n = base.dim
    amps = np.exp(1j * theta) / math.sqrt(n) * base.matrix.sum(axis=0)
    return SymmetricState(base=base, theta=theta, state=StateVector(amps))


def dft_block(k: int) -> np.ndarray:
    """The K x K matrix exp(-2 pi i (l-1)(j-1)/K)/sqrt(K), row index j.

    Roots of unity are evaluated as exp of the exact angle multiple, not
    by repeated multiplication, so there is no error accumulation in K.
    """
    j, l = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    return np.exp(-1j * TWO_PI * (l * j) / k) / math.sqrt(k)


def partial_dft_basis(
    base: OrthonormalBasis, K: int, block: Optional[np.ndarray] = None
) -> PartialDftBasis:
    """Mix the first K base vectors by the DFT block, keep the rest.

    ``block`` is ``dft_block(K)``, for a caller that already holds it.
    """
    n = base.dim
    if not 1 <= K < n:
        raise ParameterError(f"require 1 <= K < N, got K={K}, N={n}")
    rows = np.array(base.matrix)
    rows[:K] = (dft_block(K) if block is None else block) @ base.matrix[:K]
    return PartialDftBasis(base=base, K=K, vectors=OrthonormalBasis(rows))


def overlap_with_symmetric(tilde: PartialDftBasis, psi_star: SymmetricState) -> np.ndarray:
    """Overlaps <tilde v_j | psi*> for j = 1..N.

    Contract: entry 1 equals e^{i theta} sqrt(K/N), entries 2..K vanish,
    entries K+1..N equal e^{i theta}/sqrt(N).
    """
    if tilde.base is not psi_star.base and not np.array_equal(
        tilde.base.matrix, psi_star.base.matrix
    ):
        raise CertificateError("partial-DFT basis and symmetric state use different bases")
    return tilde.vectors.matrix.conj() @ psi_star.state.amplitudes


def overlap_contract_error(
    overlaps: np.ndarray, K: int, n: int, theta: float
) -> float:
    """Max deviation of computed overlaps from the three-block contract."""
    phase = np.exp(1j * (float(theta) % TWO_PI))
    expected = np.empty(n, dtype=np.complex128)
    expected[0] = phase * math.sqrt(K / n)
    expected[1:K] = 0.0
    expected[K:] = phase / math.sqrt(n)
    return float(np.max(np.abs(overlaps - expected)))
