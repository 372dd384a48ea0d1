"""Finite-dimensional complex Hilbert space primitives.

States, orthonormal bases, unitaries, inner products, Haar sampling.
Conventions used throughout the package:

- the inner product is conjugate-linear in the FIRST argument
  (``inner_product(a, b) = sum_k conj(a_k) * b_k``);
- all randomness flows through ``numpy.random.default_rng`` (PCG64),
  seeded with explicit integers or ``SeedSequence`` keys of them, so every
  sampled object is reproducible bit-for-bit;
- basis vectors are stored as the ROWS of an N x N matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

NORM_TOLERANCE = 1e-12
ORTHO_TOLERANCE = 1e-10


def _complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise DimensionError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("empty array")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return arr


def _unit_states(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, a state or a stack of them as rows, once each
    state has unit norm: |<v|v> - 1| <= NORM_TOLERANCE."""
    for row in arr if arr.ndim == 2 else [arr]:
        norm_sq = float(np.real(np.vdot(row, row)))
        if abs(norm_sq - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: <v|v> = {norm_sq!r}")
    arr.setflags(write=False)
    return arr


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pairs_to_vector(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v).ravel()]


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [vector_to_pairs(row) for row in np.asarray(m)]


class StateVector:
    """A unit-norm vector of complex amplitudes in dimension N."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        self.amplitudes = _unit_states(_complex_array(amplitudes, 1))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def __hash__(self):
        return hash(self.amplitudes.tobytes())

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"

    def to_json(self) -> list[list[float]]:
        return vector_to_pairs(self.amplitudes)

    @classmethod
    def from_json(cls, pairs) -> "StateVector":
        return cls(pairs_to_vector(pairs))


class OrthonormalBasis:
    """N mutually orthonormal StateVectors, stored as rows of a matrix.

    ``defect`` is the Gram defect measured when the basis was validated.
    """

    __slots__ = ("matrix", "defect")

    def __init__(self, matrix):
        arr = _complex_array(matrix, 2)
        n, m = arr.shape
        if n != m:
            raise DimensionError(f"basis matrix must be square, got {arr.shape}")
        defect = _gram_defect(arr)
        if defect > ORTHO_TOLERANCE:
            raise ValueError(f"basis is not orthonormal: Gram defect {defect:.3e}")
        arr.setflags(write=False)
        self.matrix = arr
        self.defect = defect

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, i: int) -> StateVector:
        """Return the i-th basis vector (0-based)."""
        return StateVector(self.matrix[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, OrthonormalBasis) and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self) -> str:
        return f"OrthonormalBasis(dim={self.dim})"

    def to_json(self) -> list:
        return matrix_to_pairs(self.matrix)


class UnitaryMatrix:
    """An N x N unitary, validated at construction.

    ``defect`` is max_ij |(U^H U - I)_ij| as measured then.
    """

    __slots__ = ("matrix", "defect")

    def __init__(self, matrix):
        arr = _complex_array(matrix, 2)
        n, m = arr.shape
        if n != m:
            raise DimensionError(f"unitary must be square, got {arr.shape}")
        self.defect = _check_unitary(arr)
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _check_unitary(stack: np.ndarray) -> float:
    """max_ij |(U^H U - I)_ij| over every U of a (..., n, n) stack; raise
    ValueError unless each U is finite and that defect <= ORTHO_TOLERANCE."""
    if not np.isfinite(stack).all():
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    gram = stack.conj().swapaxes(-1, -2) @ stack
    gram -= np.eye(stack.shape[-1])
    defect = float(np.abs(gram).max())
    if defect > ORTHO_TOLERANCE:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    return defect


def haar_unitaries(n: int, seeds) -> np.ndarray:
    """Haar-uniform unitaries, one per seed, as a read-only (len(seeds), n, n) stack.

    Each seed draws a matrix of iid standard complex Gaussians from its own
    generator.  The stack is QR-factorized at once and the phases of diag(R)
    are fixed to make each decomposition unique, which makes each Q factor
    exactly Haar-distributed; every Q is checked to be unitary.  Entry i is
    bit for bit the unitary that seeds[i] alone gives.
    """
    q = _haar_q(n, seeds)
    _check_unitary(q)
    q.setflags(write=False)
    return q


def _haar_q(n: int, seeds) -> np.ndarray:
    """The unchecked Q factors of :func:`haar_unitaries`."""
    if n < 1:
        raise DimensionError("n must be >= 1")
    normals = np.empty((len(seeds), 2, n, n))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=normals[i])
    # (re + 1j * im) / sqrt(2), updated in place to keep one stack alive
    z = 1j * normals[:, 1]
    z += normals[:, 0]
    del normals
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    del z
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def haar_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Draw a Haar-uniform unitary, deterministically for a fixed seed: the
    stack-of-one case of :func:`haar_unitaries`, checked once, by
    ``UnitaryMatrix``."""
    return UnitaryMatrix(_haar_q(n, [seed])[0])


def orthonormality_defect(candidate) -> float:
    """max_ij |<v_i|v_j> - delta_ij| for a square collection of vectors.

    Diagnostic: accepts an OrthonormalBasis, a list of StateVectors, or a
    raw matrix with vectors as rows, orthonormal or not.  A basis reports
    the defect its constructor measured.
    """
    if isinstance(candidate, OrthonormalBasis):
        return candidate.defect
    if isinstance(candidate, (list, tuple)):
        m = np.vstack([v.amplitudes if isinstance(v, StateVector) else v for v in candidate])
    else:
        m = np.asarray(candidate, dtype=np.complex128)
    n, k = m.shape
    if n != k:
        raise DimensionError(f"need N vectors of dimension N, got {n} of dim {k}")
    return _gram_defect(m)


def _gram_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj() @ m.T - np.eye(m.shape[0]))))


def random_states(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The next count Haar-uniform states on the unit sphere of C^n from rng,
    as a read-only (count, n) stack of amplitudes, checked as StateVector
    checks one state.

    Each state takes the next 2n standard normals of rng's stream, n real
    parts and then n imaginary parts, over its own 1-D norm (a stacked norm
    sums in another order).  So the t-th state of a stream is the same bits
    however the stream is cut into calls, and ``random_state(n, seed)`` is
    the first state of ``default_rng(seed)``.
    """
    return _unit_states(_complex_array(_random_rows(rng, n, count), 2))


def _random_rows(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The unchecked rows of :func:`random_states`."""
    if n < 1:
        raise DimensionError("n must be >= 1")
    normals = rng.standard_normal((count, 2, n))
    states = normals[:, 0] + 1j * normals[:, 1]
    for row in states:
        row /= np.linalg.norm(row)
    return states


def random_state(n: int, seed: int) -> StateVector:
    """Haar-uniform state on the unit sphere of C^n, deterministic per seed:
    the first state of :func:`random_states` on ``default_rng(seed)``,
    checked once, by ``StateVector``."""
    return StateVector(_random_rows(np.random.default_rng(seed), n, 1)[0])


def standard_basis(n: int) -> OrthonormalBasis:
    """The computational basis e_1 .. e_n."""
    if n < 1:
        raise DimensionError("n must be >= 1")
    return OrthonormalBasis(np.eye(n, dtype=np.complex128))
