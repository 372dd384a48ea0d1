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
Ledger entries are held in columns (:class:`Specs`); :func:`entry_overlaps`
gives their overlaps in closed form, and :func:`certificate_probes` the
N x N matrices, for a witness or a full certificate.

Every inner product of the two constructions reduces to one identity of
the K-th roots of unity, which :func:`roots_of_unity_vanish` checks in
exact integer arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CertificateError, ParameterError
from .hilbert import OrthonormalBasis, StateVector, haar_unitary, standard_basis

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Specs:
    """The constructions of ledger entries in columns, in order.  Entry i
    has the modulus sqrt(ks[i] / ns[i]) in C^ns[i], the base of the Haar
    unitary of seed seeds[i] or, where that is -1, the standard basis, and
    the theta samples thetas[offsets[i]:offsets[i + 1]]: its theta rows."""

    ks: np.ndarray
    ns: np.ndarray
    seeds: np.ndarray
    thetas: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ks)

    def owners(self) -> np.ndarray:
        """The entry of each theta row."""
        return np.repeat(np.arange(len(self.ks)), np.diff(self.offsets))

    def select(self, keep: np.ndarray) -> "Specs":
        """The specs of the entries where the boolean ``keep`` holds, in order."""
        counts = np.diff(self.offsets)[keep]
        return Specs(self.ks[keep], self.ns[keep], self.seeds[keep],
                     self.thetas[keep[self.owners()]], np.r_[0, np.cumsum(counts)])


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
    """The K x K matrix exp(-2 pi i (l-1)(j-1)/K)/sqrt(K), row index j, read
    from a table of the K roots at index j l mod K: K exps, not K^2, each of
    an exact angle below 2 pi, so there is no error accumulation in K."""
    m = np.arange(k)
    return (np.exp(-1j * TWO_PI * m / k) / math.sqrt(k))[np.outer(m, m) % k]


def partial_dft_basis(base: OrthonormalBasis, K: int) -> PartialDftBasis:
    """Mix the first K base vectors by the DFT block, keep the rest."""
    n = base.dim
    if not 1 <= K < n:
        raise ParameterError(f"require 1 <= K < N, got K={K}, N={n}")
    rows = np.array(base.matrix)
    rows[:K] = dft_block(K) @ base.matrix[:K]
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


def entry_overlaps(ks, ns, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The first and the symmetric overlap, e^{i theta} sqrt(K/N) and
    e^{i theta}/sqrt(N), of each (K, N, theta) row, broadcast, theta reduced
    modulo 2 pi as the constructions reduce it.  The other K - 1 overlaps are
    0; the exact certificate proves all N for every theta, and any base has
    them by unitary invariance.  Each has the bits of one Python complex at
    a time: numpy's complex / float would multiply by a reciprocal."""
    t = np.remainder(np.broadcast_to(thetas, np.broadcast(ks, ns, thetas).shape), TWO_PI)
    phase = np.empty(t.shape, np.complex128)
    phase.real, phase.imag = np.cos(t), np.sin(t)
    del t
    first = phase * np.sqrt(np.divide(ks, ns))
    root = np.sqrt(ns)
    phase.real /= root
    phase.imag /= root
    return first, phase


def overlap_contract_error(overlaps: np.ndarray, K: int, n: int, theta: float) -> float:
    """Max deviation of computed overlaps from the three-block contract."""
    first, symmetric = entry_overlaps(K, n, theta)
    expected = np.full(n, symmetric)
    expected[0] = first
    expected[1:K] = 0.0
    return float(np.max(np.abs(overlaps - expected)))


def _rebuild_base(n: int, seed: int) -> OrthonormalBasis:
    """The standard basis for seed -1, else the rows of U^T for the Haar
    unitary U of that seed: each standard vector moved by U."""
    if seed < 0:
        return standard_basis(n)
    return OrthonormalBasis(haar_unitary(n, seed).matrix.T.copy())


def certificate_probes(specs: Specs, entries: Iterable[int]):
    """(entry, basis, states) behind the certificates of each of the given
    entries with K > 0, in order: the one place a certificate's N x N
    construction is built, for a falsifier witness and ``--full-certificates``.

    For K < N the partial-DFT basis and the symmetric state of each theta;
    for K = N the base itself and its first vector, phased by e^{i theta}.
    Each base, standard or Haar-rotated, is built once per call, at the
    first entry of its (N, seed): one base per (N, seed) in any order.
    """
    bases = {}
    for i in entries:
        k, n, seed = (int(column[i]) for column in (specs.ks, specs.ns, specs.seeds))
        if k == 0:
            continue
        if (n, seed) not in bases:
            bases[n, seed] = _rebuild_base(n, seed)
        base = bases[n, seed]
        thetas = specs.thetas[specs.offsets[i]:specs.offsets[i + 1]].tolist()
        if k == n:
            yield i, base, [StateVector(np.exp(1j * (t % TWO_PI)) * base.matrix[0])
                            for t in thetas]
        else:
            yield i, partial_dft_basis(base, k).vectors, [symmetric_state(base, t).state
                                                          for t in thetas]


@functools.lru_cache(maxsize=None)
def prime_factors(k: int) -> tuple[int, ...]:
    """The distinct primes dividing k >= 1, ascending."""
    primes, p = [], 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return tuple(primes + [k] if k > 1 else primes)


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """Integer coefficients of the k-th cyclotomic polynomial, constant
    term first: the product of (x^d - 1)^mu(k/d) over the divisors d of k."""
    factors = {1: [], -1: []}
    for d in range(1, k + 1):
        if k % d == 0:
            m, mu = k // d, 1
            for p in prime_factors(m):
                mu = 0 if (m // p) % p == 0 else -mu
            if mu:
                factors[mu].append(d)
    poly = [1]
    for d in factors[1]:  # times (x^d - 1)
        poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + d)]
    for d in factors[-1]:  # divided by (x^d - 1), exactly: q[i] = q[i - d] - a[i]
        quotient = []
        for i in range(len(poly) - d):
            quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
        poly = quotient
    return tuple(poly)


def divides(divisor, dividend) -> bool:
    """Whether the monic integer polynomial ``divisor`` divides ``dividend``
    in Z[x]; both are coefficient sequences, constant term first."""
    degree = len(divisor) - 1
    terms = [(j, a) for j, a in enumerate(divisor[:-1]) if a]
    rest = list(dividend)
    for i in range(len(rest) - 1, degree - 1, -1):
        c = rest[i]
        if c:
            for j, a in terms:
                rest[i - degree + j] -= c * a
            rest[i] = 0
    return not any(rest)


@functools.lru_cache(maxsize=None)
def roots_of_unity_vanish(k: int) -> bool:
    """Whether sum_{l<K} zeta^(d l) = 0 for every d not divisible by K,
    zeta = exp(-2 pi i / K), checked in exact integer arithmetic.

    These sums are K times the Gram entries of dft_block(K) off its
    diagonal, and sqrt(K N) e^{-i theta} times the overlaps of the
    partial-DFT vectors 2..K with the symmetric state, so one check covers
    every N > K and every theta.  Let
    g = gcd(d, K) < K.  The exponents d l mod K, l < K, are the multiples
    of g below K, g times each, so the sum is g (x^K - 1)/(x^g - 1) at
    x = zeta.  Some prime p | K has g | K/p, and then Phi_p(x^(K/p)) =
    (x^K - 1)/(x^(K/p) - 1) divides that quotient.  So it suffices that
    Phi_K, whose root zeta is, divides Phi_p(x^(K/p)) for each prime p | K;
    that is what is checked here.  For K = 1 there is no such d.
    """
    phi = cyclotomic(k)
    for p in prime_factors(k):
        dividend = [0] * ((p - 1) * (k // p) + 1)
        dividend[:: k // p] = [1] * p
        if not divides(phi, dividend):
            return False
    return True
