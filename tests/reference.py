"""Per-probe reference forms of the package's stacked paths.

Each falsifier function here scores, samples or climbs one probe at a
time.  The guard tests require the package's stacked paths to give the
same results, bit for bit.  ``full_certificate`` builds one ledger
entry's N x N construction, against which the certificate kernel's
per-K numbers and Haar bounds are checked.  ``geometric_series_overlap``
is the independent route to the partial-DFT basis's inner products.
"""

import numpy as np
from scipy.linalg import expm

from bornlab import OrthonormalBasis, ParameterError, orthonormality_defect, random_state
from bornlab.axioms import evaluate
from bornlab.construction import TWO_PI, overlap_contract_error
from bornlab.derivation import certificate_probes


def haar(n: int, seed: int) -> np.ndarray:
    """One Haar unitary: two n x n normal draws, one QR, diag(R) phases fixed."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def normalization(p, matrix: np.ndarray, amplitudes: np.ndarray) -> float:
    """|sum_i p(<v_i|psi>) - 1| for one pair: a matrix-vector product and a 1-d sum."""
    return abs(float(evaluate(p, matrix.conj() @ amplitudes).sum()) - 1.0)


def hill_climb(p, n: int, steps: int, step_scale: float, seed: int):
    """The climber one step at a time: draw, exponentiate, score, keep if better."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, n]))
    state = random_state(n, int(rng.integers(2**63)))
    u = haar(n, int(rng.integers(2**63)))
    best = normalization(p, u, state.amplitudes)
    trace = [best]
    scale = step_scale
    rejections = 0
    for _ in range(steps):
        if scale < 1e-6:
            break
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        candidate_u = u @ expm(scale * ((a - a.conj().T) / 2.0))
        residual = normalization(p, candidate_u, state.amplitudes)
        if residual > best:
            u, best = candidate_u, residual
            rejections = 0
        else:
            rejections += 1
            if rejections >= 20:
                scale /= 2.0
                rejections = 0
        trace.append(best)
    return u, state, best, trace


def random_phase(p, cfg):
    """(witness JSON or None, probes) of the random phase, one trial at a time."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        for t in range(cfg.random_trials):
            sub = int(np.random.SeedSequence([cfg.seed, 2, n, t]).generate_state(1)[0])
            u = haar(n, sub)
            state = random_state(n, sub + 1)
            probes += 1
            residual = normalization(p, u, state.amplitudes)
            if residual >= cfg.violation_threshold:
                return _witness(p, n, state, u, residual, (cfg.seed, 2, n, t, sub),
                                "RandomBasis"), probes
    return None, probes


def optimizer_phase(p, cfg):
    """(witness JSON or None, probes) of the optimizer phase, one step at a time."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        u, state, best, trace = hill_climb(p, n, cfg.optimizer_steps, cfg.step_scale, cfg.seed)
        probes += len(trace)
        if best >= cfg.violation_threshold:
            return _witness(p, n, state, u, best, (cfg.seed, 3, n), "OptimizedBasis"), probes
    return None, probes


def _witness(p, n, state, u, residual, seed_chain, tag) -> dict:
    return {
        "candidate": p.name,
        "axiom": "normalization",
        "dimension": n,
        "state": state.to_json(),
        "basis": OrthonormalBasis(u).to_json(),
        "residual": residual,
        "seed_chain": list(seed_chain),
        "construction_tag": tag,
    }


def geometric_series_overlap(j: int, m: int, K: int) -> complex:
    """<tilde v_j | tilde v_m> by direct geometric-series summation.

    Returns (1/K) sum_{l=1}^{K} exp(-2 pi i (m-j)/K)^{l-1}, which is 1 for
    m = j and 0 otherwise (up to float error).  Indices are 1-based.
    """
    if not (1 <= j <= K and 1 <= m <= K):
        raise ParameterError(f"require 1 <= j, m <= K, got j={j}, m={m}, K={K}")
    ratio = np.exp(-1j * TWO_PI * (m - j) / K)
    total = sum(ratio ** (l - 1) for l in range(1, K + 1))
    return complex(total / K)


def full_certificate(spec):
    """(defect, overlap errors) of one ledger entry (K, N, thetas, base_kind,
    base_seed), from its N x N partial-DFT basis and one symmetric state per
    theta, each built over the entry's own base, standard or Haar-rotated.
    For K = N the state is the base's first vector, and the defect is 0."""
    k, n, thetas, kind, sub = spec
    thetas = tuple(t % TWO_PI for t in thetas)
    [(_, basis, states)] = certificate_probes([(k, n, thetas, kind, sub)])
    defect = orthonormality_defect(basis) if k < n else 0.0
    errors = [overlap_contract_error(basis.matrix.conj() @ state.amplitudes, k, n, t)
              for state, t in zip(states, thetas)]
    return defect, errors
