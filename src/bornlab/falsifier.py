"""Adversarial search for axiom violations of a candidate distribution.

Three phases, cheapest and most interpretable first:

1. ledger probes — every ledger certificate, scored in closed form from
   its exact overlaps (plus the P(0)/P(1) orthogonality probe), so any
   candidate that is wrong at a rational modulus is falsified without
   randomness;
2. random probes — Haar-random (basis, state) normalization residuals,
   each pair written in the frame of its basis: the standard basis and a
   Haar-random state.  The candidate sees only the overlaps <v_i|psi>,
   and those of a Haar state with any basis drawn independently of it
   form a Haar-random unit vector, so the basis need not be drawn;
3. optimizer — derivative-free hill climbing over the unit states of C^N
   in the standard basis, which again give every overlap vector: a step
   moves w to the renormalised w + eps * g, g random complex normals, and
   is kept if it increases the normalization residual.

The other two phases score their probes in stacks through one
``check_normalization`` call: a chunk of random trials, a window of
climbing steps.  A stack gives the same bits as scoring its probes one
at a time, and a phase stops at the same first violating probe, so
identical (candidate, config, specs) inputs produce identical outcomes,
witness bit patterns included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .axioms import (
    Axiom,
    CandidateDistribution,
    check_normalization,
    evaluate,
    orthogonality_residuals,
    random_probes,
)
from .construction import Specs, certificate_probes, entry_overlaps
from .errors import ParameterError
from .hilbert import OrthonormalBasis, StateVector, random_state, standard_basis
from .hilbert import haar_unitary  # noqa: F401  perfbench's tracer rebinds it here

STEP_WINDOW = 20  # rejections in a row after which the step scale halves
# 100x the default step scale.  Past it a step is no longer a local move: |eps * g|
# is about eps * sqrt(2N) >> |w| = 1, so the renormalised w + eps * g lies near
# the fresh Haar state g / |g|, a random probe.
MAX_STEP_SCALE = 10.0


def expm(x: np.ndarray) -> np.ndarray:
    """The Cayley map I + (I - X/2)^-1 X of a stack of skew-Hermitian X, by one
    solve: unitary, and exp(X) to second order (the difference is X^3/12 + O(X^4)).
    The equal (I - X/2)^-1 (I + X/2) drifts 2.5x further from unitary near I.
    Nothing in the package calls it; perfbench traces it as ``falsifier.expm``."""
    eye = np.eye(x.shape[-1])
    out = np.linalg.solve(eye - x / 2, x)
    out += eye
    return out


class ConstructionTag(Enum):
    LEDGER_CERTIFICATE = "LedgerCertificate"
    RANDOM_BASIS = "RandomBasis"
    OPTIMIZED_BASIS = "OptimizedBasis"


@dataclass(frozen=True)
class Witness:
    """Concrete inputs on which a candidate measurably violates an axiom."""

    candidate_name: str
    axiom: Axiom
    dimension: int
    state: StateVector
    basis: OrthonormalBasis
    residual: float
    seed_chain: tuple[int, ...]
    construction_tag: ConstructionTag
    candidate: Optional[CandidateDistribution] = field(
        default=None, compare=False, repr=False
    )

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate_name,
            "axiom": self.axiom.value,
            "dimension": self.dimension,
            "state": self.state.to_json(),
            "basis": self.basis.to_json(),
            "residual": self.residual,
            "seed_chain": list(self.seed_chain),
            "construction_tag": self.construction_tag.value,
        }


def _witness(p, axiom, basis, state, residual, seed_chain, tag) -> Witness:
    return Witness(p.name, axiom, basis.dim, state, basis, residual, seed_chain, tag, p)


@dataclass(frozen=True)
class FalsifierConfig:
    n_range: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    random_trials: int = 50
    optimizer_steps: int = 200
    step_scale: float = 0.1
    violation_threshold: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.random_trials < 0 or self.optimizer_steps < 0:
            raise ParameterError("trial and step counts must be >= 0")
        if not self.n_range or min(self.n_range) < 1:
            raise ParameterError("n_range must contain dimensions >= 1")
        for name in ("step_scale", "violation_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
        if self.step_scale > MAX_STEP_SCALE:
            raise ParameterError(
                f"step_scale must be <= {MAX_STEP_SCALE}, got {self.step_scale!r}"
            )


@dataclass(frozen=True)
class FalsifyResult:
    witness: Optional[Witness]
    probes: dict

    @property
    def falsified(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "falsified": self.falsified,
            "witness": self.witness.to_json() if self.witness else None,
            "probes": self.probes,
        }


def replay_witness(w: Witness, p: Optional[CandidateDistribution] = None) -> float:
    """Re-evaluate the violated axiom on the stored inputs.

    Must reproduce the recorded residual within 1e-12.
    """
    p = p or w.candidate
    if p is None:
        raise ParameterError("witness carries no candidate; pass one explicitly")
    if w.axiom is Axiom.ORTHOGONALITY:
        return _orthogonality_residual(p, w.basis)
    return check_normalization(p, w.basis, w.state)


def _orthogonality_residual(p, basis: OrthonormalBasis) -> float:
    """max_ij |p(<v_i|v_j>) - delta_ij|: ``check_orthogonality_axiom``'s
    residual, without the worst case it reports."""
    return float(orthogonality_residuals(p, basis)[2].max())


def _ledger_witness(p, specs: Specs, dims, cfg) -> tuple[Optional[Witness], int]:
    """The first certificate of a K > 0 entry with N in dims, in the specs'
    (N, K) order and then theta order, whose closed-form residual reaches
    the threshold, and the number scored up to it (all, if none does).  Only
    the witness's basis and state are built (``certificate_probes``), and
    its residual is scored on them, so that ``replay_witness`` reproduces it
    bit for bit."""
    specs = specs.select((specs.ks > 0) & np.isin(specs.ns, list(dims)))
    residuals = _ledger_residuals(p, specs)
    hits = np.flatnonzero(residuals >= cfg.violation_threshold)
    if hits.size == 0:
        return None, len(residuals)
    row = int(hits[0])
    [(i, basis, states)] = certificate_probes(specs, [int(specs.owners()[row])])
    state = states[row - specs.offsets[i]]
    witness = _witness(p, Axiom.NORMALIZATION, basis, state, check_normalization(p, basis, state),
                       (cfg.seed, 1, int(specs.ns[i]), int(specs.ks[i])),
                       ConstructionTag.LEDGER_CERTIFICATE)
    return witness, row + 1


def _ledger_residuals(p, specs: Specs) -> np.ndarray:
    """The normalization residual of the construction of each theta row of
    the specs, in order, from its exact overlaps z1 and zs
    (``entry_overlaps``): |P(z1) + (K - 1) P(0) + (N - K) P(zs) - 1|, from
    one ``evaluate`` call."""
    owners = specs.owners()
    ks, ns, rows = specs.ks[owners], specs.ns[owners], len(owners)
    values = evaluate(p, np.concatenate([*entry_overlaps(ks, ns, specs.thetas), [0.0]]))
    # a term of count 0 is 0, even where P is inf there
    zeros = np.multiply(ks - 1, values[-1], out=np.zeros(rows), where=ks > 1)
    tails = np.multiply(ns - ks, values[rows:-1], out=np.zeros(rows), where=ns > ks)
    return np.abs(values[:rows] + zeros + tails - 1.0)


def _ledger_phase(p, cfg, specs) -> tuple[Optional[Witness], int]:
    # P(0) = 0 and P(1) = 1 first: the two fixed points every candidate
    # must hit, which are the only overlaps in the Gram matrix of the
    # standard basis at the smallest dimension
    basis = standard_basis(max(min(cfg.n_range), 2))
    residual = _orthogonality_residual(p, basis)
    if residual >= cfg.violation_threshold:
        return _witness(p, Axiom.ORTHOGONALITY, basis, basis.vector(0), residual,
                        (cfg.seed, 1), ConstructionTag.LEDGER_CERTIFICATE), 2
    witness, probes = _ledger_witness(p, specs, set(cfg.n_range), cfg)
    return witness, 2 + probes


def _random_phase(p, cfg) -> tuple[Optional[Witness], int]:
    """Haar-random probes, trial t of dimension n the t-th state of the
    stream keyed (seed, 2, n) in the standard basis (``axioms.random_probes``);
    the first violating trial is the witness, with seed chain (seed, 2, n, t)."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        for ts, states, residuals in random_probes(p, (cfg.seed, 2), n, cfg.random_trials):
            hits = np.flatnonzero(residuals >= cfg.violation_threshold)
            if hits.size == 0:
                probes += len(ts)
                continue
            i = int(hits[0])
            witness = _witness(p, Axiom.NORMALIZATION, standard_basis(n), StateVector(states[i]),
                               float(residuals[i]), (cfg.seed, 2, n, ts[i]),
                               ConstructionTag.RANDOM_BASIS)
            return witness, probes + i + 1
    return None, probes


def hill_climb(p, n: int, steps: int, step_scale: float, seed: int):
    """Maximize the normalization residual over the unit states of C^n.

    Returns (identity, best_state, best_residual, residual_trace).  A probe
    is scored on its overlaps w_i = <v_i|psi> alone, and in the standard
    basis w is the state, so the climb walks unit states w and scores them
    against the identity.  It starts at ``random_state`` seeded from the
    first integer of the stream keyed (seed, 3, n).  Each step moves w to
    (w + scale * g) / |w + scale * g|, g standard complex normals, and keeps
    the move if it raises the residual; as every candidate is renormalised,
    no rounding builds up.  The step scale halves after STEP_WINDOW
    consecutive rejections and the search stops once it drops below 1e-6;
    the recorded best residual is non-decreasing by construction.

    So after r rejections the next STEP_WINDOW - r steps share one scale
    whatever is accepted.  Those steps form a window: their normals are one
    (m, 2, n) draw (per step n real parts, then n imaginary parts), their
    candidates are scored as one stack from the current w, and after an
    accept the rest of the window is re-scored from the new w.  Each
    candidate's norm is the root of numpy's pairwise sum of its squared
    parts, as for the row alone (one row's ``np.linalg.norm`` is a BLAS
    dot), so step for step this is the arithmetic of one move at a time,
    and the result is the same, bit for bit.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, n]))
    w = random_state(n, int(rng.integers(2**63))).amplitudes
    eye = np.eye(n, dtype=complex)
    best = check_normalization(p, eye, w)
    trace = [best]
    scale = step_scale
    rejections = 0
    while len(trace) <= steps and scale >= 1e-6:
        window = min(STEP_WINDOW - rejections, steps + 1 - len(trace))
        normals = rng.standard_normal((window, 2, n))
        moves = scale * (normals[:, 0] + 1j * normals[:, 1])
        tried = 0
        while tried < window:
            candidates = w + moves[tried:]
            squares = candidates.real**2 + candidates.imag**2
            candidates /= np.sqrt(squares.sum(axis=-1, keepdims=True))
            residuals = check_normalization(p, eye, candidates)
            gains = np.flatnonzero(residuals > best)
            rejected = int(gains[0]) if gains.size else window - tried
            trace += [best] * rejected
            tried += rejected
            if gains.size:
                w, best = candidates[rejected], float(residuals[rejected])
                trace.append(best)
                tried += 1
                rejections = 0
            else:
                rejections += rejected
        if rejections == STEP_WINDOW:
            scale /= 2.0
            rejections = 0
    return eye, StateVector(w), best, trace


def _optimizer_phase(p, cfg) -> tuple[Optional[Witness], int]:
    """One climb per dimension; the first whose best residual reaches the
    threshold gives the witness: the standard basis and its best state."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        _, state, best, trace = hill_climb(p, n, cfg.optimizer_steps, cfg.step_scale, cfg.seed)
        probes += len(trace)
        if best >= cfg.violation_threshold:
            return _witness(p, Axiom.NORMALIZATION, standard_basis(n), state, best,
                            (cfg.seed, 3, n), ConstructionTag.OPTIMIZED_BASIS), probes
    return None, probes


def falsify(p: CandidateDistribution, cfg: FalsifierConfig, specs: Specs) -> FalsifyResult:
    """Search for a concrete axiom violation; None witness is a valid outcome.

    The ledger phase probes the specs of K > 0 (``derivation.ledger_specs``,
    or a ledger) whose N is in cfg.n_range, and each N there must have one."""
    missing = set(cfg.n_range).difference(specs.ns[specs.ks > 0].tolist())
    if missing:
        raise ParameterError(f"no ledger spec of N = {min(missing)}, which the config asks for")
    witness, ledger_probes = _ledger_phase(p, cfg, specs)
    probes = {"ledger": ledger_probes, "random": 0, "optimizer": 0}
    if witness is None:
        witness, probes["random"] = _random_phase(p, cfg)
    if witness is None:
        witness, probes["optimizer"] = _optimizer_phase(p, cfg)
    return FalsifyResult(witness, probes)


def shrink_witness(w: Witness, specs: Specs, cfg: FalsifierConfig) -> Witness:
    """Smallest-dimension ledger-certificate witness for the same candidate.

    Scans the ledger specs in ascending (N, K) order and returns the
    first that violates at >= the configured threshold; falls back to the
    original witness (so the operation is idempotent) when no smaller
    deterministic witness exists.
    """
    p = w.candidate
    if p is None:
        raise ParameterError("witness carries no candidate; cannot shrink")
    if w.axiom is Axiom.ORTHOGONALITY:
        return w  # already minimal: a single basis pair
    probe, _ = _ledger_witness(p, specs, range(1, w.dimension + 1), cfg)
    if probe is None or (
        probe.dimension == w.dimension
        and w.construction_tag is ConstructionTag.LEDGER_CERTIFICATE
    ):
        return w
    return probe
