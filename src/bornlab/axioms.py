"""Executable axioms for candidate transition-probability distributions.

A candidate is a real-valued function of a single complex overlap z with
|z| <= 1.  Taking only the overlap makes unitary invariance and
N-independence structural; the checks here return residuals, never
booleans, and pass/fail is applied at report time against configurable
tolerances.  Candidate evaluation failures (non-finite or non-real
output, EvalError) are folded into the residual as +inf rather than
aborting a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import dsl
from .construction import entry_overlaps
from .errors import DimensionError, DomainError, EvalError
from .hilbert import (
    OrthonormalBasis,
    StateVector,
    complex_to_pair,
    haar_unitaries,
    haar_unitary,
    inner_product,
    matrix_to_pairs,
    random_state,
    random_states,
    vector_to_pairs,
)

DOMAIN_SLACK = 1e-9
RANDOM_CHUNK = 20  # random trials drawn, validated and scored as one stack


class Axiom(Enum):
    WELL_DEFINED = "well_defined"
    NORMALIZATION = "normalization"
    ORTHOGONALITY = "orthogonality"
    UNITARY_INVARIANCE = "unitary_invariance"
    N_INDEPENDENCE = "n_independence"


@dataclass(frozen=True)
class CandidateDistribution:
    """A named real-valued function of the overlap z, |z| <= 1 + 1e-9.

    ``array_fn``, when given, evaluates the candidate over a whole array of
    overlaps with the conventions of :func:`evaluate`.
    """

    name: str
    fn: Callable[[complex], float] = field(compare=False)
    array_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, z: complex) -> float:
        z = complex(z)
        if abs(z) > 1.0 + DOMAIN_SLACK:
            raise _domain_error(abs(z))
        return float(self.fn(z))


def _domain_error(modulus: float) -> DomainError:
    return DomainError(f"|z| = {modulus!r} is outside the closed unit disk")


def born_candidate() -> CandidateDistribution:
    return CandidateDistribution("r^2", lambda z: abs(z) ** 2)


def candidate_from_expression(source: str, name: Optional[str] = None) -> CandidateDistribution:
    """Compile a DSL expression into a candidate distribution."""
    tree = dsl.parse_candidate(source)
    return CandidateDistribution(
        name or source, lambda z: dsl.eval_expr(tree, z), dsl.compile_expr(tree)
    )


def _safe_eval(p: CandidateDistribution, z: complex):
    """Evaluate p(z); returns (value, None) or (inf, reason) on failure."""
    try:
        value = p(z)
    except EvalError as exc:
        return math.inf, f"evaluation error: {exc}"
    except (TypeError, ValueError) as exc:
        return math.inf, f"non-real output ({exc})"
    if not math.isfinite(value):
        return math.inf, f"non-finite output {value!r}"
    return float(value), None


def evaluate(p: CandidateDistribution, zs) -> np.ndarray:
    """p at every overlap in zs: floats, inf wherever _safe_eval gives inf.

    Every residual in the package goes through here.  Candidates with an
    ``array_fn`` (all DSL candidates) evaluate the whole array at once with
    their compiled tree; plain Python candidates loop over it one overlap
    at a time.  Raises DomainError if any |z| > 1 + 1e-9.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    moduli = np.hypot(zs.real, zs.imag)
    outside = moduli > 1.0 + DOMAIN_SLACK
    if outside.any():
        raise _domain_error(float(moduli[outside][0]))
    if p.array_fn is not None:
        return p.array_fn(zs)
    values = [_safe_eval(p, z)[0] for z in zs.ravel()]
    return np.array(values, dtype=np.float64).reshape(zs.shape)


def _worst_index(residuals: np.ndarray) -> Optional[int]:
    """Flat index of the first largest residual; None if all are 0 or none exist."""
    if residuals.size == 0:
        return None
    index = int(np.argmax(residuals))
    return index if residuals.flat[index] > 0.0 else None


def _reason(p: CandidateDistribution, z: complex, value: float) -> Optional[str]:
    """Why p(z) is undefined, from p at that one overlap; None if value is finite.

    For a DSL candidate that is dsl.eval_expr, the compiled tree's guards
    at z: the first undefined operation, or the non-finite value."""
    return None if math.isfinite(value) else _safe_eval(p, z)[1]


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    max_residual: float
    worst_case: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom.value,
            "max_residual": self.max_residual,
            "worst_case": self.worst_case,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_well_defined(
    p: CandidateDistribution,
    sample_overlaps: Iterable[complex],
    tolerance: float = 1e-9,
) -> AxiomReport:
    """Residual = max distance of p(z) from [0, 1] over the samples."""
    zs = np.array(list(sample_overlaps), dtype=np.complex128)
    values = evaluate(p, zs)
    residuals = np.maximum(0.0, np.maximum(values - 1.0, -values))
    index = _worst_index(residuals)
    if index is None:
        return AxiomReport(Axiom.WELL_DEFINED, 0.0, {"candidate": p.name}, tolerance)
    value = float(values[index])
    reason = _reason(p, zs[index], value)
    worst = {
        "candidate": p.name,
        "z": complex_to_pair(zs[index]),
        "value": None if reason else value,
        "reason": reason,
    }
    return AxiomReport(Axiom.WELL_DEFINED, float(residuals[index]), worst, tolerance)


def check_normalization(p: CandidateDistribution, basis, state):
    """|sum_i p(<v_i|psi>) - 1| for one (basis, state) pair, as a float; or
    one residual per entry of a stack, as an array.

    basis and state may also be given as raw arrays, so that a probe can be
    scored before it is validated: a basis as an (..., n, n) stack of
    matrices with the basis vectors as rows, a state as n amplitudes or an
    (..., n) stack of them; the two stacks broadcast.  Entry for entry a
    stack gives the same bits as one call per pair.
    """
    matrix = basis.matrix if isinstance(basis, OrthonormalBasis) else np.asarray(basis)
    amplitudes = state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
    if matrix.shape[-1] != amplitudes.shape[-1]:
        raise DimensionError(f"dimension mismatch: {matrix.shape[-1]} vs {amplitudes.shape[-1]}")
    overlaps = (matrix.conj() @ amplitudes[..., None])[..., 0]
    residuals = np.abs(evaluate(p, overlaps).sum(axis=-1) - 1.0)
    return float(residuals) if residuals.ndim == 0 else residuals


def orthogonality_residuals(p: CandidateDistribution, basis: OrthonormalBasis):
    """(gram, values, residuals) of a basis: its Gram matrix <v_i|v_j>, p at
    each entry of it, and |p(<v_i|v_j>) - delta_ij|."""
    gram = basis.matrix.conj() @ basis.matrix.T
    values = evaluate(p, gram)
    return gram, values, np.abs(values - np.eye(basis.dim))


def check_orthogonality_axiom(
    p: CandidateDistribution, basis: OrthonormalBasis, tolerance: float = 1e-9
) -> AxiomReport:
    """Residual = max_ij |p(<v_i|v_j>) - delta_ij|.

    In particular enforces p(0) = 0 and p(1) = 1.
    """
    gram, values, residuals = orthogonality_residuals(p, basis)
    index = _worst_index(residuals)
    if index is None:
        return AxiomReport(Axiom.ORTHOGONALITY, 0.0, {"candidate": p.name}, tolerance)
    i, j = divmod(index, basis.dim)
    worst = {
        "candidate": p.name,
        "i": i + 1,
        "j": j + 1,
        "overlap": complex_to_pair(gram[i, j]),
        "reason": _reason(p, gram[i, j], float(values[i, j])),
    }
    return AxiomReport(Axiom.ORTHOGONALITY, float(residuals[i, j]), worst, tolerance)


def pair_form(p: CandidateDistribution) -> Callable[[StateVector, StateVector], float]:
    """Lift an overlap-only candidate to a function of a state pair."""
    return lambda v, w: p(inner_product(v, w))


def _seeded_chunks(key: tuple, trials: int):
    """(trials, seeds) RANDOM_CHUNK at a time, trial t seeded from (*key, t) alone."""
    for start in range(0, trials, RANDOM_CHUNK):
        ts = range(start, min(start + RANDOM_CHUNK, trials))
        yield ts, [int(np.random.SeedSequence([*key, t]).generate_state(1)[0]) for t in ts]


def random_probes(p: CandidateDistribution, key: tuple, n: int, trials: int):
    """(trials, states, residuals) of Haar-random normalization probes in C^n,
    RANDOM_CHUNK at a time, each residual scored in the standard basis.

    P depends on the overlap vector w = (<v_i|psi>)_i alone, and for a
    Haar-random state psi and any basis drawn independently of it, w is a
    Haar-random unit vector of C^n.  So a (basis, state) pair is drawn in
    the frame of its basis: the basis is the standard one and the state is
    w.  The states of dimension n are one stream,
    ``default_rng(SeedSequence([*key, n]))`` (``hilbert.random_states``),
    so trial t is the stream's t-th state whatever trials and the chunk size
    are.  Each residual has the bits of scoring its trial alone, against
    the raw identity: the matrix of ``standard_basis(n)``, which a caller
    builds only for a probe it reports.
    """
    rng = np.random.default_rng(np.random.SeedSequence([*key, n]))
    eye = np.eye(n, dtype=complex)
    for start in range(0, trials, RANDOM_CHUNK):
        ts = range(start, min(start + RANDOM_CHUNK, trials))
        states = random_states(rng, n, len(ts))  # each validated as a state
        yield ts, states, check_normalization(p, eye, states)


def check_unitary_invariance(
    p_pairform: Callable[[StateVector, StateVector], float],
    trials: int,
    seed: int,
    dim: int = 4,
    tolerance: float = 1e-12,
    name: str = "",
) -> AxiomReport:
    """Residual = max over sampled (v, w, U) of |P(Uv, Uw) - P(v, w)|.

    For overlap-only candidates this is tiny by construction; pair-form
    candidates that peek at amplitudes directly are caught here.  Trial t
    is seeded from (seed, t), and its unitary drawn in RANDOM_CHUNK stacks.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    max_residual = 0.0
    worst = {"candidate": name}
    for ts, subs in _seeded_chunks((seed,), trials):
        unitaries = haar_unitaries(dim, [sub + 2 for sub in subs])
        for t, sub, u in zip(ts, subs, unitaries):
            v = random_state(dim, sub)
            w = random_state(dim, sub + 1)
            try:
                before = p_pairform(v, w)
                after = p_pairform(StateVector(u @ v.amplitudes), StateVector(u @ w.amplitudes))
                residual = abs(after - before)
            except EvalError:
                residual = math.inf
            if residual > max_residual:
                max_residual = residual
                worst = {"candidate": name, "trial": t, "seed": sub, "dim": dim}
    return AxiomReport(Axiom.UNITARY_INVARIANCE, max_residual, worst, tolerance)


def check_n_independence(
    p: CandidateDistribution,
    dims: Iterable[int],
    seed: int,
    tolerance: float = 1e-9,
) -> AxiomReport:
    """Compare p at equal overlaps produced in different dimensions.

    For every modulus sqrt(K/N) achievable in more than one of the given
    dimensions, p is evaluated on the first overlap of each K/N's ledger
    construction in C^N, e^{i theta} sqrt(K/N), in closed form
    (``entry_overlaps``).  The residual is the spread of those values;
    overlap-only candidates give zero because the candidate accepts no N
    parameter.
    """
    dims = sorted(set(int(d) for d in dims))
    if not dims:
        raise ValueError("dims must be nonempty")
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    ks = np.concatenate([np.arange(1, n + 1) for n in dims])  # every K <= N, unreduced
    ns = np.repeat(dims, dims)
    first, _ = entry_overlaps(ks, ns, theta)
    by_fraction: dict[Fraction, list[tuple[int, float]]] = {}
    for k, n, value in zip(ks.tolist(), ns.tolist(), evaluate(p, first).tolist()):
        by_fraction.setdefault(Fraction(k, n), []).append((n, value))
    max_residual = 0.0
    worst = {"candidate": p.name, "overlap_only": True}
    for frac, entries in by_fraction.items():
        if len(entries) < 2:
            continue
        values = [v for _, v in entries]
        spread = max(values) - min(values)
        if not math.isfinite(spread):
            spread = math.inf
        if spread > max_residual:
            max_residual = spread
            worst = {
                "candidate": p.name,
                "overlap_only": True,
                "fraction": f"{frac.numerator}/{frac.denominator}",
                "dims": [n for n, _ in entries],
                "theta": theta,
            }
    return AxiomReport(Axiom.N_INDEPENDENCE, max_residual, worst, tolerance)


def normalization_report(
    p: CandidateDistribution,
    dims: Iterable[int],
    trials: int,
    seed: int,
    tolerance: float = 1e-9,
) -> AxiomReport:
    """Worst normalization residual over Haar-random probes, the first
    trials of dimension n's stream keyed (seed, 2, n) (``random_probes``):
    the falsifier's own random probes at an equal seed.  The worst case
    gives the probe's basis, the standard one, and its state."""
    max_residual = 0.0
    worst = {"candidate": p.name}
    for n in sorted(set(dims)):
        for ts, states, residuals in random_probes(p, (seed, 2), n, trials):
            # the first largest residual above the best so far, as a scan would keep
            above = np.flatnonzero(residuals > max_residual)
            if above.size:
                i = int(above[np.argmax(residuals[above])])
                max_residual = float(residuals[i])
                worst = {
                    "candidate": p.name,
                    "dim": n,
                    "trial": ts[i],
                    "basis": matrix_to_pairs(np.eye(n)),
                    "state": vector_to_pairs(states[i]),
                }
    return AxiomReport(Axiom.NORMALIZATION, max_residual, worst, tolerance)


def run_axiom_suite(
    p: CandidateDistribution,
    dims: Iterable[int],
    trials: int,
    seed: int,
    tolerance: float = 1e-9,
) -> list[AxiomReport]:
    """All five axiom checks; returns one report per axiom."""
    dims = sorted(set(dims))
    rng = np.random.default_rng(seed)
    sample_overlaps = []
    for _ in range(trials):
        radius = math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        sample_overlaps.append(radius * complex(math.cos(angle), math.sin(angle)))
    reports = [check_well_defined(p, sample_overlaps, tolerance)]
    reports.append(normalization_report(p, dims, trials, seed, tolerance))
    ortho_worst = None
    for n in dims:
        sub = int(np.random.SeedSequence([seed, 3, n]).generate_state(1)[0])
        basis = OrthonormalBasis(haar_unitary(n, sub).matrix)
        report = check_orthogonality_axiom(p, basis, tolerance)
        if ortho_worst is None or report.max_residual > ortho_worst.max_residual:
            ortho_worst = report
    reports.append(ortho_worst)
    reports.append(
        check_unitary_invariance(
            pair_form(p), trials, seed, dim=max(dims), tolerance=tolerance, name=p.name
        )
    )
    reports.append(check_n_independence(p, dims, seed, tolerance))
    return reports
