"""Per-probe reference forms of the package's stacked paths.

Each falsifier and axiom-suite function here draws, scores, samples or
climbs one probe at a time: the ledger scan builds each certificate's
N x N construction and scores it alone, each random trial draws its
state from the stream on its own (``haar_state``) and scores it in the
standard basis, and each N-independence overlap is formed on its own in
closed form.  The guard tests require the
package's stacked and closed-form paths to give the same results, bit
for bit.  ``spec_rows`` reads a ledger's spec columns back one entry at
a time, ``entry_overlaps`` forms each closed-form overlap on its own and
``worst_rational`` scans them row by row.  ``full_certificate``
builds one ledger entry's N x N construction, against which the
certificate kernel's per-K numbers and Haar bounds are checked.
``geometric_series_overlap`` is the independent route to the
partial-DFT basis's inner products, and ``rotate_basis`` the product
form of a Haar-rotated base.  ``simulate_fractions`` reads its Born
weights back through a Gram-checked d x d standard basis, and
``lookup_counts`` draws every outcome and looks each up in the cumulative
sum, against which the sampler's multinomial counts are checked in
distribution.  ``eval_expr`` interprets a candidate's syntax tree with
Python floats and ``math``, one overlap at a time, against which the
compiled tree's undefined overlaps, values and reasons are checked.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from bornlab import (
    DimensionError,
    EvalError,
    OrthonormalBasis,
    ParameterError,
    StateVector,
    frequentist_report,
    haar_unitary,
    orthonormality_defect,
    random_state,
    sample_outcomes,
    standard_basis,
)
from bornlab.axioms import (
    Axiom,
    AxiomReport,
    check_orthogonality_axiom,
    evaluate,
)
from bornlab.dsl import CONSTANTS, Bin, Call, Const, Lit, Neg, Var
from bornlab.hilbert import matrix_to_pairs
from bornlab.construction import (
    TWO_PI,
    Specs,
    certificate_probes,
    overlap_contract_error,
    partial_dft_basis,
    symmetric_state,
)


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


def cayley(x: np.ndarray) -> np.ndarray:
    """The Cayley map I + (I - X/2)^-1 X of one n x n matrix: a 2-d solve."""
    n = x.shape[0]
    return np.linalg.solve(np.eye(n) - x / 2, x) + np.eye(n)


def hill_climb(p, n: int, steps: int, step_scale: float, seed: int):
    """The climber one step at a time over unit states in the standard basis:
    draw n real and n imaginary normals, move, renormalise, score, keep if better."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, n]))
    w = random_state(n, int(rng.integers(2**63))).amplitudes
    eye = np.eye(n, dtype=np.complex128)
    best = normalization(p, eye, w)
    trace = [best]
    scale = step_scale
    rejections = 0
    for _ in range(steps):
        if scale < 1e-6:
            break
        real = rng.standard_normal(n)
        imag = rng.standard_normal(n)
        z = w + scale * (real + 1j * imag)
        candidate = z / np.sqrt(np.sum(z.real**2 + z.imag**2))
        residual = normalization(p, eye, candidate)
        if residual > best:
            w, best = candidate, residual
            rejections = 0
        else:
            rejections += 1
            if rejections >= 20:
                scale /= 2.0
                rejections = 0
        trace.append(best)
    return eye, StateVector(w), best, trace


def spec_rows(specs) -> list:
    """(K, N, thetas, seed) of each entry of the specs, in order."""
    bounds = zip(specs.offsets[:-1].tolist(), specs.offsets[1:].tolist())
    return [(k, n, tuple(specs.thetas[a:b].tolist()), seed)
            for k, n, seed, (a, b) in zip(specs.ks.tolist(), specs.ns.tolist(),
                                          specs.seeds.tolist(), bounds)]


def entry_overlaps(rows):
    """The first and the symmetric overlap of each (K, N, theta) row, one
    Python complex at a time, theta reduced modulo 2 pi."""
    first, symmetric = [], []
    for k, n, theta in rows:
        t = float(theta) % TWO_PI
        phase = complex(math.cos(t), math.sin(t))
        first.append(phase * math.sqrt(k / n))
        symmetric.append(phase / math.sqrt(n))
    return np.array(first, np.complex128), np.array(symmetric, np.complex128)


def worst_rational(p, specs):
    """(K, N, theta) of the first row of the specs with the largest
    |P(e^{i theta} sqrt(K/N)) - K/N|, scanned one row at a time; None if
    every residual is 0."""
    worst, best = None, 0.0
    for k, n, thetas, _ in spec_rows(specs):
        for theta in thetas:
            [z], _ = entry_overlaps([(k, n, theta)])
            residual = abs(float(evaluate(p, [z])[0]) - k / n)
            if residual > best:
                worst, best = (k, n, theta), residual
    return worst


def certificate(k, n, theta, seed):
    """(basis, state) behind one ledger certificate, built from the
    constructions; seed -1 is the standard basis."""
    base = standard_basis(n)
    if seed >= 0:
        base = rotate_basis(haar_unitary(n, seed), base)
    if k == n:
        return base, StateVector(np.exp(1j * (theta % TWO_PI)) * base.matrix[0])
    return partial_dft_basis(base, k).vectors, symmetric_state(base, theta).state


def ledger_scan(p, ledger, dims, seed, threshold):
    """(witness JSON or None, probes) of the first certificate of a K > 0
    entry with N in dims, in (N, K, theta) order, whose residual reaches the
    threshold: each certificate's basis built and scored on its own."""
    probes = 0
    for k, n, thetas, base_seed in spec_rows(ledger):
        if k == 0 or n not in dims:
            continue
        for theta in thetas:
            basis, state = certificate(k, n, theta, base_seed)
            probes += 1
            residual = normalization(p, basis.matrix, state.amplitudes)
            if residual >= threshold:
                return _witness(p, n, state, basis.matrix, residual, (seed, 1, n, k),
                                "LedgerCertificate"), probes
    return None, probes


def ledger_phase(p, cfg, ledger):
    """(witness JSON or None, probes) of the ledger phase, one probe at a time."""
    basis = standard_basis(max(min(cfg.n_range), 2))
    residual = check_orthogonality_axiom(p, basis).max_residual
    if residual >= cfg.violation_threshold:
        return dict(_witness(p, basis.dim, basis.vector(0), basis.matrix, residual,
                             (cfg.seed, 1), "LedgerCertificate"), axiom="orthogonality"), 2
    witness, probes = ledger_scan(p, ledger, set(cfg.n_range), cfg.seed,
                                  cfg.violation_threshold)
    return witness, probes + 2


def haar_state(rng, n: int) -> StateVector:
    """The next Haar state of rng's stream: n real parts, then n imaginary
    parts, over the vector's norm."""
    real = rng.standard_normal(n)
    imag = rng.standard_normal(n)
    z = real + 1j * imag
    return StateVector(z / np.linalg.norm(z))


def random_phase(p, cfg):
    """(witness JSON or None, probes) of the random phase, one trial at a
    time: one state per trial from the stream of (seed, 2, n), scored in the
    standard basis."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, n]))
        eye = np.eye(n, dtype=np.complex128)
        for t in range(cfg.random_trials):
            state = haar_state(rng, n)
            probes += 1
            residual = normalization(p, eye, state.amplitudes)
            if residual >= cfg.violation_threshold:
                return _witness(p, n, state, eye, residual, (cfg.seed, 2, n, t),
                                "RandomBasis"), probes
    return None, probes


def optimizer_phase(p, cfg):
    """(witness JSON or None, probes) of the optimizer phase, one step at a time."""
    probes = 0
    for n in sorted(set(cfg.n_range)):
        eye, state, best, trace = hill_climb(p, n, cfg.optimizer_steps, cfg.step_scale, cfg.seed)
        probes += len(trace)
        if best >= cfg.violation_threshold:
            return _witness(p, n, state, eye, best, (cfg.seed, 3, n), "OptimizedBasis"), probes
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
    """(defect, overlap errors) of one ledger entry (K, N, thetas, seed),
    from its N x N partial-DFT basis and one symmetric state per theta, each
    built over the entry's own base, standard or Haar-rotated.  For K = N
    the state is the base's first vector, and the defect is 0."""
    k, n, thetas, seed = spec
    thetas = tuple(t % TWO_PI for t in thetas)
    specs = Specs(np.array([k]), np.array([n]), np.array([seed]), np.array(thetas, np.float64),
                  np.array([0, len(thetas)]))
    [(_, basis, states)] = certificate_probes(specs, [0])
    defect = orthonormality_defect(basis) if k < n else 0.0
    errors = [overlap_contract_error(basis.matrix.conj() @ state.amplitudes, k, n, t)
              for state, t in zip(states, thetas)]
    return defect, errors


def rotate_basis(u, basis: OrthonormalBasis) -> OrthonormalBasis:
    """Apply the UnitaryMatrix u to every basis vector."""
    if u.dim != basis.dim:
        raise DimensionError(f"dimension mismatch: {u.dim} vs {basis.dim}")
    return OrthonormalBasis(basis.matrix @ u.matrix.T)


def normalization_report(p, dims, trials, seed, tolerance=1e-9) -> AxiomReport:
    """``axioms.normalization_report`` one state and one scoring call per
    trial, from the stream of (seed, 2, n), in the standard basis."""
    max_residual = 0.0
    worst = {"candidate": p.name}
    for n in sorted(set(dims)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, n]))
        eye = np.eye(n, dtype=np.complex128)
        for t in range(trials):
            state = haar_state(rng, n)
            residual = normalization(p, eye, state.amplitudes)
            if residual > max_residual:
                max_residual = residual
                worst = {
                    "candidate": p.name,
                    "dim": n,
                    "trial": t,
                    "basis": matrix_to_pairs(eye),
                    "state": state.to_json(),
                }
    return AxiomReport(Axiom.NORMALIZATION, max_residual, worst, tolerance)


def check_unitary_invariance(p_pairform, trials, seed, dim=4, tolerance=1e-12,
                             name="") -> AxiomReport:
    """``axioms.check_unitary_invariance`` one Haar draw per trial."""
    max_residual = 0.0
    worst = {"candidate": name}
    for t in range(trials):
        sub = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        v = random_state(dim, sub)
        w = random_state(dim, sub + 1)
        u = haar_unitary(dim, sub + 2)
        try:
            before = p_pairform(v, w)
            after = p_pairform(
                StateVector(u.matrix @ v.amplitudes),
                StateVector(u.matrix @ w.amplitudes),
            )
            residual = abs(after - before)
        except EvalError:
            residual = math.inf
        if residual > max_residual:
            max_residual = residual
            worst = {"candidate": name, "trial": t, "seed": sub, "dim": dim}
    return AxiomReport(Axiom.UNITARY_INVARIANCE, max_residual, worst, tolerance)


def check_n_independence(p, dims, seed, tolerance=1e-9) -> AxiomReport:
    """``axioms.check_n_independence`` with each first overlap
    e^{i theta} sqrt(K/N) formed on its own, as a modulus and an angle."""
    dims = sorted(set(int(d) for d in dims))
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    fractions, overlaps = [], []
    for n in dims:
        for k in range(1, n + 1):
            overlaps.append(cmath.rect(math.sqrt(k / n), theta % TWO_PI))
            fractions.append((Fraction(k, n), n))
    by_fraction = {}
    for (frac, n), value in zip(fractions, evaluate(p, overlaps).tolist()):
        by_fraction.setdefault(frac, []).append((n, value))
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


def simulate_fractions(probabilities, n_samples, seed):
    """``montecarlo.simulate_fractions`` with the Born weights read back as
    overlaps with the d x d identity basis: d^2 memory and a d^3 Gram check."""
    fracs = tuple(Fraction(f) for f in probabilities)
    if any(f < 0 for f in fracs) or sum(fracs) != 1:
        raise ParameterError("probabilities must be non-negative and sum to 1")
    state = StateVector(np.sqrt(np.array([float(f) for f in fracs])))
    basis = OrthonormalBasis(np.eye(len(fracs), dtype=np.complex128))
    counts = sample_outcomes(state, basis, n_samples, seed)
    return frequentist_report(counts, fracs, n_samples, seed)


BLOCK_SIZE = 1 << 16


def lookup_counts(probabilities, n_samples, seed):
    """Per-draw inverse-CDF lookup, block by block, each block from
    SeedSequence([seed, block]): cell i counts the draws in [cdf[i-1], cdf[i])."""
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    counts = np.zeros(len(probabilities), dtype=np.int64)
    for block in range((n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE):
        size = min(BLOCK_SIZE, n_samples - block * BLOCK_SIZE)
        draws = np.random.default_rng(np.random.SeedSequence([seed, block])).random(size)
        cells = np.searchsorted(cdf, draws, side="right")
        counts += np.bincount(cells, minlength=len(probabilities))
    return counts


def _apply_func(name: str, x: float) -> float:
    if name == "abs":
        return abs(x)
    if name == "sqrt":
        if x < 0.0:
            raise EvalError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    if name in ("sin", "cos"):
        if math.isinf(x):
            raise EvalError(f"{name} of {x!r}")
        return math.sin(x) if name == "sin" else math.cos(x)
    if name == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalError(f"exp overflow at {x!r}")
    if name == "ln":
        if x <= 0.0:
            raise EvalError(f"ln of non-positive value {x!r}")
        return math.log(x)
    raise EvalError(f"unknown function {name!r}")


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalError("zero raised to a negative power")
    if a < 0.0 and not (math.isfinite(b) and b == int(b)):
        raise EvalError(f"negative base {a!r} with non-integer exponent {b!r}")
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise EvalError(str(exc))


def eval_expr(e, z: complex) -> float:
    """``dsl.eval_expr`` as a tree walk over Python floats and ``math``,
    raising EvalError at the first undefined operation."""
    z = complex(z)
    env = {
        "r": abs(z),
        "phi": 0.0 if z == 0 else math.atan2(z.imag, z.real),
        "re": z.real,
        "im": z.imag,
    }
    return _eval(e, env)


def _eval(e, env: dict) -> float:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Call):
        return _apply_func(e.func, _eval(e.arg, env))
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        if e.op == "^":
            return _pow(a, b)
    raise EvalError(f"malformed expression node {e!r}")
