"""Frequentist verification of Born weights by projective-measurement
simulation.

The cell counts of n i.i.d. categorical draws with p_i = |<v_i|psi>|^2
are multinomial, so they are drawn in one call, as a chain of conditional
binomials, in time that does not depend on n.  Cell i holds the mass in
[cdf[i-1], cdf[i]) of the cumulative sum clipped at 1; the final cell
absorbs float rounding slack.  The generator is seeded with
SeedSequence([seed]), so identical inputs always give identical counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .hilbert import StateVector

MAX_Z = 4.0  # the |z| bound of a two-cell run; see z_threshold
CHI2_PERCENTILE = 0.9999
MIN_EXPECTED_COUNT = 5.0


@dataclass(frozen=True)
class SimulationReport:
    dimension: int
    expected: tuple[Fraction, ...]
    counts: tuple[int, ...]
    n_samples: int
    chi_square: float
    degrees_of_freedom: int
    chi_square_threshold: float
    max_z_score: float
    z_scores: tuple[float, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.max_z_score <= z_threshold(self.dimension)
            and self.chi_square <= self.chi_square_threshold
        )

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "expected": [
                {"fraction": f"{f.numerator}/{f.denominator}", "decimal": repr(float(f))}
                for f in self.expected
            ],
            "counts": list(self.counts),
            "n_samples": self.n_samples,
            "chi_square": self.chi_square,
            "degrees_of_freedom": self.degrees_of_freedom,
            "chi_square_threshold": self.chi_square_threshold,
            "max_z_score": self.max_z_score,
            "z_scores": list(self.z_scores),
            "seed": self.seed,
            "passed": self.passed,
        }

    def to_csv(self) -> str:
        lines = ["cell,expected,observed,z"]
        for i, (f, c, z) in enumerate(zip(self.expected, self.counts, self.z_scores)):
            lines.append(f"{i + 1},{float(f)!r},{c},{z!r}")
        return "\n".join(lines) + "\n"


def sample_counts_from_probabilities(
    probabilities: np.ndarray, n_samples: int, seed: int
) -> np.ndarray:
    """Per-cell counts of n_samples categorical draws; deterministic per seed."""
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    # a basis within ORTHO_TOLERANCE may give weights that sum past 1 by
    # rounding, which multinomial refuses; the clipped sum's last cell takes the slack
    cdf = np.minimum(np.cumsum(probabilities), 1.0)
    cdf[-1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.multinomial(n_samples, np.diff(cdf, prepend=0.0))


def _pool_cells(exp: list[float], obs: tuple[int, ...]):
    """Merge cells with expected count < 5 (smallest first) for the chi-square."""
    order = sorted(range(len(exp)), key=lambda i: exp[i])
    pooled_exp, pooled_obs = [], []
    acc_e = acc_o = 0.0
    for idx in order:
        acc_e += exp[idx]
        acc_o += obs[idx]
        if acc_e >= MIN_EXPECTED_COUNT:
            pooled_exp.append(acc_e)
            pooled_obs.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0.0:  # the rest joins the last pooled cell, or is the only one
        if not pooled_exp:
            pooled_exp, pooled_obs = [0.0], [0.0]
        pooled_exp[-1] += acc_e
        pooled_obs[-1] += acc_o
    return np.array(pooled_exp), np.array(pooled_obs, dtype=float)


def z_threshold(cells: int) -> float:
    """The |z| bound on each cell of a run with the given number of cells.

    The two-sided tail of MAX_Z, erfc(MAX_Z / sqrt(2)), is shared among
    m = max(cells - 1, 1) cells, so that an honest run fails by |z| about
    as often at any cell count: z = -Phi^-1(erfc(MAX_Z / sqrt(2)) / (2 m)),
    with Phi the standard normal distribution function.  The two cells of
    a two-cell run share one |z|, and it keeps MAX_Z exactly.
    """
    if cells <= 2:
        return MAX_Z
    from statistics import NormalDist

    return -NormalDist().inv_cdf(math.erfc(MAX_Z / math.sqrt(2.0)) / (2 * (cells - 1)))


def chi_square_threshold(dof: int) -> float:
    """The CHI2_PERCENTILE point of the chi-square law with dof >= 1.

    At x = 2y the upper tail is a finite sum of positive terms
    e^-y y^a / Gamma(a + 1), a = dof/2 - 1, dof/2 - 2, ... >= 0, plus
    erfc(sqrt(y)) for odd dof (Abramowitz & Stegun 26.4.4-5), each formed
    in log space so that none underflows.  Newton's method solves it from
    the Wilson-Hilferty value; the density at x is the a = dof/2 - 1 term
    halved.
    """
    from statistics import NormalDist

    def term(a: float, y: float) -> float:
        return math.exp(a * math.log(y) - y - math.lgamma(a + 1))

    h = 2.0 / (9 * dof)
    x = dof * (1.0 - h + NormalDist().inv_cdf(CHI2_PERCENTILE) * math.sqrt(h)) ** 3
    while True:
        y = x / 2
        tail = math.fsum(term(dof % 2 / 2 + i, y) for i in range(dof // 2))
        if dof % 2:
            tail += math.erfc(math.sqrt(y))
        step = 2 * (tail - (1.0 - CHI2_PERCENTILE)) / term(dof / 2 - 1, y)
        x += step
        if abs(step) <= 1e-10 * x:  # converging quadratically, it is off by ~(1e-10 x)^2
            return x


def frequentist_report(
    counts: Sequence[int],
    expected: Sequence[Fraction],
    n_samples: int,
    seed: int = 0,
) -> SimulationReport:
    """Pearson chi-square and per-cell z-scores against exact expectations.

    Pass criteria: every cell's |z| within ``z_threshold`` of the cell
    count d (4 for d <= 2, about 4.16 at 3 cells, 4.89 at 64 and 5.29 at
    512; MAX_Z's two-sided tail shared among d - 1 cells) and chi-square
    below its 99.99th percentile.  Cells with expected count < 5 are
    pooled before the chi-square; z-scores are reported per original
    cell.
    """
    expected = tuple(Fraction(f) for f in expected)
    if len(counts) != len(expected):
        raise ParameterError("counts and expected must have equal length")
    if sum(expected) != 1:
        raise ParameterError(f"expected probabilities sum to {sum(expected)}, not 1")
    return _report(counts, expected, [float(f) for f in expected], n_samples, seed)


def _report(counts, expected, p: list, n_samples: int, seed: int) -> SimulationReport:
    """``frequentist_report`` of exact weights that sum to 1, and their floats p."""
    counts = tuple(int(c) for c in counts)
    if sum(counts) != n_samples:
        raise ParameterError("counts must sum to n_samples")
    pooled_exp, pooled_obs = _pool_cells([n_samples * pf for pf in p], counts)
    dof = max(len(pooled_exp) - 1, 0)
    if dof == 0:
        chi_square = 0.0
        threshold = 0.0
    else:
        chi_square = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
        threshold = chi_square_threshold(dof)
    z_scores = []
    for c, pf in zip(counts, p):
        if pf <= 0.0:
            z_scores.append(0.0 if c == 0 else float("inf"))
        elif pf >= 1.0:
            z_scores.append(0.0 if c == n_samples else float("inf"))
        else:
            sigma = np.sqrt(n_samples * pf * (1.0 - pf))
            z_scores.append(float(abs(c - n_samples * pf) / sigma))
    return SimulationReport(
        dimension=len(counts),
        expected=expected,
        counts=counts,
        n_samples=n_samples,
        chi_square=chi_square,
        degrees_of_freedom=dof,
        chi_square_threshold=threshold,
        max_z_score=max(z_scores) if z_scores else 0.0,
        z_scores=tuple(z_scores),
        seed=seed,
    )


def simulate_fractions(
    probabilities: Sequence[Fraction], n_samples: int, seed: int
) -> SimulationReport:
    """Simulate a state whose squared amplitudes are the given exact
    probabilities (in the standard basis) and test the frequencies."""
    fracs = tuple(Fraction(f) for f in probabilities)
    if any(f.numerator < 0 for f in fracs) or sum(fracs) != 1:
        raise ParameterError("probabilities must be non-negative and sum to 1")
    p = [float(f) for f in fracs]
    state = StateVector(np.sqrt(np.array(p)))
    # the Born weights in the standard basis: the squared moduli of the
    # amplitudes, which a product with the identity would give bit for bit
    probabilities = np.abs(state.amplitudes) ** 2
    counts = sample_counts_from_probabilities(probabilities, n_samples, seed)
    return _report(counts, fracs, p, n_samples, seed)
