import math

import numpy as np
import pytest

from bornlab import (
    Axiom,
    CandidateDistribution,
    ConstructionTag,
    FalsifierConfig,
    ParameterError,
    born_candidate,
    build_ledger,
    candidate_from_expression,
    falsify,
    replay_witness,
    shrink_witness,
)
from bornlab.construction import TWO_PI, partial_dft_basis, symmetric_state
from bornlab.falsifier import _ledger_probes, hill_climb
from bornlab.hilbert import StateVector, haar_unitary, standard_basis

import reference
from conftest import make_ledger_locked_candidate, make_wrong_above_denominator


def certificate(k, n, theta, kind, sub):
    """(basis, state) behind one ledger certificate, built from the constructions."""
    base = standard_basis(n)
    if kind == "haar":
        base = reference.rotate_basis(haar_unitary(n, sub), base)
    if k == n:
        return base, StateVector(np.exp(1j * (theta % TWO_PI)) * base.matrix[0])
    return partial_dft_basis(base, k).vectors, symmetric_state(base, theta).state


def quick_cfg(**overrides):
    defaults = dict(
        n_range=(2, 3, 4, 5, 6, 7, 8),
        random_trials=10,
        optimizer_steps=40,
        seed=0,
    )
    defaults.update(overrides)
    return FalsifierConfig(**defaults)


class TestLedgerPhase:
    def test_abs_candidate_witness_at_n2(self, ledger8):
        result = falsify(candidate_from_expression("r"), quick_cfg(), ledger8)
        w = result.witness
        assert w is not None
        assert w.dimension == 2
        assert w.axiom is Axiom.NORMALIZATION
        assert w.construction_tag is ConstructionTag.LEDGER_CERTIFICATE
        assert w.residual == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_quartic_witness_residual(self, ledger8):
        result = falsify(candidate_from_expression("r^4"), quick_cfg(), ledger8)
        assert result.witness.dimension == 2
        assert result.witness.residual == pytest.approx(0.5, abs=1e-12)

    def test_offset_candidate_caught_by_orthogonality(self, ledger8):
        result = falsify(candidate_from_expression("r^2 + 0.05"), quick_cfg(), ledger8)
        assert result.witness.axiom is Axiom.ORTHOGONALITY
        assert result.witness.residual == pytest.approx(0.05, abs=1e-12)

    def test_phase_dependent_candidate_caught(self, ledger8):
        result = falsify(
            candidate_from_expression("r^2*(1 + 0.1*sin(phi))"), quick_cfg(), ledger8
        )
        assert result.witness is not None
        assert result.witness.residual >= 0.01

    def test_power_2_1_candidate(self, ledger8):
        # N * N^(-p/2) - 1 at p = 2.1 grows with N; the certificate at the
        # largest in-range dimension must see at least the N=8 residual
        result = falsify(candidate_from_expression("r^2.1"), quick_cfg(), ledger8)
        assert result.witness is not None
        assert result.witness.construction_tag is ConstructionTag.LEDGER_CERTIFICATE


class TestRotatedLedger:
    def test_witness_comes_from_the_rotated_base(self):
        ledger = build_ledger(8, rotate_bases=True, seed=3)
        w = falsify(candidate_from_expression("r"), quick_cfg(), ledger).witness
        assert w.construction_tag is ConstructionTag.LEDGER_CERTIFICATE
        assert (w.dimension, w.seed_chain) == (2, (0, 1, 2, 1))
        c = ledger.lookup(0.5)
        assert c.base_kind == "haar"
        basis, state = certificate(1, 2, c.theta_samples[0], "haar", c.base_seed)
        assert w.state == state
        assert w.basis == basis
        standard, _ = certificate(1, 2, 0.0, "standard", None)
        assert not np.allclose(w.basis.matrix, standard.matrix)
        assert abs(replay_witness(w) - w.residual) <= 1e-12

    def test_shrink_uses_the_rotated_base(self):
        ledger = build_ledger(8, rotate_bases=True, seed=3)
        cfg = quick_cfg(n_range=(8,))
        w = falsify(candidate_from_expression("r"), cfg, ledger).witness
        shrunk = shrink_witness(w, ledger, cfg)
        assert shrunk.dimension == 2
        c = ledger.lookup(0.5)
        assert shrunk.basis == certificate(1, 2, c.theta_samples[0], "haar", c.base_seed)[0]
        assert abs(replay_witness(shrunk) - shrunk.residual) <= 1e-12


class TestCleanRun:
    def test_born_produces_no_witness(self, ledger8):
        result = falsify(born_candidate(), quick_cfg(n_range=(2, 3, 4)), ledger8)
        assert result.witness is None
        assert result.probes["ledger"] > 0
        assert result.probes["random"] > 0
        assert result.probes["optimizer"] > 0


class TestWitnessReplay:
    def test_replay_matches_recorded_residual(self, ledger8):
        for expr in ("r", "r^4", "r^2 + 0.05"):
            result = falsify(candidate_from_expression(expr), quick_cfg(), ledger8)
            w = result.witness
            assert abs(replay_witness(w) - w.residual) <= 1e-12

    def test_replay_with_explicit_candidate(self, ledger8):
        result = falsify(candidate_from_expression("r"), quick_cfg(), ledger8)
        replayed = replay_witness(result.witness, candidate_from_expression("r"))
        assert abs(replayed - result.witness.residual) <= 1e-12


class TestDeterminism:
    def test_identical_runs_identical_witness(self, ledger8):
        cfg = quick_cfg()
        a = falsify(candidate_from_expression("r"), cfg, ledger8)
        b = falsify(candidate_from_expression("r"), cfg, ledger8)
        assert a.to_json() == b.to_json()
        assert a.witness.state.amplitudes.tobytes() == b.witness.state.amplitudes.tobytes()


class TestShrink:
    def test_shrink_to_n2(self, ledger8):
        cfg = quick_cfg(n_range=(8,))
        result = falsify(candidate_from_expression("r"), cfg, ledger8)
        assert result.witness.dimension == 8
        shrunk = shrink_witness(result.witness, ledger8, cfg)
        assert shrunk.dimension == 2
        assert shrunk.residual == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_idempotent(self, ledger8):
        cfg = quick_cfg()
        result = falsify(candidate_from_expression("r"), cfg, ledger8)
        once = shrink_witness(result.witness, ledger8, cfg)
        twice = shrink_witness(once, ledger8, cfg)
        assert once.to_json() == twice.to_json()

    def test_fixture_wrong_only_above_denominator_5(self, ledger8):
        fixture = make_wrong_above_denominator(5)
        cfg = quick_cfg(n_range=(8,), random_trials=0, optimizer_steps=0)
        result = falsify(fixture, cfg, ledger8)
        assert result.witness is not None
        shrunk = shrink_witness(result.witness, ledger8, cfg)
        assert shrunk.dimension == 5


class TestOptimizer:
    def test_trace_is_monotone(self):
        _, _, best, trace = hill_climb(
            candidate_from_expression("r^2.5"), 4, steps=60, step_scale=0.1, seed=3
        )
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert best == trace[-1]

    def test_finds_violation_without_ledger_help(self):
        # phases 1-2 disabled; the climber alone must push the residual
        # of a non-Born candidate above threshold
        _, _, best, _ = hill_climb(
            candidate_from_expression("r"), 3, steps=100, step_scale=0.2, seed=1
        )
        assert best >= 1e-3


def band_candidate() -> CandidateDistribution:
    """|z|^2, except 0.1 higher for |z|^2 in (0.96, 0.97): no K/N with N <= 8
    lies there, so it passes the ledger phase and only a random draw that
    lands in the band catches it."""

    def fn(z: complex) -> float:
        mod_sq = abs(z) ** 2
        return mod_sq + (0.1 if 0.96 < mod_sq < 0.97 else 0.0)

    return CandidateDistribution("band", fn)


class TestStackedPhasesMatchPerProbe:
    """Each stacked phase against its one-probe-at-a-time form in reference.py."""

    @pytest.mark.parametrize("expr, n, seed, step_scale, steps", [
        ("r", 3, 1, 0.2, 300),  # accepts often, so windows restart mid-way
        ("r^2", 32, 7, 0.1, 400),
        ("r^2.5", 4, 3, 0.1, 137),
        ("r^2*(1 + 0.1*sin(phi))", 5, 0, 0.5, 250),
        ("r^2", 1, 2, 0.1, 45),
        ("r", 2, 4, 0.1, 0),
    ])
    def test_hill_climb(self, expr, n, seed, step_scale, steps):
        p = candidate_from_expression(expr)
        u, state, best, trace = hill_climb(p, n, steps, step_scale, seed)
        ref_u, ref_state, ref_best, ref_trace = reference.hill_climb(
            p, n, steps, step_scale, seed)
        assert u.tobytes() == ref_u.tobytes()
        assert state == ref_state
        assert (best, trace) == (ref_best, ref_trace)

    def test_hill_climb_restarts_windows_after_accepts(self):
        _, _, _, trace = hill_climb(candidate_from_expression("r"), 3, 300, 0.2, 1)
        accepts = [i for i, (a, b) in enumerate(zip(trace, trace[1:])) if b > a]
        assert len(accepts) >= 10
        # back-to-back accepts: the rest of a window was re-scored from a new U
        assert any(b == a + 1 for a, b in zip(accepts, accepts[1:]))

    def test_hill_climb_python_candidate(self):
        p = band_candidate()
        ours = hill_climb(p, 2, 200, 0.3, 5)
        ref = reference.hill_climb(p, 2, 200, 0.3, 5)
        assert ours[0].tobytes() == ref[0].tobytes()
        assert ours[1:] == ref[1:]

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_random_witness_after_trial_zero(self, ledger8, seed):
        cfg = quick_cfg(n_range=(2, 3), random_trials=200, optimizer_steps=0, seed=seed)
        result = falsify(band_candidate(), cfg, ledger8)
        want, probes = reference.random_phase(band_candidate(), cfg)
        assert result.witness.construction_tag is ConstructionTag.RANDOM_BASIS
        assert result.witness.to_json() == want
        assert result.probes["random"] == probes
        assert result.witness.seed_chain[3] > 0

    def test_random_witness_of_the_ledger_locked_candidate(self, ledger8):
        p = make_ledger_locked_candidate(8)
        cfg = quick_cfg(n_range=(2, 3), random_trials=50, optimizer_steps=0)
        result = falsify(p, cfg, ledger8)
        want, probes = reference.random_phase(p, cfg)
        assert result.witness.to_json() == want
        assert result.probes["random"] == probes

    def test_optimizer_witness(self, ledger8):
        p = make_ledger_locked_candidate(8)
        cfg = quick_cfg(n_range=(2, 3), random_trials=0, optimizer_steps=500, seed=1)
        result = falsify(p, cfg, ledger8)
        want, probes = reference.optimizer_phase(p, cfg)
        assert result.witness.construction_tag is ConstructionTag.OPTIMIZED_BASIS
        assert result.witness.to_json() == want
        assert result.probes["optimizer"] == probes

    def test_clean_run_probe_counts(self, ledger8):
        cfg = quick_cfg(n_range=(2, 3, 5, 8), random_trials=45, optimizer_steps=130)
        result = falsify(born_candidate(), cfg, ledger8)
        assert result.witness is None
        assert result.probes["random"] == reference.random_phase(born_candidate(), cfg)[1]
        assert result.probes["optimizer"] == reference.optimizer_phase(born_candidate(), cfg)[1]

    @pytest.mark.parametrize("rotate", [False, True])
    def test_ledger_probes_are_the_certificates(self, rotate):
        ledger = build_ledger(6, rotate_bases=rotate, seed=3)
        p = candidate_from_expression("r^2.2")
        probes = iter(_ledger_probes(p, ledger, range(1, 7), 0))
        for c in ledger.constraints()[1:]:
            for theta in c.theta_samples:
                probe = next(probes)
                basis, state = certificate(c.K, c.N, theta, c.base_kind, c.base_seed)
                assert (probe.state, probe.basis) == (state, basis)
                assert probe.residual == reference.normalization(
                    p, basis.matrix, state.amplitudes)
        assert next(probes, None) is None


class TestConfigValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            FalsifierConfig(random_trials=-1)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            FalsifierConfig(n_range=())

    # a step scale past MAX_STEP_SCALE made expm lose unitarity, so 1e10 is refused
    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{value}-{field}")
        for field in ("step_scale", "violation_threshold")
        for value in (0.0, -1.0, math.inf, math.nan)
    ] + [pytest.param("step_scale", 1e10, id="1e10-step_scale")])
    def test_scale_and_threshold_finite_positive(self, field, value):
        with pytest.raises(ParameterError):
            FalsifierConfig(**{field: value})

    def test_range_beyond_ledger_rejected(self, ledger8):
        with pytest.raises(ParameterError):
            falsify(born_candidate(), quick_cfg(n_range=(16,)), ledger8)


def test_witness_json_embeds_replay_inputs(ledger8):
    result = falsify(candidate_from_expression("r"), quick_cfg(), ledger8)
    doc = result.witness.to_json()
    assert doc["candidate"] == "r"
    assert len(doc["basis"]) == doc["dimension"]
    assert len(doc["state"]) == doc["dimension"]
    assert doc["seed_chain"]
    assert doc["construction_tag"] == "LedgerCertificate"
