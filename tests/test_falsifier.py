import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

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
)
from bornlab import axioms, construction, hilbert
from bornlab.cli import main
from bornlab.falsifier import (
    MAX_STEP_SCALE,
    _ledger_phase,
    _ledger_residuals,
    _ledger_witness,
    expm,
    hill_climb,
)

import reference
from conftest import make_ledger_locked_candidate, make_specs, make_wrong_above_denominator
from reference import certificate, spec_rows


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
        i = int(np.flatnonzero((ledger.ks == 1) & (ledger.ns == 2))[0])
        assert ledger.seeds[i] >= 0  # a Haar base
        basis, state = certificate(1, 2, ledger.thetas[ledger.offsets[i]], ledger.seeds[i])
        assert w.state == state
        assert w.basis == basis
        standard, _ = certificate(1, 2, 0.0, -1)
        assert not np.allclose(w.basis.matrix, standard.matrix)
        assert abs(replay_witness(w) - w.residual) <= 1e-12

    def test_shrink_uses_the_rotated_base(self):
        ledger = build_ledger(8, rotate_bases=True, seed=3)
        cfg = quick_cfg(n_range=(8,))
        w = falsify(candidate_from_expression("r"), cfg, ledger).witness
        shrunk = shrink(w, ledger, cfg)
        assert shrunk.dimension == 2
        i = int(np.flatnonzero((ledger.ks == 1) & (ledger.ns == 2))[0])
        assert shrunk.basis == certificate(1, 2, ledger.thetas[ledger.offsets[i]],
                                           ledger.seeds[i])[0]
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


def shrink(w, specs, cfg):
    """The smallest-dimension ledger witness of w's candidate: the ledger
    phase's own scan over the dimensions 1 .. w.dimension."""
    return _ledger_witness(w.candidate, specs, range(1, w.dimension + 1), cfg)[0]


class TestShrink:
    """A witness shrinks by the ledger phase's scan over the smaller dimensions."""

    def test_shrink_to_n2(self, ledger8):
        cfg = quick_cfg(n_range=(8,))
        result = falsify(candidate_from_expression("r"), cfg, ledger8)
        assert result.witness.dimension == 8
        shrunk = shrink(result.witness, ledger8, cfg)
        assert shrunk.dimension == 2
        assert shrunk.residual == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_fixture_wrong_only_above_denominator_5(self, ledger8):
        fixture = make_wrong_above_denominator(5)
        cfg = quick_cfg(n_range=(8,), random_trials=0, optimizer_steps=0)
        result = falsify(fixture, cfg, ledger8)
        assert result.witness is not None
        shrunk = shrink(result.witness, ledger8, cfg)
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

    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_clean_climb_stops_on_rejections(self, n, seed):
        # on the Born rule nothing beats rounding, so the step scale halves
        # every STEP_WINDOW rejections and a climb ends well before its cap of
        # 1,001 probes (at most 381 here).  A step whose rounding builds up and
        # reads as residual gain climbs on: over the unitary group, the Cayley
        # form (I - X/2)^-1 (I + X/2) passed 700 on 5 of these 18 climbs (2
        # reached the cap), and an eigh exponential reached the cap on all 18.
        _, _, _, trace = hill_climb(candidate_from_expression("r^2"), n, 1000, 0.1, seed)
        assert len(trace) < 700

    def test_clean_climb_stays_at_the_rounding_floor(self):
        # every candidate is renormalised, so the best residual of the Born
        # rule is rounding in one sum: at most 8.9e-16 over these 248 climbs,
        # where the Cayley steps over the unitary group reached 8.0e-15
        p = candidate_from_expression("r^2")
        floor = max(hill_climb(p, n, 1000, 0.1, seed)[2]
                    for n in range(2, 33) for seed in range(1, 9))
        assert floor <= 2e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["ledger-locked", "bump"])
    def test_witness_is_a_state_in_the_standard_basis(self, ledger8, name, seed):
        # the ledger-locked candidate's climb never accepts; the bump's climbs
        # to its peak, so its witness state is a renormalised candidate
        p = make_ledger_locked_candidate(8) if name == "ledger-locked" else (
            candidate_from_expression(BUMP))
        cfg = quick_cfg(n_range=(2, 3), random_trials=0, optimizer_steps=500, seed=seed)
        result = falsify(p, cfg, ledger8)
        w = result.witness
        assert w.construction_tag is ConstructionTag.OPTIMIZED_BASIS
        assert w.seed_chain == (seed, 3, w.dimension)
        assert w.basis.matrix.tobytes() == np.eye(w.dimension, dtype=complex).tobytes()
        assert replay_witness(w) == w.residual

    # median best residual of the climber over the unitary group (Cayley
    # steps) at 200 steps, scale 0.1 and seeds 0-4; the walk over states
    # reached 0.94-1.0 of each
    CAYLEY_MEDIANS = {
        ("r^2.01", 3): 5.478e-3, ("r^2.01", 8): 1.0342e-2, ("r^2.01", 32): 1.7028e-2,
        ("r^2*(1 + 0.001*sin(phi))", 3): 9.99998e-4,
        ("r^2*(1 + 0.001*sin(phi))", 8): 9.9865e-4,
        ("r^2*(1 + 0.001*sin(phi))", 32): 9.3734e-4,
        ("r^2 + 0.001*sin(10*r)", 3): 2.3017e-3, ("r^2 + 0.001*sin(10*r)", 8): 4.6268e-3,
        ("r^2 + 0.001*sin(10*r)", 32): 3.0464e-2,
        ("r^2+0.01*r^3*(1-r)", 3): 2.4402e-3, ("r^2+0.01*r^3*(1-r)", 8): 2.4669e-3,
        ("r^2+0.01*r^3*(1-r)", 32): 2.1618e-3,
    }

    @pytest.mark.parametrize("expr, n", sorted(CAYLEY_MEDIANS))
    def test_climbs_as_high_as_the_unitary_climber(self, expr, n):
        p = candidate_from_expression(expr)
        bests = [hill_climb(p, n, 200, 0.1, seed)[2] for seed in range(5)]
        assert np.median(bests) >= 0.8 * self.CAYLEY_MEDIANS[expr, n]


class TestCayleyStep:
    """``expm``, the Cayley map that perfbench traces, on stacks of skew-Hermitian X."""

    @pytest.mark.parametrize("n", [1, 2, 32])
    @pytest.mark.parametrize("scale", [1e-6, 0.1, MAX_STEP_SCALE])
    def test_step(self, n, scale):
        a = np.random.default_rng([n, 7]).standard_normal((20, 2, n, n))
        a = a[:, 0] + 1j * a[:, 1]
        x = scale * ((a - a.conj().swapaxes(-1, -2)) / 2.0)
        steps = expm(x)
        for xi, step in zip(x, steps):
            assert step.tobytes() == reference.cayley(xi).tobytes()
            # exactly unitary but for rounding in the solve, which grows with
            # cond(I - X/2) <= 1 + |X|/2: at n = 32, 2,000 draws reached
            # 6.7e-16 at scale 0.1 and 1.7e-14 at scale 10
            defect = np.abs(step.conj().T @ step - np.eye(n)).max()
            assert defect <= 1e-14 * max(1.0, scale)
            # on an eigenvalue i*lam the map turns by 2 atan(lam/2) where exp
            # turns by lam, so |Cayley(X) - exp(X)| <= |X|^3/12 in the 2-norm
            bound = np.linalg.norm(xi, 2) ** 3 / 12 + 1e-14
            assert np.linalg.norm(step - scipy_expm(xi), 2) <= bound


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
        basis, state, best, trace = hill_climb(p, n, steps, step_scale, seed)
        _, ref_state, ref_best, ref_trace = reference.hill_climb(p, n, steps, step_scale, seed)
        assert basis is None
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
        assert ours[0] is None
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
        # each closed-form residual is its constructed certificate's, up to rounding
        ledger = build_ledger(24, (-7.5, -0.3, 0.0, 1.0, 7.0, 100.0), rotate, seed=3)
        p = candidate_from_expression("r^2.2")
        specs = ledger.select(ledger.ks > 0)
        residuals = _ledger_residuals(p, specs)
        rows = [(k, n, theta, seed) for k, n, thetas, seed in spec_rows(specs) for theta in thetas]
        assert len(rows) == len(residuals)
        for (k, n, theta, seed), residual in zip(rows, residuals.tolist()):
            basis, state = certificate(k, n, theta, seed)
            constructed = reference.normalization(p, basis.matrix, state.amplitudes)
            assert abs(residual - constructed) <= 1e-14, (k, n, theta)


    @pytest.mark.parametrize("expr", ["1/r", "1/(1-r)"])
    def test_a_term_of_count_zero_stays_zero(self, expr):
        # K = 1 has no zero overlap and K = N no symmetric one; an undefined
        # P(0) or P(e^{i theta}) times that count 0 must not give nan
        p = candidate_from_expression(expr)
        rows = [(1, 1, 0.0), (1, 1, 1.0), (1, 2, 0.0), (1, 2, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = _ledger_residuals(p, make_specs([(1, 1, (0.0, 1.0), -1),
                                                         (1, 2, (0.0, 1.0), -1)]))
        for (k, n, theta), residual in zip(rows, residuals.tolist()):
            basis, state = certificate(k, n, theta, -1)
            constructed = reference.normalization(p, basis.matrix, state.amplitudes)
            assert residual == constructed or abs(residual - constructed) <= 1e-14


LEDGER_CANDIDATES = {
    "r": candidate_from_expression("r"),
    "r^4": candidate_from_expression("r^4"),
    "r^2 + 0.05": candidate_from_expression("r^2 + 0.05"),
    "phi": candidate_from_expression("r^2*(1 + 0.1*sin(phi))"),
    "r^2.1": candidate_from_expression("r^2.1"),
    "r^2.2": candidate_from_expression("r^2.2"),
    "ledger-locked": make_ledger_locked_candidate(8),
    "wrong-above-5": make_wrong_above_denominator(5),
}


BUMP = "r^2 + 0.5*exp(0-1000*(r-0.3)^2)"  # passes the ledger at N = 2..3, not the random phase


class TestRandomPhase:
    """Trial t of dimension N is the t-th Haar state of the stream keyed
    (seed, 2, N), scored in the standard basis."""

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_bump_is_caught_by_a_random_probe(self, ledger8, seed):
        cfg = quick_cfg(n_range=(2, 3), random_trials=200, optimizer_steps=0, seed=seed)
        result = falsify(candidate_from_expression(BUMP), cfg, ledger8)
        w = result.witness
        assert result.probes["ledger"] == 17
        assert w.construction_tag is ConstructionTag.RANDOM_BASIS
        assert w.basis.matrix.tobytes() == np.eye(w.dimension, dtype=complex).tobytes()
        assert w.seed_chain[:3] == (seed, 2, w.dimension) and len(w.seed_chain) == 4
        assert replay_witness(w) == w.residual
        want, probes = reference.random_phase(candidate_from_expression(BUMP), cfg)
        assert (w.to_json(), result.probes["random"]) == (want, probes)

    @pytest.mark.parametrize("chunk", [1, 7, 20])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_trial_depends_on_seed_dimension_and_index_alone(self, ledger8, monkeypatch,
                                                              seed, chunk):
        monkeypatch.setattr(axioms, "RANDOM_CHUNK", chunk)
        p = candidate_from_expression(BUMP)
        cfg = quick_cfg(n_range=(2, 3), random_trials=200, optimizer_steps=0, seed=seed)
        want, probes = reference.random_phase(p, cfg)
        t = want["seed_chain"][3]
        for trials in (t + 1, 200):
            result = falsify(p, replace(cfg, random_trials=trials), ledger8)
            assert (result.witness.to_json(), result.probes["random"]) == (want, probes)

    @pytest.mark.parametrize("chunk", [1, 7, 20])
    def test_stream_is_cut_into_chunks_in_order(self, monkeypatch, chunk):
        p = candidate_from_expression("r^2")
        whole = list(axioms.random_probes(p, (3, 2), 5, 45))
        monkeypatch.setattr(axioms, "RANDOM_CHUNK", chunk)
        cut = list(axioms.random_probes(p, (3, 2), 5, 45))
        assert [t for ts, _, _ in cut for t in ts] == list(range(45))
        assert all(len(ts) <= chunk for ts, _, _ in cut)
        for part in (1, 2):
            assert (np.concatenate([c[part] for c in cut]).tobytes()
                    == np.concatenate([w[part] for w in whole]).tobytes())


class TestLedgerPhaseMatchesReference:
    """The closed-form ledger phase finds the witness and probe count of
    building and scoring every certificate one at a time."""

    @pytest.fixture(scope="class", params=[False, True], ids=["standard", "rotated"])
    def ledger(self, request):
        return build_ledger(8, (-7.5, 0.0, 1.0, 100.0), request.param, seed=3)

    @pytest.mark.parametrize("name", sorted(LEDGER_CANDIDATES))
    def test_witness_and_probes(self, ledger, name):
        p = LEDGER_CANDIDATES[name]
        cfg = quick_cfg()
        witness, probes = _ledger_phase(p, cfg, ledger)
        assert (witness and witness.to_json(), probes) == reference.ledger_phase(p, cfg, ledger)
        if witness:
            assert abs(replay_witness(witness) - witness.residual) <= 1e-12

    @pytest.mark.parametrize("name", sorted(LEDGER_CANDIDATES))
    def test_shrink(self, ledger, name):
        # from N = 1 up, past the orthogonality probe, whatever phase found w
        p = LEDGER_CANDIDATES[name]
        cfg = quick_cfg(n_range=(8,), random_trials=20, optimizer_steps=50)
        w = falsify(p, cfg, ledger).witness
        dims = range(1, w.dimension + 1)
        shrunk, probes = _ledger_witness(p, ledger, dims, cfg)
        scan = reference.ledger_scan(p, ledger, dims, 0, cfg.violation_threshold)
        assert (shrunk and shrunk.to_json(), probes) == scan


def test_clean_ledger_phase_builds_no_basis(monkeypatch, capsys):
    calls = {name: [] for name in ("_rebuild_base", "partial_dft_basis")}
    for name, seen in calls.items():
        real = getattr(construction, name)
        monkeypatch.setattr(construction, name,
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    argv = ["--n-range", "2..64", "--trials", "0", "--optimizer-steps", "0"]
    assert main(["falsify", "-p", "r^2", *argv]) == 1
    assert calls == {"_rebuild_base": [], "partial_dft_basis": []}
    assert main(["falsify", "-p", "r^2.1", *argv]) == 0  # its witness: K/N = 1/2
    assert [len(seen) for seen in calls.values()] == [1, 1]
    capsys.readouterr()


def test_clean_random_and_optimizer_phases_build_no_basis(monkeypatch, ledger8):
    # both phases score each state as its own overlap vector; a standard
    # basis, whose check is an n^3 Gram product, is built only for a witness
    built = []
    real = hilbert.OrthonormalBasis.__init__
    monkeypatch.setattr(hilbert.OrthonormalBasis, "__init__",
                        lambda self, matrix: built.append(len(matrix)) or real(self, matrix))
    cfg = quick_cfg(n_range=(3, 5, 8), random_trials=45, optimizer_steps=100)
    result = falsify(born_candidate(), cfg, ledger8)
    assert result.witness is None and result.probes["optimizer"] > 3
    assert built == [3]  # the ledger phase's P(0), P(1) probe at the smallest N


class TestConfigValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            FalsifierConfig(random_trials=-1)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            FalsifierConfig(n_range=())

    # past MAX_STEP_SCALE a step is no longer local: the renormalised
    # w + scale * g lies near the fresh random state g / |g|, so 1e10 is refused
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
