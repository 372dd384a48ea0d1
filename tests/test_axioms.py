import math

import numpy as np
import pytest
from scipy import stats

from bornlab import (
    Axiom,
    CandidateDistribution,
    DimensionError,
    DomainError,
    born_candidate,
    candidate_from_expression,
    check_n_independence,
    check_normalization,
    check_orthogonality_axiom,
    check_unitary_invariance,
    check_well_defined,
    haar_unitary,
    random_state,
    run_axiom_suite,
    standard_basis,
    symmetric_state,
)
from bornlab import hilbert
from bornlab.axioms import evaluate, normalization_report, pair_form, random_probes
from bornlab.hilbert import OrthonormalBasis, StateVector, haar_unitaries

import reference


def cand(name, fn):
    return CandidateDistribution(name, fn)


ABS = cand("r", lambda z: abs(z))
QUARTIC = cand("r^4", lambda z: abs(z) ** 4)


class TestWellDefined:
    def test_born_passes(self):
        report = check_well_defined(born_candidate(), [0.0, 0.5, 1.0, 0.3 + 0.4j])
        assert report.max_residual == 0.0
        assert report.passed

    def test_exceeds_one(self):
        report = check_well_defined(cand("2r^2", lambda z: 2 * abs(z) ** 2), [1.0])
        assert report.max_residual == pytest.approx(1.0)
        assert not report.passed

    def test_below_zero(self):
        report = check_well_defined(cand("r^2-0.1", lambda z: abs(z) ** 2 - 0.1), [0.0])
        assert report.max_residual == pytest.approx(0.1)

    def test_nan_output_is_infinite_residual(self):
        report = check_well_defined(cand("nan", lambda z: float("nan")), [0.5])
        assert report.max_residual == math.inf

    def test_complex_output_is_infinite_residual(self):
        report = check_well_defined(cand("z", lambda z: z), [0.5j])
        assert report.max_residual == math.inf


class TestNormalization:
    def test_born_parseval(self):
        basis = OrthonormalBasis(haar_unitary(6, 3).matrix)
        state = random_state(6, 4)
        assert check_normalization(born_candidate(), basis, state) <= 1e-12

    def test_abs_candidate_exact_residual(self):
        psi = symmetric_state(standard_basis(2), 0.0)
        residual = check_normalization(ABS, standard_basis(2), psi.state)
        assert residual == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_quartic_candidate_exact_residual(self):
        psi = symmetric_state(standard_basis(2), 0.0)
        residual = check_normalization(QUARTIC, standard_basis(2), psi.state)
        assert residual == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 4])
    def test_power_law_residual_formula(self, p):
        # |z|^p at the N=2 symmetric state gives residual |2^(1-p/2) - 1|
        candidate = cand(f"r^{p}", lambda z, p=p: abs(z) ** p)
        psi = symmetric_state(standard_basis(2), 0.0)
        residual = check_normalization(candidate, standard_basis(2), psi.state)
        assert residual == pytest.approx(abs(2 ** (1 - p / 2) - 1), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            check_normalization(born_candidate(), standard_basis(2), random_state(3, 0))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 32])
    @pytest.mark.parametrize("p", [
        candidate_from_expression("r^2.5 + 0.01*sin(phi)"),
        cand("python r^2.5", lambda z: abs(z) ** 2.5),
    ], ids=["dsl", "python"])
    def test_stack_is_bit_identical_to_one_pair_at_a_time(self, n, p):
        seeds = range(9)
        bases = haar_unitaries(n, [s + 100 for s in seeds])
        states = np.array([random_state(n, s).amplitudes for s in seeds])
        each = [reference.normalization(p, u, v) for u, v in zip(bases, states)]
        assert check_normalization(p, bases, states).tolist() == each
        one_basis = [reference.normalization(p, bases[0], v) for v in states]
        assert check_normalization(p, bases[0], states).tolist() == one_basis
        one_state = [reference.normalization(p, u, states[0]) for u in bases]
        assert check_normalization(p, bases, states[0]).tolist() == one_state
        single = check_normalization(p, OrthonormalBasis(bases[1]), random_state(n, 1))
        assert type(single) is float and single == each[1]

    def test_stack_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            check_normalization(born_candidate(), haar_unitaries(3, [1, 2]), np.ones((2, 4)))


def probe_overlaps(n: int, draws: int, seed: int) -> np.ndarray:
    """The overlap vectors of the first draws random probes of C^n: the
    states themselves, since each is scored in the standard basis."""
    chunks = random_probes(candidate_from_expression("r^2"), (seed, 2), n, draws)
    return np.vstack([states for _, states, _ in chunks])


def haar_pair_overlaps(n: int, draws: int, seed: int) -> np.ndarray:
    """<v_i|psi> of draws Haar pairs (U, psi), U's rows the basis, each from its own seeds."""
    seeds = np.random.SeedSequence(seed).generate_state(2 * draws, np.uint64).tolist()
    return np.array([reference.haar(n, seeds[2 * t]).conj() @
                     random_state(n, seeds[2 * t + 1]).amplitudes for t in range(draws)])


class TestRandomProbeLaw:
    """A random probe is a Haar state in the standard basis: its overlap
    vector has the law of a Haar pair's, basis and state drawn apart."""

    DRAWS = 3000

    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_first_overlap_against_haar_pairs(self, n):
        w = probe_overlaps(n, self.DRAWS, seed=11)[:, 0]
        ref = haar_pair_overlaps(n, self.DRAWS, seed=12)[:, 0]
        assert stats.ks_2samp(abs(w) ** 2, abs(ref) ** 2).pvalue > 0.01
        assert stats.ks_2samp(np.angle(w), np.angle(ref)).pvalue > 0.01
        # |w_1|^2 of a Haar unit vector of C^n is Beta(1, n - 1)
        assert stats.kstest(abs(w) ** 2, stats.beta(1, n - 1).cdf).pvalue > 0.01

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_mean_weight_is_one_over_n(self, n):
        weights = abs(probe_overlaps(n, self.DRAWS, seed=13)) ** 2
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
        # Var |w_i|^2 = (n - 1) / (n^2 (n + 1)); each mean within 5 standard errors
        error = math.sqrt((n - 1) / (n * n * (n + 1)) / self.DRAWS)
        assert np.abs(weights.mean(axis=0) - 1.0 / n).max() <= 5 * error + 1e-15

    @pytest.mark.parametrize("value, error", [
        (0.5, r"state is not normalized: <v\|v> = 0\.75"),
        (math.nan, "amplitudes must be finite"),
    ])
    def test_a_bad_row_is_refused(self, monkeypatch, value, error):
        with pytest.raises(ValueError, match=error):
            StateVector(np.full(3, value))
        rows = hilbert._random_rows

        def draw(rng, n, count):
            out = rows(rng, n, count)
            out[-1] = value
            return out

        monkeypatch.setattr(hilbert, "_random_rows", draw)
        with pytest.raises(ValueError, match=error):
            next(random_probes(born_candidate(), (0, 2), 3, 5))


class TestOrthogonality:
    def test_born_passes(self):
        basis = OrthonormalBasis(haar_unitary(5, 8).matrix)
        assert check_orthogonality_axiom(born_candidate(), basis).max_residual <= 1e-10

    def test_offset_candidate_fails_at_zero(self):
        shifted = cand("r^2+0.05", lambda z: abs(z) ** 2 + 0.05)
        report = check_orthogonality_axiom(shifted, standard_basis(3))
        assert report.max_residual == pytest.approx(0.05)
        assert not report.passed

    def test_abs_candidate_passes_this_axiom_alone(self):
        report = check_orthogonality_axiom(ABS, standard_basis(3))
        assert report.max_residual <= 1e-10


class TestUnitaryInvariance:
    def test_overlap_form_is_invariant(self):
        report = check_unitary_invariance(pair_form(born_candidate()), 50, 1, dim=4)
        assert report.max_residual <= 1e-12

    def test_basis_dependent_pair_form_fails(self):
        peeking = lambda v, w: abs(w.amplitudes[0]) ** 2
        report = check_unitary_invariance(peeking, 50, 1, dim=4, name="amp1")
        assert report.max_residual > 0.1

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            check_unitary_invariance(pair_form(born_candidate()), 0, 1)


class TestNIndependence:
    def test_born_structural_zero(self):
        report = check_n_independence(born_candidate(), {2, 4, 8}, seed=0)
        assert report.max_residual <= 1e-12

    def test_overlap_only_candidate(self):
        report = check_n_independence(ABS, {2, 3, 4, 6}, seed=5)
        assert report.max_residual <= 1e-9
        assert report.worst_case["overlap_only"]

    def test_cross_dimension_fraction_match(self):
        # modulus 1/2 arises as K/N = 1/4 in both N=4 and N=8 pipelines
        report = check_n_independence(born_candidate(), {4, 8}, seed=3)
        assert report.max_residual <= 1e-12


TRIALS = [1, 19, 20, 21, 45]  # around and across RANDOM_CHUNK = 20
SUITE_CANDIDATES = [
    candidate_from_expression("r^2"),
    candidate_from_expression("r^2*(1 + 0.1*sin(phi))"),
    cand("python r^2.5", lambda z: abs(z) ** 2.5),
    born_candidate(),
    candidate_from_expression("0.5"),  # every trial of a dimension ties
]
SUITE_IDS = ["dsl", "dsl-failing", "python-failing", "python", "dsl-constant"]


class TestStackedSuiteMatchesReference:
    """The stacked axiom checks give the per-probe forms' reports, bit for bit."""

    @pytest.mark.parametrize("trials", TRIALS)
    @pytest.mark.parametrize("p", SUITE_CANDIDATES, ids=SUITE_IDS)
    def test_normalization_report(self, p, trials):
        dims = [1, 2, 3, 7]
        report = normalization_report(p, dims, trials, seed=5)
        assert report.to_json() == reference.normalization_report(p, dims, trials, 5).to_json()
        if p.name != "r^2":  # the failing ones
            assert not report.passed and report.worst_case["trial"] < trials

    @pytest.mark.parametrize("trials", TRIALS)
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("p", [
        pair_form(candidate_from_expression("r^2")),
        lambda v, w: abs(w.amplitudes[0]) ** 2,  # peeks at an amplitude
    ], ids=["dsl", "python-failing"])
    def test_unitary_invariance(self, p, dim, trials):
        report = check_unitary_invariance(p, trials, 3, dim=dim, name="p")
        expected = reference.check_unitary_invariance(p, trials, 3, dim=dim, name="p")
        assert report.to_json() == expected.to_json()

    def test_unitary_invariance_calls_pair_form_once_per_pair(self):
        calls = []
        check_unitary_invariance(lambda v, w: calls.append(v) or 0.0, 21, 0, dim=3)
        assert len(calls) == 2 * 21

    @pytest.mark.parametrize("dims, seed", [
        ({1, 2, 4, 6}, 0), ({3, 5, 8, 16}, 4), ({1}, 1), ({2, 3, 4, 6, 8, 12}, 9),
    ])
    @pytest.mark.parametrize("p", SUITE_CANDIDATES + [
        candidate_from_expression("1/(r-0.5)"),  # undefined at K/N = 1/4: spread inf
    ], ids=SUITE_IDS + ["dsl-undefined"])
    def test_n_independence(self, p, dims, seed):
        report = check_n_independence(p, dims, seed)
        assert report.to_json() == reference.check_n_independence(p, dims, seed).to_json()

    def test_criterion_3_config(self):
        dims, trials, seed = [2, 3, 5, 8, 16, 64], 45, 2024
        p = candidate_from_expression("r^2.000001")
        assert normalization_report(p, dims, trials, seed).to_json() == (
            reference.normalization_report(p, dims, trials, seed).to_json())


class TestEvaluate:
    def test_scalar_and_compiled_paths(self):
        zs = np.array([[0.0, 0.5], [0.6 + 0.8j, -0.3j]])
        compiled = evaluate(candidate_from_expression("r^2"), zs)
        scalar = evaluate(born_candidate(), zs)
        assert compiled.shape == scalar.shape == (2, 2)
        assert np.allclose(compiled, scalar, rtol=0, atol=1e-15)

    def test_undefined_values_are_inf(self):
        values = evaluate(candidate_from_expression("ln(r)"), [0.0, 0.5])
        assert values[0] == math.inf and values[1] == math.log(0.5)
        assert evaluate(cand("nan", lambda z: float("nan")), [0.5])[0] == math.inf
        assert evaluate(cand("z", lambda z: z), [0.5j])[0] == math.inf

    @pytest.mark.parametrize("p", [born_candidate(), candidate_from_expression("r^2")])
    def test_outside_disk_raises(self, p):
        with pytest.raises(DomainError, match=r"\|z\| = 1\.5 is outside"):
            evaluate(p, [0.5, 1.5, 2.0])

    def test_reason_comes_from_the_scalar_path(self):
        report = check_well_defined(candidate_from_expression("ln(r)"), [0.5, 0.0])
        assert report.max_residual == math.inf
        assert report.worst_case == {
            "candidate": "ln(r)",
            "z": [0.0, 0.0],
            "value": None,
            "reason": "evaluation error: ln of non-positive value 0.0",
        }
        ortho = check_orthogonality_axiom(candidate_from_expression("1/r"), standard_basis(2))
        assert (ortho.worst_case["i"], ortho.worst_case["j"]) == (1, 2)
        assert ortho.worst_case["reason"] == "evaluation error: division by zero"


class TestDomain:
    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            born_candidate()(1.5)

    def test_float_slack_tolerated(self):
        assert born_candidate()(1.0 + 5e-10) == pytest.approx(1.0, abs=1e-8)


def test_full_suite_on_born():
    reports = run_axiom_suite(born_candidate(), dims=[2, 3, 5], trials=50, seed=7)
    assert [r.axiom for r in reports] == [
        Axiom.WELL_DEFINED,
        Axiom.NORMALIZATION,
        Axiom.ORTHOGONALITY,
        Axiom.UNITARY_INVARIANCE,
        Axiom.N_INDEPENDENCE,
    ]
    assert all(r.passed for r in reports)
    assert max(r.max_residual for r in reports) <= 1e-9


def test_suite_determinism():
    a = run_axiom_suite(born_candidate(), dims=[2, 4], trials=20, seed=11)
    b = run_axiom_suite(born_candidate(), dims=[2, 4], trials=20, seed=11)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_report_passed_matches_tolerance():
    report = check_well_defined(cand("1.5", lambda z: 1.5), [1.0], tolerance=0.6)
    assert report.max_residual == pytest.approx(0.5)
    assert report.passed
    report = check_well_defined(cand("1.5", lambda z: 1.5), [1.0], tolerance=0.4)
    assert not report.passed
