import math
from fractions import Fraction

import numpy as np
import pytest

from bornlab import (
    DimensionError,
    ParameterError,
    StateVector,
    frequentist_report,
    sample_outcomes,
    simulate_fractions,
    standard_basis,
    symmetric_state,
)
from bornlab.montecarlo import (
    CHI2_PERCENTILE,
    MAX_Z,
    chi_square_threshold,
    sample_counts_from_probabilities,
    z_threshold,
)
from scipy.special import chdtri, erfc, erfcinv

import reference


class TestSampleOutcomes:
    def test_deterministic_outcome_state(self):
        counts = sample_outcomes(standard_basis(4).vector(0), standard_basis(4), 5000, 1)
        assert list(counts) == [5000, 0, 0, 0]

    def test_symmetric_state_n2_within_4_sigma(self):
        psi = symmetric_state(standard_basis(2), 0.0)
        counts = sample_outcomes(psi.state, standard_basis(2), 10**6, 2)
        sigma = math.sqrt(10**6 * 0.25)
        assert abs(counts[0] - 500_000) <= 4 * sigma

    def test_one_third_two_thirds_within_4_sigma(self):
        state = StateVector(np.sqrt([1 / 3, 2 / 3]))
        counts = sample_outcomes(state, standard_basis(2), 10**6, 3)
        sigma = math.sqrt(10**6 * (1 / 3) * (2 / 3))
        assert abs(counts[0] - 10**6 / 3) <= 4 * sigma
        assert abs(counts[1] - 2 * 10**6 / 3) <= 4 * sigma

    def test_conservation(self):
        state = StateVector(np.sqrt([0.1, 0.2, 0.3, 0.4]))
        for n in (1, 7, 65_536, 100_001):
            assert sample_outcomes(state, standard_basis(4), n, 9).sum() == n

    def test_seed_determinism(self):
        state = StateVector(np.sqrt([1 / 3, 2 / 3]))
        a = sample_outcomes(state, standard_basis(2), 200_000, 5)
        b = sample_outcomes(state, standard_basis(2), 200_000, 5)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sample_outcomes(standard_basis(3).vector(0), standard_basis(2), 10, 0)

    def test_bad_sample_count(self):
        with pytest.raises(ParameterError):
            sample_outcomes(standard_basis(2).vector(0), standard_basis(2), 0, 0)


def two_sample_chi_square(a, b):
    """Pearson's chi-square of two count vectors of equal total over the
    cells either holds, and its degrees of freedom."""
    held = (a + b) > 0
    a, b = a[held], b[held]
    return float(np.sum((a - b) ** 2 / (a + b))), int(held.sum()) - 1


def half_in_first_cell(k):
    """k cell weights: half the mass in the first cell, random weights with
    runs of zero cells in the rest."""
    rng = np.random.default_rng(k)
    weights = rng.random(k - 1)
    weights[rng.random(k - 1) < 0.25] = 0.0
    weights[0] = weights[0] or 1.0
    return np.concatenate([[0.5], 0.5 * weights / weights.sum()])


def pooled_chi_square(probabilities, reference_probabilities):
    """Two-sample chi-square of the sampler's and the per-draw lookup's
    counts, each pooled over seeds 0-199 at 10^5 samples (2 x 10^7 draws),
    and its 99.99th percentile."""
    seeds, n_samples = range(200), 10**5
    ours = sum(sample_counts_from_probabilities(probabilities, n_samples, seed)
               for seed in seeds)
    theirs = sum(reference.lookup_counts(reference_probabilities, n_samples, seed)
                 for seed in seeds)
    chi_square, dof = two_sample_chi_square(ours, theirs)
    return chi_square, float(chdtri(dof, 1.0 - CHI2_PERCENTILE))


class TestSortAndCount:
    # the sampler against the per-draw inverse-CDF lookup; one multinomial
    # draw consumes the RNG differently, so the two agree in distribution
    @pytest.mark.parametrize("k", [2, 17, 1024])
    def test_counts_equal_per_draw_lookup(self, k):
        probabilities = half_in_first_cell(k)
        chi_square, threshold = pooled_chi_square(probabilities, probabilities)
        assert chi_square < threshold


class TestMultinomialCounts:
    @pytest.mark.parametrize("k", [2, 17, 512])
    def test_first_cell_one_percent_heavier_is_told_apart(self, k):
        probabilities = half_in_first_cell(k)
        heavier = probabilities.copy()
        heavier[0] *= 1.01
        chi_square, threshold = pooled_chi_square(probabilities, heavier / heavier.sum())
        assert chi_square > threshold

    @pytest.mark.parametrize("k", [2, 17, 512])
    def test_zero_cells_get_no_counts(self, k):
        probabilities = half_in_first_cell(k)
        counts = sample_counts_from_probabilities(probabilities, 10**12, k)
        assert counts.dtype == np.int64 and counts.sum() == 10**12
        assert not counts[probabilities == 0.0].any()

    def test_leading_and_trailing_zero_cells(self):
        probabilities = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
        counts = sample_counts_from_probabilities(probabilities, 100_000, 3)
        assert counts.sum() == 100_000
        assert not counts[probabilities == 0.0].any()

    def test_weights_past_one_by_rounding(self):
        # a basis within ORTHO_TOLERANCE can give such weights; multinomial
        # alone refuses them, and the clipped cumulative sum takes them
        probabilities = np.array([0.5 + 1e-10, 0.5, 0.0])
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(100_000, probabilities)
        counts = sample_counts_from_probabilities(probabilities, 100_000, 0)
        assert counts.sum() == 100_000 and counts[2] == 0


class TestFrequentistReport:
    def test_fabricated_exact_counts(self):
        report = frequentist_report([250, 750], [Fraction(1, 4), Fraction(3, 4)], 1000)
        assert report.chi_square == 0.0
        assert report.passed

    def test_maximal_deviation_fails(self):
        n = 10_000
        report = frequentist_report([0, n], [Fraction(1, 2), Fraction(1, 2)], n)
        assert report.chi_square == pytest.approx(n)
        assert not report.passed

    def test_expected_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            frequentist_report([1, 1], [Fraction(1, 2), Fraction(1, 4)], 2)

    def test_counts_must_sum_to_n(self):
        with pytest.raises(ParameterError):
            frequentist_report([1, 2], [Fraction(1, 2), Fraction(1, 2)], 4)

    def test_threshold_is_the_chi2_percentile(self):
        # at 2 dof the percentile q has the closed form -2 ln(1 - q)
        report = frequentist_report([250, 250, 500], [Fraction(1, 4)] * 2 + [Fraction(1, 2)], 1000)
        assert report.degrees_of_freedom == 2
        assert report.chi_square_threshold == pytest.approx(-2 * math.log(1e-4), rel=1e-12)

    def test_single_cell_trivial(self):
        report = frequentist_report([100], [Fraction(1)], 100)
        assert report.chi_square == 0.0
        assert report.degrees_of_freedom == 0
        assert report.passed

    def test_small_cells_pooled(self):
        # expected count 1 in the tiny cell: must be pooled, not divided by
        expected = [Fraction(1, 1000), Fraction(999, 1000)]
        report = frequentist_report([1, 999], expected, 1000)
        assert report.degrees_of_freedom <= 1
        assert math.isfinite(report.chi_square)

    def test_json_round_trip_fields(self):
        report = simulate_fractions([Fraction(1, 3), Fraction(2, 3)], 100_000, 4)
        doc = report.to_json()
        assert doc["n_samples"] == 100_000
        assert sum(doc["counts"]) == 100_000
        assert doc["expected"][0]["fraction"] == "1/3"

    def test_csv_output(self):
        report = simulate_fractions([Fraction(1, 2), Fraction(1, 2)], 1000, 4)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "cell,expected,observed,z"
        assert len(lines) == 3


class TestSimulateFractions:
    def test_honest_simulation_passes(self):
        report = simulate_fractions([Fraction(1, 3), Fraction(2, 3)], 10**6, 1)
        assert report.passed

    @pytest.mark.parametrize(
        "probabilities, n_samples, seed, counts",
        [
            ([Fraction(2, 3), Fraction(1, 3)], 10**7, 7, (6666895, 3333105)),
            ([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], 10**6, 3,
             (249883, 249763, 500354)),
        ],
    )
    def test_pinned_counts(self, probabilities, n_samples, seed, counts):
        # the counts of one multinomial draw from SeedSequence([seed])
        assert simulate_fractions(probabilities, n_samples, seed).counts == counts

    @pytest.mark.parametrize("cells", [1, 2, 3, 16, 17, 512])
    def test_equals_identity_basis_reference(self, cells):
        rng = np.random.default_rng(cells)
        weights = [int(w) for w in rng.integers(0, 5, cells)]
        weights[0] += 1  # some cells empty, never all
        probabilities = [Fraction(w, sum(weights)) for w in weights]
        n_samples = 131_149
        report = simulate_fractions(probabilities, n_samples, cells)
        expected = reference.simulate_fractions(probabilities, n_samples, cells)
        assert report.to_json() == expected.to_json()

    def test_probabilities_validated(self):
        with pytest.raises(ParameterError):
            simulate_fractions([Fraction(2, 3), Fraction(2, 3)], 100, 1)


class TestZThreshold:
    def test_two_cells_keep_max_z_exactly(self):
        assert z_threshold(1) == z_threshold(2) == MAX_Z == 4.0

    def test_tail_shared_among_cells(self):
        # the two-sided tail of each of d - 1 cells is that of MAX_Z over d - 1
        tail = math.erfc(MAX_Z / math.sqrt(2.0))
        for cells in (3, 17, 64, 512):
            z = z_threshold(cells)
            assert math.erfc(z / math.sqrt(2.0)) * (cells - 1) == pytest.approx(tail, rel=1e-9)
        assert [round(z_threshold(d), 2) for d in (3, 64, 512)] == [4.16, 4.89, 5.29]

    # every seed of 0-299 at these sizes whose max |z| exceeds MAX_Z
    @pytest.mark.parametrize("cells, seed", [(64, 132), (64, 173)] + [
        (512, seed) for seed in (7, 42, 68, 81, 91, 96, 105, 119, 125, 155, 191, 270, 294)])
    def test_honest_uniform_runs_pass(self, cells, seed):
        # each fails a bound of 4 on every cell while its chi-square passes
        report = simulate_fractions([Fraction(1, cells)] * cells, 10**5, seed)
        assert report.max_z_score > MAX_Z
        assert report.chi_square <= report.chi_square_threshold
        assert report.passed

    def test_wrong_distribution_fails_at_512_cells(self):
        # uniform draws against weights 3/1024 and 1/1024
        counts = simulate_fractions([Fraction(1, 512)] * 512, 10**5, 1).counts
        report = frequentist_report(counts, [Fraction(3, 1024)] * 256 + [Fraction(1, 1024)] * 256,
                                    10**5)
        assert report.max_z_score > z_threshold(512) and not report.passed

    def test_one_cell_past_its_bound_fails(self):
        # 512 cells, exact counts but for two cells moved 5.5 sigma each
        n, p = 512 * 10**4, Fraction(1, 512)
        shift = math.ceil(5.5 * math.sqrt(n * float(p) * (1 - float(p))))
        counts = [10**4] * 512
        counts[0] += shift
        counts[1] -= shift
        report = frequentist_report(counts, [p] * 512, n)
        assert report.chi_square <= report.chi_square_threshold
        assert z_threshold(512) < report.max_z_score < 5.6 and not report.passed


class TestScipyReferences:
    # the stdlib forms of montecarlo against the scipy.special ones they replace
    def test_chi_square_threshold_is_chdtri(self):
        for dof in [*range(1, 601), 1023, 4095, 10**4]:
            reference = chdtri(dof, 1.0 - CHI2_PERCENTILE)
            assert chi_square_threshold(dof) == pytest.approx(reference, rel=1e-13, abs=0), dof

    def test_z_threshold_is_the_erfcinv_form(self):
        tail = erfc(MAX_Z / math.sqrt(2.0))
        for cells in range(3, 2049):
            reference = math.sqrt(2.0) * erfcinv(tail / (cells - 1))
            assert z_threshold(cells) == pytest.approx(reference, rel=1e-14, abs=0), cells


class TestGatePower:
    # derandomized: seeds 0-299 at every size
    SEEDS = range(300)

    @pytest.mark.parametrize("n_samples", [10**5, 10**8, 10**12])
    @pytest.mark.parametrize("cells", [2, 3, 64, 512])
    def test_honest_runs_pass(self, cells, n_samples):
        if cells == 2:
            probabilities = [Fraction(2, 3), Fraction(1, 3)]
        else:
            probabilities = [Fraction(1, cells)] * cells
        passed = sum(simulate_fractions(probabilities, n_samples, seed).passed
                     for seed in self.SEEDS)
        assert passed >= 299

    @pytest.mark.parametrize("n_samples, failures", [(10**5, 0), (10**12, 300)])
    def test_two_thirds_off_by_1e_minus_5(self, n_samples, failures):
        # z is about 14 at 10^12 samples and 0.005 at 10^5
        drawn = np.array([2 / 3 * (1 + 1e-5), 0.0])
        drawn[1] = 1.0 - drawn[0]
        expected = [Fraction(2, 3), Fraction(1, 3)]
        failed = sum(
            not frequentist_report(
                sample_counts_from_probabilities(drawn, n_samples, seed), expected, n_samples
            ).passed
            for seed in self.SEEDS
        )
        assert failed == failures


def test_inverse_sqrt_n_convergence():
    # empirical max |freq - p| over 20 seeds shrinks at least 3x from
    # n = 1e4 to n = 1e6 for the (1/3, 2/3) fixture
    p = np.array([1 / 3, 2 / 3])
    state = StateVector(np.sqrt(p))
    basis = standard_basis(2)

    def max_err(n):
        worst = 0.0
        for seed in range(20):
            counts = sample_outcomes(state, basis, n, seed)
            worst = max(worst, float(np.max(np.abs(counts / n - p))))
        return worst

    assert max_err(10**4) >= 3 * max_err(10**6)
