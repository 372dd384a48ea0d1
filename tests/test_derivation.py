import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bornlab import (
    CertificateError,
    ConstraintLedger,
    ParameterError,
    born_candidate,
    build_ledger,
    candidate_from_expression,
    compare_to_born,
    continuity_extension_check,
    construction,
    derivation,
    verify_ledger,
)
from bornlab.construction import cyclotomic, divides, prime_factors, roots_of_unity_vanish
from bornlab.derivation import (
    DEFAULT_THETAS,
    DEFECT_TOLERANCE,
    OVERLAP_TOLERANCE,
    _reduced_fractions,
    certify_specs,
    ledger_specs,
    read_specs,
)

from conftest import (
    assert_same_specs,
    corrupt_entry,
    float_certificates,
    lookup,
    make_ledger_locked_candidate,
    make_specs,
)
import reference
from reference import full_certificate, spec_rows


def derive(k: int, n: int, theta: float) -> dict:
    """The stored entry, full certificates included, of P(e^{i theta}
    sqrt(K/N)) = K/N in the standard basis, certified at theta alone."""
    return next(certify_specs(make_specs([(k, n, (theta,), -1)])).entry_json([0], True))


def verified(entry: dict) -> bool:
    """Whether every certificate of a ``--full-certificates`` entry passed,
    exact and float."""
    return entry["exact_certificate"]["passed"] and all(c["passed"] for c in entry["certificates"])


def at(ledger, k: int, n: int) -> int:
    """The (N, K) index of the entry K/N of the ledger."""
    return int(np.flatnonzero((ledger.ks == k) & (ledger.ns == n))[0])


def value(entry: dict) -> Fraction:
    """The value an entry asserts."""
    return Fraction(entry["value"]["fraction"])


def fractions(ledger) -> set:
    """The squared moduli K/N of the ledger's entries."""
    return {Fraction(e["K"], e["N"]) for e in ledger.entries}


def totient_sum(n_max: int) -> int:
    # independent oracle: count reduced fractions K/N, 1 <= K <= N <= n_max
    return sum(
        1
        for n in range(1, n_max + 1)
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    )


class TestDeriveP0:
    def test_value(self):
        ledger = build_ledger(1)
        c = ledger.entries[0]
        assert value(c) == Fraction(0)
        assert (c["K"], c["N"]) == (0, 1)
        assert verify_ledger(ledger) == []
        assert verified(next(ledger.entry_json([0], True)))

    def test_ledger_lookup(self, ledger10):
        assert value(lookup(ledger10, Fraction(0))) == Fraction(0)


class TestDeriveUniform:
    def test_n4(self):
        c = derive(1, 4, 0.0)
        assert value(c) == Fraction(1, 4)
        assert Fraction(c["K"], c["N"]) == Fraction(1, 4)
        assert verified(c)

    def test_n1(self):
        c = derive(1, 1, 2.0)
        assert value(c) == Fraction(1)

    def test_n3_exact(self):
        assert value(derive(1, 3, 1.0)) == Fraction(1, 3)

    def test_n0_rejected(self):
        with pytest.raises(ParameterError):
            derive(1, 0, 0.0)


class TestDeriveRational:
    def test_two_thirds(self):
        c = derive(2, 3, 0.5)
        assert value(c) == Fraction(2, 3)
        assert verified(c)
        assert c["certificates"][0]["kind"] == "partial_dft"

    def test_k_equals_n(self):
        c = derive(5, 5, 1.0)
        assert value(c) == Fraction(1)
        assert c["certificates"][0]["kind"] == "single_vector"

    def test_k1_matches_uniform(self):
        # the K = 1 entry of a ledger is the uniform constraint, with the same bits
        a = derive(1, 7, 0.3)
        b = lookup(build_ledger(7, [0.3]), Fraction(1, 7), full_certificates=True)
        assert value(a) == value(b) == Fraction(1, 7)
        assert a["certificates"][0] == b["certificates"][0]

    @pytest.mark.parametrize("k,n", [(0, 3), (4, 3), (-1, 2)])
    def test_out_of_range(self, k, n):
        with pytest.raises(ParameterError):
            derive(k, n, 0.0)

    def test_equivalent_fractions_agree(self):
        reduced = value(derive(1, 2, 0.0))
        for m in (2, 3, 4):
            assert value(derive(m, 2 * m, 0.0)) == reduced

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi, 5.5])
    def test_theta_independence(self, theta):
        c = derive(3, 5, theta)
        assert value(c) == Fraction(3, 5)
        assert verified(c)


class TestBuildLedger:
    def test_n_max_3_fractions(self):
        ledger = build_ledger(3)
        assert fractions(ledger) == {
            Fraction(0),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1),
        }

    def test_n_max_1(self):
        assert fractions(build_ledger(1)) == {Fraction(0), Fraction(1)}

    def test_n_max_0_rejected(self):
        with pytest.raises(ParameterError):
            build_ledger(0)

    def test_farey_size_n_max_64(self, ledger64):
        assert len(ledger64.entries) == 1 + totient_sum(64)

    def test_header_count_is_the_totient_sum(self):
        # totient_sum's gcd count, accumulated over N, and checked against it
        counts = list(itertools.accumulate(
            sum(math.gcd(k, n) == 1 for k in range(1, n + 1)) for n in range(1, 513)))
        assert [counts[n - 1] for n in (1, 2, 7, 64, 512)] == [
            totient_sum(n) for n in (1, 2, 7, 64, 512)]
        assert [_reduced_fractions(n) for n in range(1, 513)] == counts

    def test_header_count_message(self):
        payload = build_ledger(4).to_json()
        payload["entries"] = payload["entries"][:-1]
        with pytest.raises(CertificateError, match=r"^ledger holds 6 entries, not the 7 of n_max=4$"):
            read_specs(payload)

    def test_all_verified(self, ledger10):
        assert ledger10.exact.all() and ledger10.verdicts().all()
        assert all(verified(e) for e in ledger10.json_entries(True))
        assert verify_ledger(ledger10) == []

    def test_constraint_without_certificates_fails_verify_ledger(self, ledger10):
        # nothing was checked, so nothing may read as verified: a NaN number
        # is one that was never computed
        bare = replace(ledger10, errors=np.full_like(ledger10.errors, np.nan))
        assert not bare.verdicts().any()
        assert not any(verified(e) for e in bare.json_entries(True))
        failures = verify_ledger(bare)
        assert len(failures) == len(bare.thetas)

    def test_theta_samples_include_extra(self, ledger10):
        i = at(ledger10, 1, 2)
        assert ledger10.offsets[i + 1] - ledger10.offsets[i] == len(DEFAULT_THETAS) + 1

    def test_monotone_refinement(self):
        assert fractions(build_ledger(4)) <= fractions(build_ledger(8))

    def test_rotated_bases(self):
        ledger = build_ledger(5, rotate_bases=True, seed=7)
        assert verify_ledger(ledger) == []
        assert ledger.seeds[at(ledger, 2, 5)] >= 0  # a Haar base

    def test_entries_in_n_k_order(self, ledger10):
        # P(0) first, then each N's reduced K, as ledger_specs enumerates them
        assert [(e["K"], e["N"]) for e in ledger10.entries] == [(0, 1)] + [
            (k, n) for n in range(1, 11) for k in range(1, n + 1) if math.gcd(k, n) == 1]

    @pytest.mark.parametrize("missing", [Fraction(1, 11), Fraction(3, 2), 0.3])
    def test_lookup_of_a_missing_fraction(self, ledger10, missing):
        # past n_max, above 1, and a float that is no K/N: no entry holds them
        with pytest.raises(KeyError):
            lookup(ledger10, missing)

    def test_entries_hold_their_numbers_only(self):
        # an entry is a row of the ledger's columns: its spec, value, exact
        # verdict and float numbers; its stored dict, certificate dicts and proof
        # trace are built on read, so a ledger at 128 holds about 0.9 MB (3 MB
        # as a tuple of entry objects, 10 MB when each also stored those dicts)
        build_ledger(128)  # warm the per-K caches
        tracemalloc.start()
        try:
            ledger = build_ledger(128)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ledger.entries) == 1 + totient_sum(128)
        assert held < 2e6


class TestUncertifiedLedger:
    """The ledger before any certificate: ``ledger_specs``."""

    @pytest.mark.parametrize("kwargs", [
        {}, {"theta_samples": [0.5, 2.0], "seed": 4}, {"rotate_bases": True, "seed": 3},
    ])
    def test_build_ledger_entries_without_certificates(self, kwargs):
        built = build_ledger(7, **kwargs)
        thetas, specs = ledger_specs(7, **kwargs)
        assert thetas == built.theta_base
        assert_same_specs(specs, built)
        assert spec_rows(specs)[0] == (0, 1, (0.0,), -1)  # P(0), in the standard basis
        assert [Fraction(k, n) for k, n, *_ in spec_rows(built)] == [
            value(e) for e in built.entries]

    def test_n_max_0_rejected(self):
        with pytest.raises(ParameterError):
            ledger_specs(0)

    def test_specs_are_columns(self):
        # five columns: 318,965 entries hold 12.8 MB of float64 thetas and 7.7
        # MB of K, N and seed; a tuple per entry held 67 MB
        ledger_specs(16)  # warm the imports
        tracemalloc.start()
        try:
            _, specs = ledger_specs(1024)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(specs) == 1 + totient_sum(1024)
        assert held <= 25e6

    def test_dims_keep_their_specs(self):
        # the entries of the listed N, with the bits of the full enumeration
        _, full = ledger_specs(12, rotate_bases=True, seed=5)
        _, some = ledger_specs(12, rotate_bases=True, seed=5, dims=[9, 3, 9, 40])
        assert_same_specs(some, full.select((full.ks == 0) | np.isin(full.ns, [3, 9])))
        _, specs = ledger_specs(12, seed=5, dims=[4])
        assert [(k, n) for k, n, *_ in spec_rows(specs)] == [(0, 1), (1, 4), (3, 4)]

    def test_extra_thetas_are_one_stream_per_n(self):
        # each N's extra thetas, in K order, come from the first spawned child
        # of SeedSequence([seed, N]); [seed, N, 0] would be the Haar base's
        # own key, since SeedSequence pads its entropy with zeros
        _, specs = ledger_specs(12, rotate_bases=True, seed=5)
        for n in range(1, 13):
            extras = [thetas[-1] for k, m, thetas, _ in spec_rows(specs) if m == n and k]
            base = np.random.SeedSequence([5, n])
            child = np.random.default_rng(base.spawn(1)[0]).uniform(0.0, 2 * math.pi, len(extras))
            assert extras == child.tolist()
            padded = np.random.SeedSequence([5, n, 0])
            assert padded.generate_state(2).tolist() == base.generate_state(2).tolist()
            own = np.random.default_rng(base).uniform(0.0, 2 * math.pi, len(extras))
            assert extras != own.tolist()


class TestExactCertificate:
    def test_identity_holds_for_every_k_up_to_128(self):
        assert all(roots_of_unity_vanish(k) for k in range(1, 129))

    def test_wrong_divisibility_rejected(self):
        # Phi_12 = 1 - x^2 + x^4 does not divide 1 + x^3 + x^6, which is Phi_9
        assert cyclotomic(12) == (1, 0, -1, 0, 1)
        assert not divides(cyclotomic(12), [1, 0, 0, 1, 0, 0, 1])
        assert divides(cyclotomic(9), [1, 0, 0, 1, 0, 0, 1])

    def test_cyclotomic_polynomials_factor_x_n_minus_1(self):
        # independent of the Moebius product: x^n - 1 = prod_{d | n} Phi_d
        for n in range(1, 65):
            product = [1]
            for d in (d for d in range(1, n + 1) if n % d == 0):
                phi = cyclotomic(d)
                product = [
                    sum(product[i] * phi[j - i] for i in range(len(product))
                        if 0 <= j - i < len(phi))
                    for j in range(len(product) + len(phi) - 1)
                ]
            assert product == [-1] + [0] * (n - 1) + [1], n

    def test_wrong_cyclotomic_polynomial_fails(self, monkeypatch):
        # with Phi_(K+1) in place of Phi_K the identity is false, so a check
        # that passed anyway would certify nothing
        phi = construction.cyclotomic
        monkeypatch.setattr(construction, "cyclotomic", lambda k: phi(k + 1))
        roots_of_unity_vanish.cache_clear()
        try:
            assert [roots_of_unity_vanish(k) for k in (4, 6, 8, 9, 12, 15)] == [False] * 6
        finally:
            roots_of_unity_vanish.cache_clear()

    def test_prime_factors(self):
        assert [prime_factors(k) for k in (1, 2, 12, 97, 360, 512)] == [
            (), (2,), (2, 3), (97,), (2, 3, 5), (2,)
        ]

    @pytest.mark.parametrize("rotate", [False, True])
    def test_every_entry_carries_one(self, rotate):
        for c in build_ledger(12, rotate_bases=rotate, seed=1).json_entries(True):
            primes = prime_factors(c["K"]) if 0 < c["K"] < c["N"] else ()
            assert c["exact_certificate"] == {"primes": list(primes), "passed": True}

    def test_failed_identity_fails_its_entries(self, monkeypatch):
        monkeypatch.setattr(derivation, "roots_of_unity_vanish", lambda k: k != 6)
        c = derive(6, 7, 0.5)
        assert all(cert["passed"] for cert in c["certificates"])  # the floats cannot tell
        assert not c["exact_certificate"]["passed"] and not verified(c)
        with pytest.raises(CertificateError, match="exact certificate failed at K=6, N=7"):
            build_ledger(7)
        ledger = derivation._derive(7)
        i = at(ledger, 6, 7)
        thetas = ledger.thetas[ledger.offsets[i]:ledger.offsets[i + 1]].tolist()
        assert verify_ledger(ledger) == [(6, 7, t) for t in thetas]


class TestFloatCertificate:
    def test_failed_verdict_fails_build_ledger(self, monkeypatch):
        # every overlap error above the tolerance: the first entry in (N, K)
        # order fails at its first theta, reduced mod 2 pi
        monkeypatch.setattr(derivation, "OVERLAP_TOLERANCE", -1.0)
        failed = r"^certificate failed at K=0, N=1, theta=0\.0$"
        with pytest.raises(CertificateError, match=failed):
            build_ledger(3)
        ledger = derivation._derive(3)
        assert not ledger.verdicts().any()
        assert len(verify_ledger(ledger)) == len(ledger.thetas)


    @pytest.mark.parametrize("column, tolerance", [
        ("defects", DEFECT_TOLERANCE), ("errors", OVERLAP_TOLERANCE)])
    def test_tolerance_is_inclusive(self, column, tolerance):
        # a number at its tolerance passes, and the next float up fails
        columns = certify_specs(make_specs([(1, 2, (0.5,), -1)] * 2))
        numbers = np.array([tolerance, math.nextafter(tolerance, math.inf)])
        assert replace(columns, **{column: numbers}).verdicts().tolist() == [True, False]

    @pytest.mark.parametrize("k", [3, 4])
    def test_unreduced_k_equals_n_is_exact(self, k):
        # a K = N entry's state is its base's first vector, so the kernel
        # gives it no DFT block's defect: the reduced ledger's only K = N
        # entry is 1/1, and F_1's defect is 0 anyway
        spec = (k, k, (0.5, 2.0), -1)
        columns = certify_specs(make_specs([spec]))
        assert full_certificate(spec) == (0.0, [0.0, 0.0])
        assert columns.defects.tolist() == [0.0]
        assert columns.errors.tolist() == [0.0, 0.0]


class TestHaarBound:
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_dominates_the_full_construction(self, seed):
        # the per-entry N x N construction, built over the rotated base itself
        ledger = build_ledger(32, rotate_bases=True, seed=seed)
        for spec, bound, bounds in float_certificates(ledger)[1:]:
            defect, errors = full_certificate(spec)
            assert len(errors) == len(bounds)
            assert bound >= defect, spec[:2]
            for theta, error_bound, error in zip(spec[2], bounds, errors):
                assert error_bound >= error, (*spec[:2], theta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certifies_at_the_dimension_bound(self, seed):
        # the widest K at N = 512 takes the largest rounding term
        _, specs = ledger_specs(512, rotate_bases=True, seed=seed, dims=[512])
        keep = np.zeros(len(specs), bool)
        keep[[1, -1]] = True  # after P(0), the first and the last K of N = 512
        columns = certify_specs(specs.select(keep))
        assert columns.exact.all() and columns.verdicts().all()
        assert (columns.defects <= DEFECT_TOLERANCE).all()
        assert (columns.errors <= OVERLAP_TOLERANCE).all()

    def test_standard_numbers_plus_the_bound(self):
        columns = certify_specs(make_specs([(3, 8, (0.4, 2.0), -1), (3, 8, (0.4, 2.0), 17)]))
        eps = derivation.haar_unitary(8, 17).defect
        extra = 8 * eps + derivation.rotation_rounding(3, 8)
        std, rot = columns.defects.tolist()
        assert rot == std + extra
        errors = columns.errors.tolist()
        for a, b in zip(errors[:2], errors[2:]):
            assert b == a + extra


class TestDigest:
    def test_hashes_probes_not_float_numbers(self):
        # the digest of a ledger is its probes' alone: K, N, base seed, theta
        # count and theta bits of each entry, in order; no certificate number
        # or verdict enters it, so no BLAS build or thread count moves it
        rows = [(0, 1, (0.0,), -1), (2, 5, (0.3, 1.0), -1), (1, 3, (0.3, 2.0), 4)]
        c = certify_specs(make_specs(rows))
        digest = derivation.probe_digest(c)
        moved = replace(c, defects=2 * c.defects, errors=c.errors + 1e-15)
        failed = replace(c, errors=np.full_like(c.errors, 2 * OVERLAP_TOLERANCE))
        assert not failed.verdicts().any()
        assert derivation.probe_digest(moved) == derivation.probe_digest(failed) == digest
        assert digest == reference.probe_digest(rows)
        for changed in (
            [rows[0], (3, 5, (0.3, 1.0), -1), rows[2]],
            [rows[0], (2, 6, (0.3, 1.0), -1), rows[2]],
            [rows[0], (2, 5, (0.3, 1.0), 0), rows[2]],
            [rows[0], (2, 5, (math.nextafter(0.3, 1.0), 1.0), -1), rows[2]],
            [rows[0], (2, 5, (0.3,), -1), (1, 3, (1.0, 0.3, 2.0), 4)],  # a theta moved over
            rows[:2],
        ):
            assert derivation.probe_digest(make_specs(changed)) != digest, changed

    @pytest.mark.parametrize("entries", [1, 2, 4096])
    def test_ragged_probes_match_the_reference(self, monkeypatch, entries):
        # each entry's words where its own row count puts them, in passes of
        # any number of entries
        monkeypatch.setattr(derivation, "DIGEST_ENTRIES", entries)
        rows = [(1, 2, (0.0,), -1), (1, 3, (0.5, 1.5, 7.0), -1), (2, 3, (), -1),
                (2, 7, (0.3,), 11), (1, 1, (0.2, -0.4), -1)]
        assert derivation.probe_digest(make_specs(rows)) == reference.probe_digest(rows)
        assert derivation.probe_digest(make_specs([])) == reference.probe_digest([])


class TestCompareToBorn:
    def test_exactly_zero(self, ledger64):
        assert compare_to_born(ledger64) == 0

    def test_corrupted_entry_detected(self, ledger10):
        bad = corrupt_entry(ledger10, Fraction(1, 2), Fraction(2, 5))
        assert compare_to_born(bad) > 0


class TestSerialization:
    def test_round_trip_preserves_verification(self, ledger10):
        rebuilt = ConstraintLedger.from_json(ledger10.to_json())
        assert rebuilt.entries == ledger10.entries  # K, N and value of each
        assert verify_ledger(rebuilt) == []

    def test_digest_tamper_detected(self, ledger10):
        payload = ledger10.to_json()
        payload["digest"] = "0" * 64
        for read in (ConstraintLedger.from_json, read_specs):
            with pytest.raises(CertificateError, match="^digest mismatch: "):
                read(payload)

    def test_certify_derives_from_the_header_alone(self, monkeypatch):
        # one derive path for build_ledger and from_json: neither reads the
        # stored entries through read_specs
        def refuse(*args):
            raise AssertionError("an entry was read as a spec")

        monkeypatch.setattr(derivation, "read_specs", refuse)
        built = build_ledger(7, rotate_bases=True, seed=3)
        rebuilt = ConstraintLedger.from_json(built.to_json())
        assert rebuilt.entries == built.entries and verify_ledger(rebuilt) == []
        for name, column in vars(built).items():  # the float numbers too
            assert np.array_equal(getattr(rebuilt, name), column), name
        assert not hasattr(derivation, "_certified")

    def test_every_key_derive_writes_is_compared(self, ledger10, monkeypatch):
        # no hand-kept field list: a key that derive would add must be stored too
        payload = ledger10.to_json()
        real = derivation._stored_json
        monkeypatch.setattr(derivation, "_stored_json", lambda *args: (
            dict(entry, extra=entry["N"]) for entry in real(*args)))
        for read in (ConstraintLedger.from_json, read_specs):
            with pytest.raises(CertificateError, match="^extra mismatch at K=0, N=1$"):
                read(payload)

    def test_value_tamper_detected(self, ledger10):
        payload = ledger10.to_json()
        entry = next(e for e in payload["entries"] if e["K"] == 1 and e["N"] == 2)
        entry["value"]["fraction"] = "2/5"
        with pytest.raises(CertificateError):
            ConstraintLedger.from_json(payload)

    def test_first_mismatch_in_n_k_order(self, ledger10):
        # the stored entries are read in the file's Farey order, 1/3 before
        # 1/2; the fault raised is still the first in (N, K) order
        payload = ledger10.to_json()
        for entry in payload["entries"]:
            if entry["K"] == 1 and entry["N"] in (2, 3):
                entry["value"] = None
        for read in (ConstraintLedger.from_json, read_specs):
            with pytest.raises(CertificateError, match="^value mismatch at K=1, N=2$"):
                read(payload)

    @pytest.mark.parametrize(
        "make,digest",
        [
            (lambda: build_ledger(64),
             "7441ed4b817f3969859249f19f3513b28971a9e94c402113ecd93cc7886bf4ae"),
            (lambda: build_ledger(16, rotate_bases=True, seed=3),
             "5706f44c8cdb6fe2eda7d5d94ddb5c55a465b80c6f0959a508f7575c30d15d50"),
        ],
        ids=["standard-n64", "rotated-n16-seed3"],
    )
    def test_ledger_bits_pinned(self, make, digest):
        # A change to either pin must bump derivation.FORMAT_VERSION: ledgers
        # written before it would no longer certify.  The payload holds no
        # float certificate number, only its header, exact values and the
        # digest of its probes, so no BLAS build or thread count moves it.
        blob = json.dumps(make().to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_full_certificate_bits_pinned(self):
        # the bases, states and overlaps of --full-certificates, rotated bases
        # included; these are BLAS products, so another BLAS build may move them
        payload = build_ledger(6, rotate_bases=True, seed=2).to_json(full_certificates=True)
        blob = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "f111d97a367b385527e5006c4f4838974bf629e56695a249ed401403d28f6970"
        )

    def test_full_certificates_embed_bases(self, ledger8):
        payload = ledger8.to_json(full_certificates=True)
        entry = next(e for e in payload["entries"] if e["K"] == 1 and e["N"] == 2)
        cert = entry["certificates"][0]
        assert len(cert["basis"]) == 2
        assert len(cert["state"]) == 2
        assert len(cert["overlaps"]) == 2
        entry = next(e for e in payload["entries"] if e["K"] == 6 and e["N"] == 7)
        assert entry["exact_certificate"] == {"primes": [2, 3], "passed": True}
        assert [c["theta"] for c in entry["certificates"]] == [
            t % (2 * math.pi) for t in ledger8.thetas[ledger8.offsets[at(ledger8, 6, 7)]:][:5]]
        assert set(ledger8.to_json()["entries"][1]) == {"K", "N", "value"}

    def test_entries_in_farey_order(self, ledger10):
        values = [
            Fraction(*map(int, e["value"]["fraction"].split("/")))
            for e in ledger10.to_json()["entries"]
        ]
        assert values == sorted(values)


class TestReadSpecs:
    @pytest.mark.parametrize("make", [lambda: build_ledger(10),
                                      lambda: build_ledger(7, [0.5], True, 3)],
                             ids=["standard-n10", "rotated-n7-seed3"])
    def test_reads_the_specs_of_the_header(self, make):
        ledger = make()
        thetas, specs = read_specs(ledger.to_json())
        assert thetas == ledger.theta_base
        assert_same_specs(specs, ledger)

    def test_reads_no_certificate(self, ledger10, monkeypatch):
        # no certificate is derived, and none of the stored ones is read
        def refuse(*args):
            raise AssertionError("a certificate was derived")

        monkeypatch.setattr(derivation, "certify_specs", refuse)
        payload = ledger10.to_json()
        for entry in payload["entries"]:
            entry.update(exact_certificate={"primes": [], "passed": False}, certificates=[],
                         proof_trace=[])
        thetas, specs = read_specs(payload)
        assert thetas == ledger10.theta_base
        assert_same_specs(specs, ledger10)


class TestKernel:
    SPECS = [
        (1, 2, (0.0,), -1),
        (1, 3, (0.5, 1.5, 7.0), -1),
        (2, 3, (), -1),
        (2, 5, (-1.0, 3.0), -1),
        (1, 1, (0.2, 0.4), -1),
        (2, 7, (0.3,), 11),
        (3, 7, (0.3, 4.0, 5.0), 11),
        (1, 2, (1.0, 2.0), -1),
    ]

    def test_batch_matches_one_entry_at_a_time(self):
        # ragged theta lists, shared K, mixed kinds: each row of the per-K
        # pass must give the bits of that entry derived alone
        batch = list(certify_specs(make_specs(self.SPECS)).entry_json(range(len(self.SPECS)), True))
        alone = [next(certify_specs(make_specs([spec])).entry_json([0], True))
                 for spec in self.SPECS]
        assert [c["certificates"] for c in batch] == [c["certificates"] for c in alone]
        assert batch == alone
        assert [(c["K"], c["N"], [cert["theta"] for cert in c["certificates"]]) for c in batch] == [
            (k, n, [t % (2 * math.pi) for t in thetas]) for k, n, thetas, _ in self.SPECS
        ]


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCertificateProbes:
    def test_base_rebuilt_once_per_n_kind_seed(self, monkeypatch):
        calls = _counting(monkeypatch, construction, "_rebuild_base")
        ledger = build_ledger(6, rotate_bases=True, seed=2)
        probes = list(construction.certificate_probes(ledger, range(len(ledger))))
        assert [i for i, _, _ in probes] == list(range(1, len(ledger)))  # P(0) has none
        assert calls == list(dict.fromkeys((n, seed) for _, n, _, seed in spec_rows(ledger)[1:]))
        assert len(calls) == 6

    def test_full_certificates_build_each_base_once(self, monkeypatch):
        # the entries stream in Farey order, so N changes from one to the next
        calls = _counting(monkeypatch, construction, "_rebuild_base")
        ledger = build_ledger(16, rotate_bases=True, seed=2)
        assert sum(1 for _ in ledger.json_entries(full_certificates=True)) == len(ledger)
        assert sorted(n for n, _ in calls) == list(range(1, 17))

    def test_kernel_builds_each_dft_block_once(self, monkeypatch):
        # one block per K, and no partial-DFT basis, Haar-rotated or not
        calls = _counting(monkeypatch, derivation, "dft_block")
        calls_inside = _counting(monkeypatch, construction, "dft_block")
        assert verify_ledger(build_ledger(12, rotate_bases=True, seed=2)) == []
        assert calls_inside == []
        assert sorted(calls) == [(k,) for k in range(1, 12)]


def probes(ledger):
    """The theta base and specs that ``continuity_extension_check`` probes."""
    return ledger.theta_base, ledger


class TestContinuityExtension:
    def test_born_both_tiny(self, ledger10):
        report = continuity_extension_check(born_candidate(), *probes(ledger10), 64)
        assert report["max_rational_residual"] <= 1e-12
        assert report["max_grid_deviation_from_born"] <= 1e-12

    def test_abs_candidate_rational_residual(self, ledger10):
        from bornlab import CandidateDistribution

        report = continuity_extension_check(
            CandidateDistribution("r", lambda z: abs(z)), *probes(ledger10), 64
        )
        assert report["max_rational_residual"] >= abs(math.sqrt(0.5) - 0.5) - 1e-12

    def test_discontinuous_fixture_needs_continuity(self, ledger10):
        fixture = make_ledger_locked_candidate(10)
        report = continuity_extension_check(fixture, *probes(ledger10), 128)
        assert report["max_rational_residual"] <= 1e-12
        assert report["max_grid_deviation_from_born"] >= 0.5

    @pytest.mark.parametrize("at", [4, 0, 2], ids=["extra", "first", "unreduced"])
    def test_worst_rational_is_the_worst_row_as_sampled(self, at):
        # a bump in r and phi on one theta row of 7/9: every other row of 7/9
        # has the same modulus, so only the phase tells them apart; its theta
        # is reported as stored (7.5, not 7.5 - 2 pi), its entry also when
        # the row is the entry's first
        ledger = build_ledger(12, (0.0, 1.0, 7.5, -2.0), seed=4)
        i = int(np.flatnonzero((ledger.ks == 7) & (ledger.ns == 9))[0])
        theta = ledger.thetas[ledger.offsets[i] + at].item()  # row 4: the seeded extra theta
        modulus, phase = math.sqrt(7 / 9), math.atan2(math.sin(theta), math.cos(theta))
        p = candidate_from_expression(
            f"r^2 + 0.5*exp(0-1000*((r-{modulus!r})^2 + (phi-{phase!r})^2))")
        worst = continuity_extension_check(p, *probes(ledger), 16)["worst_rational"]
        assert (worst["K"], worst["N"], worst["theta"]) == reference.worst_rational(p, ledger)
        assert (worst["K"], worst["N"], worst["theta"]) == (7, 9, theta)

    def test_grid_size_validated(self, ledger10):
        with pytest.raises(ParameterError):
            continuity_extension_check(born_candidate(), *probes(ledger10), 1)


def test_proof_traces_present(ledger8):
    c = lookup(ledger8, Fraction(3, 7), full_certificates=True)
    assert any("3/7" in step for step in c["proof_trace"])
    assert len(c["proof_trace"]) >= 3
