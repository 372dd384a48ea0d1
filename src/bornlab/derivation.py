"""The constraint-ledger engine.

Derives, with exact integer arithmetic, the full family of constraints

    P(0) = 0,   P(e^{i theta}/sqrt(N)) = 1/N,   P(e^{i theta} sqrt(K/N)) = K/N

for all reduced fractions K/N with N <= n_max.  Each is certified by a
concrete symmetric state and partial-DFT basis whose overlaps realize
the modulus: exactly, by an identity of the K-th roots of unity that
covers every theta, and as a float cross-check at sampled thetas.
Asserted values are exact :class:`fractions.Fraction` objects.  The
ledger is kept in (N, K) order, written in Farey order, and its specs
are the deterministic probes of the falsifier and the continuity probe.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .axioms import CandidateDistribution, _worst_index, evaluate
from .construction import (
    TWO_PI,
    Spec,
    certificate_probes,
    dft_block,
    entry_overlaps,
    prime_factors,
    roots_of_unity_vanish,
)
from .errors import CertificateError, ParameterError
from .hilbert import haar_unitary, orthonormality_defect, standard_basis, vector_to_pairs

DEFECT_TOLERANCE = 1e-10
OVERLAP_TOLERANCE = 1e-11
DEFAULT_THETAS = (0.0, 1.0, math.pi, 5.5)
MAX_THETAS = 16  # bound on theta_samples; each entry adds one seeded theta
MAX_DIMENSION = 512  # bound on n_max, derived or stored
# Version 3 added the exact certificate and hashes no float certificate number,
# so a digest depends on no BLAS, thread count or CPU; version 4 draws each N's
# extra thetas from one stream (``ledger_specs``).  Re-derive older ledgers.
FORMAT_VERSION = 4
UNIT_ROUNDOFF = 2.0**-53


class ExactCertificate(NamedTuple):
    """An entry's construction checked in exact arithmetic, for every theta.

    For K < N: Phi_K divides Phi_p(x^(K/p)) for each prime p | K in
    ``primes``, which is the identity of the K-th roots of unity behind
    every Gram entry and overlap of the partial-DFT basis, and the first
    overlap's squared modulus (K/sqrt(K N))^2 is K/N.  For K = N the state
    is a base vector, of overlap 1 with itself, and ``primes`` is empty.
    """

    primes: tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class RationalConstraint:
    """An exact statement P(e^{i theta} sqrt(K/N)) = K/N, for all theta.

    K and N are the generating integers; asserted_value is kept as an
    exact fraction (possibly reduced).  The exact certificate records the
    check of the construction in integer arithmetic, valid for every
    theta; defect and overlap_errors record its float cross-check at each
    sampled theta.  All else an entry reports follows from these and (K, N).
    """

    K: int
    N: int
    modulus_squared: Fraction
    asserted_value: Fraction
    theta_samples: tuple[float, ...]
    defect: float
    overlap_errors: tuple[float, ...]
    base_kind: str = "standard"
    base_seed: Optional[int] = None
    exact_certificate: Optional[ExactCertificate] = None

    @property
    def exact(self) -> bool:
        """True when the exact certificate exists and passed."""
        return self.exact_certificate is not None and self.exact_certificate.passed

    @property
    def verified(self) -> bool:
        """True when every certificate, exact and float, exists and passed."""
        return self.exact and bool(self.overlap_errors) and all(self._verdicts())

    @property
    def spec(self) -> Spec:
        """(K, N, theta_samples, base_kind, base_seed): what its construction
        is rebuilt from."""
        return (self.K, self.N, self.theta_samples, self.base_kind, self.base_seed)

    @property
    def certificates(self) -> tuple[dict, ...]:
        """The float certificate at each theta sample, theta reduced mod 2 pi."""
        kind, verdicts = _kind(self.K, self.N), self._verdicts()
        return tuple({"kind": kind, "theta": t % TWO_PI, "defect": self.defect,
                      "overlap_error": e, "passed": ok}
                     for t, e, ok in zip(self.theta_samples, self.overlap_errors, verdicts))

    @property
    def proof_trace(self) -> tuple[str, ...]:
        return _trace(self.K, self.N)

    def _verdicts(self) -> list[bool]:
        """Whether the float certificate at each theta sample passed."""
        ok = self.defect <= DEFECT_TOLERANCE
        return [ok and error <= OVERLAP_TOLERANCE for error in self.overlap_errors]

    def to_json(self) -> dict:
        value = self.asserted_value
        return dict(
            _spec_json(self.spec, (value.numerator, value.denominator)),
            certificate_digest=self.certificate_digest(),
            verified=self.verified,
            proof_trace=list(self.proof_trace),
        )

    def certificate_digest(self) -> str:
        """SHA-256 of a canonical byte string: (K, N, base_kind, base_seed),
        the exact certificate, the float64 bits of the theta samples and the
        kind and pass/fail verdict of each float certificate.  No float
        certificate number enters it, so it is the same on every BLAS,
        thread count and CPU."""
        primes, passed = self.exact_certificate or ((), False)
        head = "%d %d %s %s %s %d %d|" % (
            self.K, self.N, self.base_kind, self.base_seed,
            ",".join(map(str, primes)), passed, len(self.theta_samples),
        )
        verdicts = "|" + " ".join(f"{_kind(self.K, self.N)}:{ok:d}" for ok in self._verdicts())
        thetas = struct.pack(f"<{len(self.theta_samples)}d", *self.theta_samples)
        return hashlib.sha256(head.encode() + thetas + verdicts.encode()).hexdigest()


def rotation_rounding(k: int, n: int) -> float:
    """What forming a Haar entry's construction in floats can add to the
    Gram defect and overlap errors of its K's standard construction.

    With g = sqrt(2) gamma_{N+2}, the bound on a complex inner product of
    length N (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.6): the rows of F_K U err by g sqrt(K) in norm, the
    symmetric state's sum U 1 / sqrt(N) by g sqrt(N), and the Gram and
    overlap products add g each, as do F_K's own Gram and row sums.  That
    is at most g (2 sqrt(K) + sqrt(N) + 2); every vector involved has norm
    within 1e-9 of 1, and the factor 1.01 absorbs those norms.
    """
    t = (n + 2) * UNIT_ROUNDOFF
    return 1.01 * math.sqrt(2.0) * t / (1.0 - t) * (2.0 * math.sqrt(k) + math.sqrt(n) + 2.0)


class CertificateKernel:
    """Derives constraints, sharing certificate work across one ledger's entries.

    Exact: each entry carries the check of its construction in integer
    arithmetic, which covers every theta (``_exact_certificate``).

    Float cross-check, one array pass per K.  In the standard basis the
    partial-DFT basis is exactly blockdiag(F_K, I), F_K = dft_block(K): its
    Gram defect is F_K's, and its overlaps with the symmetric state are
    c conj(F_K) 1_K, then exactly c = e^{i theta}/sqrt(N) as the contract
    asks.  A Haar-rotated base U moves every Gram entry and overlap of that
    construction by unitary invariance, by at most N max|U^H U - I| each.
    So a Haar entry takes the standard numbers of its (K, N, theta), plus
    that bound from one Gram check of U per N, plus ``rotation_rounding``
    for forming the construction in floats.  No N x N partial-DFT basis or
    symmetric state is built.
    """

    def derive(self, specs: list[Spec]) -> list[RationalConstraint]:
        """P(e^{i theta} sqrt(K/N)) = K/N for each spec, certified exactly and
        at each of its thetas; one constraint per spec, in order."""
        by_k: dict[int, list[int]] = {}
        for i, (k, n, *_) in enumerate(specs):
            if n < 1 or k < 1 or k > n:
                raise ParameterError(f"require 1 <= K <= N, got K={k}, N={n}")
            by_k.setdefault(k, []).append(i)
        numbers: list = [None] * len(specs)
        unitarity: dict = {}  # (N, seed) -> max|U^H U - I| of that Haar base
        for k, indices in by_k.items():
            rows = self._certificates(k, [specs[i] for i in indices], unitarity)
            for i, row in zip(indices, rows):
                numbers[i] = row
        constraints = []
        for (k, n, thetas, kind, sub), (defect, errors) in zip(specs, numbers):
            value = Fraction(k, n)
            constraints.append(RationalConstraint(
                K=k, N=n, modulus_squared=value, asserted_value=value, theta_samples=thetas,
                defect=defect, overlap_errors=errors, base_kind=kind, base_seed=sub,
                exact_certificate=_exact_certificate(k, n),
            ))
        return constraints

    def _certificates(self, k: int, entries: list, unitarity: dict) -> list:
        """(Gram defect, overlap errors) of the entries (K, N, thetas, kind,
        seed) that share K.

        Each (entry, theta) pair is one row, so entries may hold different
        numbers of thetas; row for row this is the same arithmetic as one
        entry at a time, and so the same bits.  A K = N entry's state is its
        base's first vector, so its standard numbers are 0.
        """
        block = dft_block(k)  # one pass per K
        defect, row_sums = orthonormality_defect(block), block.conj().sum(axis=1)
        thetas = [[t % TWO_PI for t in ts] for _, _, ts, _, _ in entries]
        ns = np.repeat([n for _, n, *_ in entries], [len(ts) for ts in thetas])
        phase = np.exp(1j * np.array([t for ts in thetas for t in ts]))
        overlaps = np.outer(phase / np.sqrt(ns), row_sums)
        overlaps[:, 0] -= phase * np.sqrt(k / ns)
        errors = np.max(np.abs(overlaps), axis=1)
        errors[ns == k] = 0.0
        errors = iter(errors.tolist())
        rows = []
        for (_, n, _, kind, sub), ts in zip(entries, thetas):
            d, es = (defect if k < n else 0.0), tuple(next(errors) for _ in ts)
            if kind == "haar":
                if (n, sub) not in unitarity:
                    unitarity[n, sub] = haar_unitary(n, int(sub)).defect
                extra = n * unitarity[n, sub] + rotation_rounding(k, n)
                d, es = d + extra, tuple(e + extra for e in es)
            rows.append((d, es))
        return rows


def _exact_certificate(k: int, n: int) -> ExactCertificate:
    """The roots-of-unity identity of K, checked once per K, and the squared
    modulus; the normalization sum then gives P = 1 - (N - K)/N = K/N."""
    squared_modulus = (k * k, k * n)  # (K/sqrt(K N))^2
    normalized = (n - (n - k), n)  # 1 - (N - K)/N
    passed = (k == n or roots_of_unity_vanish(k)) and all(
        a * n == b * k for a, b in (squared_modulus, normalized)  # a/b = K/N
    )
    return ExactCertificate(prime_factors(k) if k < n else (), passed)


def _kind(k: int, n: int) -> str:
    """The construction behind the float certificates of K/N."""
    return "orthogonal_pair" if k == 0 else "single_vector" if k == n else "partial_dft"


def _trace(k: int, n: int) -> tuple[str, ...]:
    if k == 0:
        return ("orthogonal states embed in a common orthonormal basis",
                "consistency on that basis forces P(0) = 0")
    if k == n:
        return (
            "normalization over a basis containing the state itself has a single term",
            f"hence P(e^(i*theta)) = 1 (K = N = {n})",
        )
    steps = [
        "unitary invariance: P depends on the overlap only",
        "orthogonality consistency: P(0) = 0",
        f"symmetric state over {n} basis vectors: P(e^(i*theta)/sqrt({n})) = 1/{n}",
    ]
    if k > 1:
        steps.append(
            f"partial-DFT basis (K={k}): 1 = P(e^(i*theta)*sqrt({k}/{n})) + {n - k}/{n}"
        )
    steps.append(f"hence P(e^(i*theta)*sqrt({k}/{n})) = {k}/{n}")
    return tuple(steps)


def derive_p_zero() -> RationalConstraint:
    """The constraint P(0) = 0 from orthogonality consistency."""
    base = standard_basis(2)
    overlap = complex(np.vdot(base.matrix[0], base.matrix[1]))  # exactly 0
    return RationalConstraint(
        K=0, N=1, modulus_squared=Fraction(0), asserted_value=Fraction(0),
        theta_samples=(0.0,), defect=orthonormality_defect(base),  # exactly 0 too
        overlap_errors=(abs(overlap),), exact_certificate=ExactCertificate((), overlap == 0),
    )


# entry fields a ledger may leave out, with the values read in their place
_OPTIONAL_FIELDS = {"base_kind": "standard", "base_seed": None}


def _spec_json(spec: Spec, value: tuple[int, int]) -> dict:
    """The stored fields of an entry that no certificate enters: its spec's,
    and the value numerator/denominator it asserts."""
    k, n, thetas, kind, sub = spec
    return {
        "K": k,
        "N": n,
        "value": {"fraction": "%d/%d" % value, "decimal": repr(value[0] / value[1])},
        "theta_samples": list(thetas),
        "base_kind": kind,
        "base_seed": sub,
    }


@dataclass(frozen=True)
class ConstraintLedger:
    """All derived constraints for reduced fractions K/N, N <= n_max, in
    (N, K) order, P(0)'s first."""

    n_max: int
    seed: int
    rotate_bases: bool
    theta_base: tuple[float, ...]
    entries: tuple[RationalConstraint, ...]

    def specs(self) -> list[Spec]:
        """The spec of each constraint, in order: the ledger probes of
        ``falsify`` and ``continuity_extension_check``."""
        return [c.spec for c in self.entries]

    def lookup(self, fraction) -> RationalConstraint:
        """The constraint on the squared modulus ``fraction``, or KeyError."""
        wanted = Fraction(fraction)
        for c in self.entries:
            if c.modulus_squared == wanted:
                return c
        raise KeyError(fraction)

    @property
    def verified(self) -> bool:
        return all(c.verified for c in self.entries)

    def to_json(self, full_certificates: bool = False) -> dict:
        """The serialized ledger, its entries in Farey order.  An entry's
        certificates are re-derived from it and covered by its digest; with
        full_certificates each entry also carries them: its exact
        certificate, and its float certificates with the basis, state and
        overlaps each was computed from."""
        order = _farey_order([c.K / c.N for c in self.entries])
        entries = [self.entries[i].to_json() for i in order]
        if full_certificates:
            certificates = [list(c.certificates) for c in self.entries]
            for i, entry in zip(order, entries):
                primes, passed = self.entries[i].exact_certificate
                entry["exact_certificate"] = {"primes": list(primes), "passed": passed}
                entry["certificates"] = certificates[i]
            probes = certificate_probes(self.specs())  # none for P(0), the first
            for (_, basis, states), certs in zip(probes, certificates[1:]):
                for cert, state in zip(certs, states):
                    cert["basis"] = basis.to_json()
                    cert["state"] = state.to_json()
                    cert["overlaps"] = vector_to_pairs(basis.matrix.conj() @ state.amplitudes)
        return {
            "format_version": FORMAT_VERSION,
            "n_max": self.n_max,
            "seed": self.seed,
            "rotate_bases": self.rotate_bases,
            "theta_base": list(self.theta_base),
            "entries": entries,
        }

    @classmethod
    def from_json(cls, payload) -> "ConstraintLedger":
        """Derive the ledger that the header (``_header``) describes and check
        that each stored entry is the derived one, on every key of its
        ``to_json`` (``_check_stored``); raise CertificateError on any fault.
        The extra fields of ``--full-certificates`` are not compared."""
        n_max, seed, rotate_bases, theta_base, stored = _header(payload)
        ledger = _derive(n_max, theta_base, rotate_bases, seed)
        _check_stored(stored, [c.K / c.N for c in ledger.entries],
                      map(RationalConstraint.to_json, ledger.entries))
        return ledger


def read_specs(payload) -> tuple[tuple[float, ...], list[Spec]]:
    """The theta base and the specs of a serialized ledger, from its header
    (``_header``, ``ledger_specs``) in (N, K) order, P(0)'s first; raise
    CertificateError on any fault.

    Each stored entry is checked against its spec on the fields that no
    certificate enters: K, N, value, theta_samples, base_kind and
    base_seed (``_check_stored``).  No certificate is derived, so a stored
    digest, verdict or proof trace is not read; ``from_json`` checks those.
    """
    n_max, seed, rotate_bases, theta_base, stored = _header(payload)
    thetas, specs = ledger_specs(n_max, theta_base, rotate_bases, seed)
    specs.insert(0, (0, 1, (0.0,), "standard", None))  # P(0), as derive_p_zero states it
    _check_stored(stored, [k / n for k, n, *_ in specs],
                  (_spec_json(spec, spec[:2]) for spec in specs))
    return thetas, specs


def _check_stored(stored: list, keys: list[float], derived: Iterable[dict]) -> None:
    """Check the stored entries, in Farey order, against the derived JSON
    entries of float K/N ``keys``, in (N, K) order: every key, of the same
    JSON type, one entry at a time; raise CertificateError at the first
    mismatch in (N, K) order.  ``_OPTIONAL_FIELDS`` may be left out."""
    order = _farey_order(keys)
    place = sorted(range(len(order)), key=order.__getitem__)  # each entry's in the file
    for entry, farey in zip(derived, place):
        raw = stored[farey]
        for key, want in entry.items():
            value = raw.get(key, _OPTIONAL_FIELDS.get(key)) if isinstance(raw, dict) else None
            # of the same type too: 1 == True, but 1 is no JSON boolean
            if value != want or type(value) is not type(want):
                raise CertificateError(f"{key} mismatch at K={entry['K']}, N={entry['N']}")


def _farey_order(keys: list[float]) -> list[int]:
    """The indices of the float K/N ``keys`` in Farey order: exact while
    N < 2^26 (MAX_DIMENSION ensures it), as distinct K/N differ by >= 1/N^2,
    each rounded <= 2^-53."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _header(payload) -> tuple[int, int, bool, tuple[float, ...], list]:
    """(n_max, seed, rotate_bases, theta_base, entries) of a serialized
    ledger; raise CertificateError on any fault, before any entry is read.

    Checks the format version and field types, bounds n_max by
    MAX_DIMENSION, seed below by 0 and theta_base by MAX_THETAS values, and
    checks that the entries number 1 + the reduced fractions K/N with
    N <= n_max.
    """
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise CertificateError(
            f"ledger format_version is {version!r:.20}, not {FORMAT_VERSION}; re-run derive"
        )
    n_max = _field(payload, "n_max", int, "ledger")
    seed = _field(payload, "seed", int, "ledger")
    rotate_bases = _field(payload, "rotate_bases", bool, "ledger")
    theta_base = _thetas(payload, "theta_base", "ledger")
    entries = _field(payload, "entries", list, "ledger")
    if not 1 <= n_max <= MAX_DIMENSION:
        raise CertificateError(f"ledger n_max must lie in 1..{MAX_DIMENSION}")
    if seed < 0:
        raise CertificateError("ledger seed must be >= 0")
    if len(theta_base) > MAX_THETAS:
        raise CertificateError(f"ledger theta_base holds more than {MAX_THETAS} values")
    count = 1 + sum(math.gcd(k, n) == 1 for n in range(1, n_max + 1) for k in range(1, n + 1))
    if len(entries) != count:
        raise CertificateError(
            f"ledger holds {len(entries)} entries, not the {count} of n_max={n_max}"
        )
    return n_max, seed, rotate_bases, theta_base, entries


def _derive(
    n_max: int,
    theta_samples: Optional[Iterable[float]] = None,
    rotate_bases: bool = False,
    seed: int = 0,
) -> ConstraintLedger:
    """The ledger of ``ledger_specs``, every constraint derived: P(0), then
    one kernel pass over the rest in (N, K) order."""
    thetas, specs = ledger_specs(n_max, theta_samples, rotate_bases, seed)
    derived = [derive_p_zero()] + CertificateKernel().derive(specs)
    return ConstraintLedger(n_max, seed, rotate_bases, thetas, tuple(derived))


def _field(raw, key: str, kind: type, where: str):
    """raw[key], which must exist and be of the given JSON type."""
    value = raw.get(key) if isinstance(raw, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CertificateError(f"{where}: {key} is missing or not of type {kind.__name__}")
    return value


def _thetas(raw, key: str, where: str) -> tuple[float, ...]:
    values = _field(raw, key, list, where)
    if not all(type(t) in (int, float) and _finite(t) for t in values):
        raise CertificateError(f"{where}: {key} must hold finite numbers only")
    return tuple(map(float, values))


def _finite(t) -> bool:
    """t is finite as a float; an int past the float range is not."""
    try:
        return math.isfinite(t)
    except OverflowError:
        return False


def ledger_specs(
    n_max: int,
    theta_samples: Optional[Iterable[float]] = None,
    rotate_bases: bool = False,
    seed: int = 0,
    dims: Optional[Iterable[int]] = None,
) -> tuple[tuple[float, ...], list[Spec]]:
    """The theta base and the spec of every reduced K/N with N <= n_max, in
    (N, K) order: the entries of a ledger, before any certificate.

    Each entry is probed at the base theta samples plus one seeded-random
    theta; with rotate_bases, each N gets a Haar-rotated base seeded by
    SeedSequence([seed, N]).  The extra thetas of N, in K order, are one
    uniform stream from its first spawned child, not from [seed, N, 0],
    which zero padding makes the base's own key.  Both depend on (seed, N)
    alone, so ``dims``, which keeps only the N it lists, keeps every spec.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    thetas = tuple(DEFAULT_THETAS if theta_samples is None else map(float, theta_samples))
    kind = "haar" if rotate_bases else "standard"
    ns = range(1, n_max + 1) if dims is None else sorted(n for n in set(dims) if 1 <= n <= n_max)
    specs = []
    for n in ns:
        key = np.random.SeedSequence([seed, n])
        sub = int(key.generate_state(1)[0]) if rotate_bases else None
        ks = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        extras = np.random.default_rng(key.spawn(1)[0]).uniform(0.0, TWO_PI, len(ks))
        specs.extend((k, n, thetas + (extra,), kind, sub) for k, extra in zip(ks, extras.tolist()))
    return thetas, specs


def build_ledger(
    n_max: int,
    theta_samples: Optional[Iterable[float]] = None,
    rotate_bases: bool = False,
    seed: int = 0,
) -> ConstraintLedger:
    """Derive every constraint P(e^{i theta} sqrt(K/N)) = K/N, N <= n_max.

    Each reduced fraction (see :func:`ledger_specs`) gets certificates at
    its theta samples; an unreduced representation (2/4, 3/6, ...) has the
    value of its reduced fraction, by Fraction's reduction.  Raises
    CertificateError if any certificate, exact or float, fails.
    """
    ledger = _derive(n_max, theta_samples, rotate_bases, seed)
    for c in ledger.entries:
        if not c.exact:
            raise CertificateError(f"exact certificate failed at K={c.K}, N={c.N}")
        for theta, ok in zip(c.theta_samples, c._verdicts()):
            if not ok:
                raise CertificateError(
                    f"certificate failed at K={c.K}, N={c.N}, theta={theta % TWO_PI!r}")
    return ledger


def compare_to_born(ledger: ConstraintLedger) -> Fraction:
    """max |asserted - modulus^2| in exact arithmetic; 0 for a sound ledger."""
    return max((abs(c.asserted_value - c.modulus_squared) for c in ledger.entries
                if c.asserted_value != c.modulus_squared), default=Fraction(0))


def verify_ledger(ledger: ConstraintLedger) -> list[tuple[int, int, float]]:
    """Re-check every certificate; returns the failing (K, N, theta) triples.

    A constraint without certificates, or whose exact certificate failed,
    fails at each of its theta samples.
    """
    failures = []
    for c in ledger.entries:
        if not (c.exact and c.overlap_errors):
            failures.extend((c.K, c.N, theta) for theta in c.theta_samples)
            continue
        failures.extend((c.K, c.N, theta % TWO_PI)
                        for theta, ok in zip(c.theta_samples, c._verdicts()) if not ok)
    return failures


def continuity_extension_check(
    p: CandidateDistribution,
    theta_base: tuple[float, ...],
    specs: list[Spec],
    grid_size: int,
) -> dict:
    """Quantitative form of the density argument.

    max_rational_residual probes p at every spec's first overlap,
    e^{i theta} sqrt(K/N) at each of its theta samples (``entry_overlaps``),
    against K/N, the value the ledger asserts there;
    max_grid_deviation_from_born probes p against |z|^2 on a uniform
    modulus grid on [0, 1] times the base theta samples.  A continuous
    candidate with a small rational residual on a dense ledger must have
    a small grid deviation; a discontinuous one can pass the first probe
    and fail the second.
    """
    if grid_size < 2:
        raise ParameterError(f"grid_size must be >= 2, got {grid_size}")
    counts = [len(spec[2]) for spec in specs]
    owners = np.repeat(np.arange(len(specs)), counts)  # the spec of each row
    first, _ = entry_overlaps(specs)
    targets = np.repeat([k / n for k, n, *_ in specs], counts)
    rational = np.abs(evaluate(p, first) - targets)
    r = _worst_index(rational)
    worst = None if r is None else specs[owners[r]]
    moduli = np.linspace(0.0, 1.0, grid_size)
    thetas = np.array(theta_base, dtype=np.float64)
    grid_zs = np.outer(moduli, [complex(math.cos(t), math.sin(t)) for t in thetas])
    grid = np.abs(evaluate(p, grid_zs) - np.hypot(grid_zs.real, grid_zs.imag) ** 2)
    g = _worst_index(grid)
    return {
        "candidate": p.name,
        "max_rational_residual": 0.0 if r is None else float(rational[r]),
        "worst_rational": None if r is None else {
            "K": worst[0], "N": worst[1],
            "theta": [theta for spec in specs for theta in spec[2]][r],
        },
        "max_grid_deviation_from_born": 0.0 if g is None else float(grid.flat[g]),
        "worst_grid": None if g is None else {
            "modulus": float(moduli[g // len(thetas)]),
            "theta": float(thetas[g % len(thetas)]),
        },
        "grid_size": grid_size,
    }
