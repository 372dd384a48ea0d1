"""The constraint-ledger engine.

Derives, with exact integer arithmetic, the full family of constraints

    P(0) = 0,   P(e^{i theta}/sqrt(N)) = 1/N,   P(e^{i theta} sqrt(K/N)) = K/N

for all reduced fractions K/N with N <= n_max.  Each is certified by a
concrete symmetric state and partial-DFT basis whose overlaps realize
the modulus: exactly, by an identity of the K-th roots of unity that
covers every theta, and as a float cross-check at sampled thetas.
Asserted values are exact integer fractions.  A ledger is its specs
(``construction.Specs``) in (N, K) order with its certificates in columns
beside them, written one entry at a time in Farey order as K, N and the
value, under one digest of the probes that its header derives; its specs
are the probes of the falsifier and the continuity probe.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from .axioms import CandidateDistribution, _worst_index, evaluate
from .construction import (
    TWO_PI,
    Specs,
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
MAX_THETAS = 16  # bound on theta_base; each entry adds one seeded theta
MAX_DIMENSION = 512  # bound on n_max, derived or stored
# Version 3 added the exact certificate and hashes no float certificate number,
# so a digest depends on no BLAS, thread count or CPU; version 4 draws each N's
# extra thetas from one stream (``ledger_specs``); version 5 stores K, N and
# the value of each entry under one digest of its probes (``probe_digest``).
# Re-derive older ledgers.
FORMAT_VERSION = 5
UNIT_ROUNDOFF = 2.0**-53
DIGEST_ENTRIES = 4096  # entries that probe_digest hashes a pass


def probe_digest(specs: Specs) -> str:
    """SHA-256 of the probe stream of the specs, in order: for each entry its
    K, N, base seed (-1 for the standard basis) and theta count, then the
    float64 bits of its thetas, each word 8 bytes little-endian.  No float
    certificate number enters it, so it is the same on every BLAS, thread
    count and CPU.  It hashes ``DIGEST_ENTRIES`` entries a pass: the words of
    every entry at once, and their masks, took 13 MB at n_max 512, and once
    freed they raised glibc's mmap threshold, so ``compare``'s later
    continuity probe peaked 1.6 MB higher than format 4's."""
    digest = hashlib.sha256()
    for lo in range(0, len(specs), DIGEST_ENTRIES):
        ks, ns, seeds = (c[lo:lo + DIGEST_ENTRIES] for c in (specs.ks, specs.ns, specs.seeds))
        at = specs.offsets[lo:lo + len(ks) + 1]
        words = np.empty(4 * len(ks) + at[-1] - at[0], "<i8")
        head = np.zeros(len(words), bool)
        head[(4 * np.arange(len(ks)) + at[:-1] - at[0])[:, None] + np.arange(4)] = True
        words[head] = np.stack([ks, ns, seeds, np.diff(at)], 1).ravel()
        words[~head] = np.ascontiguousarray(specs.thetas[at[0]:at[-1]], np.float64).view(np.int64)
        digest.update(words)
    return digest.hexdigest()


def rotation_rounding(k, n):
    """What forming a Haar entry's construction in floats can add to the
    Gram defect and overlap errors of its K's standard construction; K and
    N may be integer arrays.

    With g = sqrt(2) gamma_{N+2}, the bound on a complex inner product of
    length N (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.6): the rows of F_K U err by g sqrt(K) in norm, the
    symmetric state's sum U 1 / sqrt(N) by g sqrt(N), and the Gram and
    overlap products add g each, as do F_K's own Gram and row sums.  That
    is at most g (2 sqrt(K) + sqrt(N) + 2); every vector involved has norm
    within 1e-9 of 1, and the factor 1.01 absorbs those norms.
    """
    t = (n + 2) * UNIT_ROUNDOFF
    return 1.01 * math.sqrt(2.0) * t / (1.0 - t) * (2.0 * np.sqrt(k) + np.sqrt(n) + 2.0)


@dataclass(frozen=True, eq=False)
class _Columns(Specs):
    """Certified specs, in order.  Entry i asserts P = values[i, 0] /
    values[i, 1]; its exact certificate passed if exact[i], and its float
    cross-check has the Gram defect defects[i] and the overlap error
    errors[j] at each of its theta rows j."""

    values: np.ndarray
    exact: np.ndarray
    defects: np.ndarray
    errors: np.ndarray

    def verdicts(self) -> np.ndarray:
        """Whether the float certificate at each theta sample passed."""
        ok = self.defects <= DEFECT_TOLERANCE
        return ok[self.owners()] & (self.errors <= OVERLAP_TOLERANCE)

    def entry_json(self, order, full_certificates: bool = False) -> Iterator[dict]:
        """Each entry in ``order`` as a ledger stores it, one at a time: K, N
        and its value (``_stored_json``).  With full_certificates it also
        carries its proof trace and certificates: the exact one (primes,
        verdict), and the float one at each theta (``_certificates``).
        ``order`` is read two or three times."""
        entries = _stored_json(self.ks, self.ns, self.values, order)
        return self._full_certificates(order, entries) if full_certificates else entries

    def _full_certificates(self, order, entries: Iterator[dict]) -> Iterator[dict]:
        exact, offsets = self.exact.tolist(), self.offsets.tolist()
        verdicts = self.verdicts().tolist()
        # one pass for every entry's construction, so each base is built once
        probes = certificate_probes(self, order)
        for i, entry in zip(order, entries):
            k, n = entry["K"], entry["N"]
            entry.update(proof_trace=list(_trace(k, n)),
                         exact_certificate={"primes": list(_primes(k, n)), "passed": exact[i]},
                         certificates=self._certificates(
                             i, verdicts[offsets[i]:offsets[i + 1]], probes))
            yield entry

    def _certificates(self, i: int, verdicts: list[bool], probes) -> list[dict]:
        """Entry i's float certificate at each theta, theta reduced mod 2 pi,
        with the basis, state and overlaps it was computed from, the next of
        ``probes`` (``certificate_probes``); P(0)'s have none, and take none."""
        k, n = self.ks[i].item(), self.ns[i].item()
        span = slice(self.offsets[i], self.offsets[i + 1])
        defect, thetas = self.defects[i].item(), self.thetas[span].tolist()
        certs = [{"kind": _kind(k, n), "theta": t % TWO_PI, "defect": defect,
                  "overlap_error": e, "passed": ok}
                 for t, e, ok in zip(thetas, self.errors[span].tolist(), verdicts)]
        if k:
            _, basis, states = next(probes)
            rows = basis.to_json()  # one basis for every theta
            for cert, state in zip(certs, states):
                cert.update(basis=rows, state=state.to_json(),
                            overlaps=vector_to_pairs(basis.matrix.conj() @ state.amplitudes))
        return certs


def _primes(k: int, n: int) -> tuple[int, ...]:
    """The primes of an entry's exact certificate: for K < N, Phi_K divides
    Phi_p(x^(K/p)) for each prime p | K, the identity of the K-th roots of
    unity behind every Gram entry and overlap of the partial-DFT basis.  For
    K = N the state is a base vector, of overlap 1 with itself: none."""
    return prime_factors(k) if 0 < k < n else ()


def certify_specs(specs: Specs) -> _Columns:
    """The specs certified in one array pass per K: exactly, for every
    theta, and as a float cross-check at each theta.  K = 0 is P(0), by its
    orthogonal pair.

    In the standard basis the partial-DFT basis is exactly blockdiag(F_K,
    I), F_K = dft_block(K): its Gram defect is F_K's, and its overlaps with
    the symmetric state are c conj(F_K) 1_K, then exactly c = e^{i theta}
    /sqrt(N) as the contract asks.  A Haar-rotated base U moves every Gram
    entry and overlap of that construction by unitary invariance, by at
    most N max|U^H U - I| each.  So a Haar entry takes the standard numbers
    of its (K, N, theta), plus that bound from one Gram check of U per (N,
    seed), plus ``rotation_rounding`` for forming the construction in
    floats.  No N x N partial-DFT basis or symmetric state is built.

    Each theta row is one row of its K's pass: the same arithmetic, and
    bits, as one entry at a time.  A K = N entry's state is its base's
    first vector, so its standard numbers are 0."""
    ks, ns, seeds, thetas = specs.ks, specs.ns, specs.seeds, specs.thetas
    bad = np.flatnonzero(((ks < 1) | (ks > ns)) & ((ks != 0) | (ns != 1)))  # P(0) is (0, 1)
    if bad.size:
        raise ParameterError(f"require 1 <= K <= N, got K={ks[bad[0]]}, N={ns[bad[0]]}")
    owners = specs.owners()
    row_ks, errors = ks[owners], np.zeros(len(thetas))
    gram, vanish = np.zeros(ks.max(initial=0) + 1), np.zeros(ks.max(initial=0) + 1, bool)
    for k in (np.flatnonzero(np.bincount(ks)[1:]) + 1).tolist():  # each K > 0, ascending
        block, rows = dft_block(k), np.flatnonzero(row_ks == k)
        gram[k], row_sums = orthonormality_defect(block), block.conj().sum(axis=1)
        vanish[k] = roots_of_unity_vanish(k)  # once per K, read where K < N
        n_rows = ns[owners[rows]]
        phase = np.exp(1j * np.remainder(thetas[rows], TWO_PI))
        overlaps = np.outer(phase / np.sqrt(n_rows), row_sums)
        overlaps[:, 0] -= phase * np.sqrt(k / n_rows)
        errors[rows] = np.where(n_rows == k, 0.0, np.max(np.abs(overlaps), axis=1))
    defects = np.where(ks < ns, gram[ks], 0.0)
    exact = (ks == ns) | vanish[ks]
    base = standard_basis(2)
    overlap = complex(np.vdot(base.matrix[0], base.matrix[1]))  # exactly 0
    exact[ks == 0], defects[ks == 0] = overlap == 0, orthonormality_defect(base)
    errors[row_ks == 0] = abs(overlap)
    extra, haar = np.zeros(len(ks)), seeds >= 0
    for n, sub in dict.fromkeys(zip(ns[haar].tolist(), seeds[haar].tolist())):
        at = haar & (ns == n) & (seeds == sub)
        extra[at] = n * haar_unitary(n, sub).defect + rotation_rounding(ks[at], n)
    values = np.stack([ks, ns], axis=1) // np.gcd(ks, ns)[:, None]
    return _Columns(ks, ns, seeds, thetas, specs.offsets, values, exact, defects + extra,
                    errors + extra[owners])


def _kind(k: int, n: int) -> str:
    """The construction behind the float certificates of K/N."""
    return "orthogonal_pair" if k == 0 else "single_vector" if k == n else "partial_dft"


def _trace(k: int, n: int) -> tuple[str, ...]:
    if k == 0:
        return ("orthogonal states embed in a common orthonormal basis",
                "consistency on that basis forces P(0) = 0")
    if k == n:
        return ("normalization over a basis containing the state itself has a single term",
                f"hence P(e^(i*theta)) = 1 (K = N = {n})")
    dft = f"partial-DFT basis (K={k}): 1 = P(e^(i*theta)*sqrt({k}/{n})) + {n - k}/{n}"
    return ("unitary invariance: P depends on the overlap only",
            "orthogonality consistency: P(0) = 0",
            f"symmetric state over {n} basis vectors: P(e^(i*theta)/sqrt({n})) = 1/{n}",
            *([dft] if k > 1 else []), f"hence P(e^(i*theta)*sqrt({k}/{n})) = {k}/{n}")


def _stored_json(ks: np.ndarray, ns: np.ndarray, values: np.ndarray, order) -> Iterator[dict]:
    """The stored form of each entry in ``order``, one at a time: its K, N
    and its value values[i], a (numerator, denominator) pair."""
    ks, ns, (nums, dens) = ks.tolist(), ns.tolist(), values.T.tolist()  # flat lists
    for i in order:
        num, den = nums[i], dens[i]
        yield {"K": ks[i], "N": ns[i], "value": {"fraction": "%d/%d" % (num, den),
                                                 "decimal": repr(num / den)}}


@dataclass(frozen=True, eq=False)
class ConstraintLedger(_Columns):
    """All derived constraints for reduced fractions K/N, N <= n_max, in (N, K)
    order, P(0)'s first, in columns under the header they are derived from."""

    n_max: int
    seed: int
    rotate_bases: bool
    theta_base: tuple[float, ...]

    @property
    def entries(self) -> tuple[dict, ...]:
        """The stored entry of each constraint, in (N, K) order."""
        return tuple(self.entry_json(range(len(self))))

    def json_entries(self, full_certificates: bool = False) -> Iterator[dict]:
        """The serialized entries in Farey order, one at a time (``entry_json``)."""
        return self.entry_json(_farey_order(self.ks / self.ns), full_certificates)

    def to_json(self, full_certificates: bool = False, entries=None) -> dict:
        """The serialized ledger, its entries those of ``json_entries``, or
        ``entries`` in their place if given."""
        if entries is None:
            entries = list(self.json_entries(full_certificates))
        return {"format_version": FORMAT_VERSION, "n_max": self.n_max, "seed": self.seed,
                "rotate_bases": self.rotate_bases, "theta_base": list(self.theta_base),
                "digest": probe_digest(self), "entries": entries}

    @classmethod
    def from_json(cls, payload) -> "ConstraintLedger":
        """Derive the ledger that the header describes, every certificate
        included, once its digest and stored entries are checked (``_read``);
        raise CertificateError on any fault."""
        n_max, seed, rotate_bases, thetas, specs = _read(payload)
        # a reader's entries are decoded from the file's text, which goes with
        # the payload if the caller keeps no name for it, before the
        # certificates are derived (held, certify at 512 peaked 6.7 MB higher)
        del payload
        return cls(**vars(certify_specs(specs)), n_max=n_max, seed=seed,
                   rotate_bases=rotate_bases, theta_base=thetas)


def read_specs(payload) -> tuple[tuple[float, ...], Specs]:
    """The theta base and the specs of a serialized ledger, from its header
    (``_header``, ``ledger_specs``) in (N, K) order, P(0)'s first; raise
    CertificateError on any fault.

    The digest and each stored entry are checked as ``from_json`` checks
    them (``_read``), but no certificate is derived.
    """
    return _read(payload)[3:]


def _read(payload) -> tuple[int, int, bool, tuple[float, ...], Specs]:
    """(n_max, seed, rotate_bases, theta base, specs) of a serialized ledger,
    from its header (``_header``, ``ledger_specs``), once its digest and
    stored entries are checked against the specs (``_check_stored``)."""
    n_max, seed, rotate_bases, theta_base, digest, stored = _header(payload)
    thetas, specs = ledger_specs(n_max, theta_base, rotate_bases, seed)
    _check_stored(stored, digest, specs)
    return n_max, seed, rotate_bases, thetas, specs


def _check_stored(stored: Sequence, digest: str, specs: Specs) -> None:
    """Check a ledger's stored digest against the ``probe_digest`` of the
    specs its header derives, then its stored entries, in Farey order,
    against the ``_stored_json`` of the specs, each K/N reduced, in (N, K)
    order: every key, of the same JSON type.  Raise CertificateError on a
    digest mismatch, or at the first entry mismatch in (N, K) order.  The
    stored entries are read once each, in turn, so a reader that decodes
    each then holds one at a time."""
    if digest != probe_digest(specs):
        raise CertificateError("digest mismatch: the header derives other probes than "
                               "the ledger was written with")
    order = _farey_order(specs.ks / specs.ns)
    first = len(order), ""  # the (N, K) index and fault of the first mismatch
    values = np.stack([specs.ks, specs.ns], axis=1)
    for at, entry, raw in zip(order, _stored_json(specs.ks, specs.ns, values, order), stored):
        for key, want in entry.items():
            value = raw.get(key) if isinstance(raw, dict) else None
            # of the same type too: 1 == True, but 1 is no JSON boolean
            if value != want or type(value) is not type(want):
                if at < first[0]:
                    first = at, f"{key} mismatch at K={entry['K']}, N={entry['N']}"
                break
    if first[1]:
        raise CertificateError(first[1])


def _farey_order(keys) -> list[int]:
    """The indices of the float K/N ``keys`` in Farey order: exact while
    N < 2^26 (MAX_DIMENSION ensures it), as distinct K/N differ by >= 1/N^2,
    each rounded <= 2^-53."""
    return np.argsort(np.asarray(keys, dtype=np.float64), kind="stable").tolist()


def _header(payload) -> tuple[int, int, bool, tuple[float, ...], str, Sequence]:
    """(n_max, seed, rotate_bases, theta_base, digest, entries) of a serialized
    ledger; raise CertificateError on any fault, before any entry is read.

    Checks the format version and field types, bounds n_max by
    MAX_DIMENSION, seed below by 0 and theta_base by MAX_THETAS values, and
    checks that the entries number 1 + the reduced fractions K/N with
    N <= n_max.
    """
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise CertificateError(
            f"ledger format_version is {version!r:.20}, not {FORMAT_VERSION}; re-run derive")
    n_max = _field(payload, "n_max", int, "ledger")
    seed = _field(payload, "seed", int, "ledger")
    rotate_bases = _field(payload, "rotate_bases", bool, "ledger")
    theta_base = _field(payload, "theta_base", list, "ledger")
    if not all(type(t) in (int, float) and _finite(t) for t in theta_base):
        raise CertificateError("ledger: theta_base must hold finite numbers only")
    theta_base = tuple(map(float, theta_base))
    digest = _field(payload, "digest", str, "ledger")
    entries = payload.get("entries")  # a list, or cli's entries, each decoded as it is read
    if isinstance(entries, str) or not isinstance(entries, Sequence):
        raise CertificateError("ledger: entries is missing or not of type list")
    if not 1 <= n_max <= MAX_DIMENSION:
        raise CertificateError(f"ledger n_max must lie in 1..{MAX_DIMENSION}")
    if seed < 0:
        raise CertificateError("ledger seed must be >= 0")
    if len(theta_base) > MAX_THETAS:
        raise CertificateError(f"ledger theta_base holds more than {MAX_THETAS} values")
    count = 1 + _reduced_fractions(n_max)
    if len(entries) != count:
        raise CertificateError(
            f"ledger holds {len(entries)} entries, not the {count} of n_max={n_max}")
    return n_max, seed, rotate_bases, theta_base, digest, entries


def _reduced_fractions(n_max: int) -> int:
    """The number of reduced fractions K/N with 1 <= K <= N <= n_max: Euler's
    totient summed over 1..n_max, from a sieve.  phi starts as N, and each
    prime p takes phi(N)/p off every multiple N of it."""
    phi = np.arange(n_max + 1)
    for p in range(2, n_max + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
    return int(phi[1:].sum())


def _derive(n_max: int, theta_samples=None, rotate_bases=False, seed=0) -> ConstraintLedger:
    """The ledger of ``ledger_specs``, all derived in one kernel pass."""
    thetas, specs = ledger_specs(n_max, theta_samples, rotate_bases, seed)
    return ConstraintLedger(**vars(certify_specs(specs)), n_max=n_max, seed=seed,
                            rotate_bases=rotate_bases, theta_base=thetas)


def _field(raw, key: str, kind: type, where: str):
    """raw[key], which must exist and be of the given JSON type."""
    value = raw.get(key) if isinstance(raw, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CertificateError(f"{where}: {key} is missing or not of type {kind.__name__}")
    return value


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
) -> tuple[tuple[float, ...], Specs]:
    """The theta base and the specs of a ledger, before any certificate: P(0)
    first, as (0, 1) in the standard basis at theta 0, then every reduced
    K/N with N <= n_max, in (N, K) order.

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
    ns = range(1, n_max + 1) if dims is None else sorted(n for n in set(dims) if 1 <= n <= n_max)
    ks, seeds, extras = [np.zeros(1, np.int64)], [-1], [np.zeros(0)]
    for n in ns:
        key = np.random.SeedSequence([seed, n])
        ks.append(np.flatnonzero(np.gcd(np.arange(1, n + 1), n) == 1) + 1)
        seeds.append(int(key.generate_state(1)[0]) if rotate_bases else -1)
        extras.append(np.random.default_rng(key.spawn(1)[0]).uniform(0.0, TWO_PI, len(ks[-1])))
    counts = [len(k) for k in ks]
    width, rows = len(thetas) + 1, sum(counts) - 1
    samples = np.zeros(1 + rows * width)  # P(0)'s one theta, then width per entry
    grid = samples[1:].reshape(rows, width)
    grid[:, :-1], grid[:, -1] = thetas, np.concatenate(extras)
    return thetas, Specs(np.concatenate(ks, dtype=np.int64),
                         np.repeat(np.array([1, *ns], np.int64), counts),
                         np.repeat(np.array(seeds, np.int64), counts), samples,
                         np.r_[0, 1 + width * np.arange(rows + 1)])


def build_ledger(
    n_max: int,
    theta_samples: Optional[Iterable[float]] = None,
    rotate_bases: bool = False,
    seed: int = 0,
) -> ConstraintLedger:
    """Derive every constraint P(e^{i theta} sqrt(K/N)) = K/N, N <= n_max,
    certified at the theta samples of :func:`ledger_specs`.  Raises
    CertificateError if any certificate, exact or float, fails, naming the
    first in (N, K) order."""
    ledger = _derive(n_max, theta_samples, rotate_bases, seed)
    failures = verify_ledger(ledger)
    if failures:
        k, n, theta = failures[0]
        if not ledger.exact[(ledger.ks == k) & (ledger.ns == n)].all():
            raise CertificateError(f"exact certificate failed at K={k}, N={n}")
        raise CertificateError(f"certificate failed at K={k}, N={n}, theta={theta!r}")
    return ledger


def compare_to_born(ledger: ConstraintLedger) -> Fraction:
    """max |asserted - modulus^2| in exact arithmetic; 0 for a sound ledger."""
    num, den = ledger.values.T
    differ = np.flatnonzero(num * ledger.ns != den * ledger.ks).tolist()
    return max((abs(Fraction(num[i].item(), den[i].item())
                     - Fraction(ledger.ks[i].item(), ledger.ns[i].item())) for i in differ),
               default=Fraction(0))


def verify_ledger(ledger: ConstraintLedger) -> list[tuple[int, int, float]]:
    """Re-check every certificate; returns the failing (K, N, theta) triples:
    each theta of an entry whose exact certificate failed, as sampled, and
    each failed float verdict (a NaN number fails), theta reduced mod 2 pi."""
    owners = ledger.owners()
    exact = ledger.exact[owners]
    bad = np.flatnonzero(~(exact & ledger.verdicts()))
    thetas = np.where(exact[bad], np.remainder(ledger.thetas[bad], TWO_PI), ledger.thetas[bad])
    at = owners[bad]
    return list(zip(ledger.ks[at].tolist(), ledger.ns[at].tolist(), thetas.tolist()))


def continuity_extension_check(
    p: CandidateDistribution,
    theta_base: tuple[float, ...],
    specs: Specs,
    grid_size: int,
) -> dict:
    """Quantitative form of the density argument.

    max_rational_residual probes p at every entry's first overlap,
    e^{i theta} sqrt(K/N) at each of its theta rows (``entry_overlaps``),
    against K/N, the value the ledger asserts there, and names the worst
    row's K, N and theta as sampled; max_grid_deviation_from_born probes p
    against |z|^2 on a uniform modulus grid on [0, 1] times the base theta
    samples.  A continuous candidate with a small rational residual on a
    dense ledger must have a small grid deviation; a discontinuous one can
    pass the first probe and fail the second.
    """
    if grid_size < 2:
        raise ParameterError(f"grid_size must be >= 2, got {grid_size}")
    counts = np.diff(specs.offsets)  # the rows of an entry share its K and N
    values = evaluate(p, entry_overlaps(np.repeat(specs.ks, counts), np.repeat(specs.ns, counts),
                                        specs.thetas)[0])
    rational = np.abs(values - np.repeat(specs.ks / specs.ns, counts))
    r = _worst_index(rational)
    i = None if r is None else np.searchsorted(specs.offsets, r, side="right") - 1  # r's entry
    moduli = np.linspace(0.0, 1.0, grid_size)
    thetas = np.array(theta_base, dtype=np.float64)
    grid_zs = np.outer(moduli, [complex(math.cos(t), math.sin(t)) for t in thetas])
    grid = np.abs(evaluate(p, grid_zs) - np.hypot(grid_zs.real, grid_zs.imag) ** 2)
    g = _worst_index(grid)
    return {
        "candidate": p.name,
        "max_rational_residual": 0.0 if r is None else float(rational[r]),
        "worst_rational": None if r is None else {
            "K": specs.ks[i].item(), "N": specs.ns[i].item(), "theta": specs.thetas[r].item(),
        },
        "max_grid_deviation_from_born": 0.0 if g is None else float(grid.flat[g]),
        "worst_grid": None if g is None else {
            "modulus": float(moduli[g // len(thetas)]),
            "theta": float(thetas[g % len(thetas)]),
        },
        "grid_size": grid_size,
    }
