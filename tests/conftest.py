import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from bornlab import CandidateDistribution, build_ledger
from bornlab.construction import Specs

from reference import spec_rows

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


@pytest.fixture(scope="session")
def ledger8():
    return build_ledger(8)


@pytest.fixture(scope="session")
def ledger10():
    return build_ledger(10)


@pytest.fixture(scope="session")
def ledger64():
    return build_ledger(64)


# the Born rule as a plain Python candidate, evaluated one overlap at a
# time, where born_candidate() is the compiled DSL r^2
PYTHON_BORN = CandidateDistribution("r^2", lambda z: abs(z) ** 2)


def make_ledger_locked_candidate(n_max: int, off_value: float = 0.9) -> CandidateDistribution:
    """Fixture candidate: agrees with |z|^2 exactly at every modulus
    sqrt(K/N) with N <= n_max, returns off_value everywhere else.

    Passes every rational-ledger probe while being wildly discontinuous;
    used to demonstrate that the continuity assumption is necessary.
    """

    def fn(z: complex) -> float:
        mod_sq = abs(z) ** 2
        frac = Fraction(mod_sq).limit_denominator(n_max)
        if abs(mod_sq - float(frac)) <= 1e-9 and 0 <= frac <= 1:
            return float(frac)
        return off_value

    return CandidateDistribution(f"ledger-locked(n_max={n_max})", fn)


def make_wrong_above_denominator(cutoff: int) -> CandidateDistribution:
    """Fixture candidate: equals |z|^2 at moduli sqrt(K/N) with N < cutoff,
    |z|^2 + 0.2 everywhere else.  Its smallest violating dimension is cutoff."""

    def fn(z: complex) -> float:
        mod_sq = abs(z) ** 2
        frac = Fraction(mod_sq).limit_denominator(cutoff - 1)
        if abs(mod_sq - float(frac)) <= 1e-9 and 0 <= frac <= 1:
            return mod_sq
        return mod_sq + 0.2

    return CandidateDistribution(f"wrong-above-denominator-{cutoff}", fn)


def schema_validator(name: str) -> jsonschema.Draft202012Validator:
    """Validator for one of the shipped schemas, with cross-file refs wired."""
    contents = {}
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        contents[doc["$id"]] = doc
    registry = Registry().with_resources(
        (uri, Resource.from_contents(doc)) for uri, doc in contents.items()
    )
    target = json.loads((SCHEMA_DIR / name).read_text())
    return jsonschema.Draft202012Validator(target, registry=registry)


def corrupt_entry(ledger, fraction: Fraction, value: Fraction):
    """Fault-injection helper: return a copy with one asserted value replaced."""
    values = ledger.values.copy()
    values[ledger.ks * fraction.denominator == ledger.ns * fraction.numerator] = (
        value.numerator, value.denominator)
    return replace(ledger, values=values)


def lookup(ledger, fraction, full_certificates=False) -> dict:
    """The stored entry of the ledger on the squared modulus ``fraction``, or KeyError."""
    num, den = Fraction(fraction).as_integer_ratio()
    for entry in ledger.json_entries(full_certificates):
        if entry["K"] * den == entry["N"] * num:
            return entry
    raise KeyError(fraction)


def float_certificates(ledger) -> list:
    """((K, N, thetas, seed), defect, overlap errors) of each entry of the
    ledger, in (N, K) order, read from its columns."""
    offsets = ledger.offsets.tolist()
    return [(spec, ledger.defects[i].item(), ledger.errors[offsets[i]:offsets[i + 1]].tolist())
            for i, spec in enumerate(spec_rows(ledger))]


def make_specs(rows) -> Specs:
    """The Specs of (K, N, thetas, seed) rows, seed -1 the standard basis."""
    rows = list(rows)
    ks, ns, seeds = (np.array([row[i] for row in rows], np.int64) for i in (0, 1, 3))
    thetas = np.array([t for row in rows for t in row[2]], np.float64)
    offsets = np.r_[0, np.cumsum([len(row[2]) for row in rows], dtype=np.int64)]
    return Specs(ks, ns, seeds, thetas, offsets)


def assert_same_specs(a, b) -> None:
    """The five columns of two Specs hold the same bits, of the same dtypes."""
    for name in ("ks", "ns", "seeds", "thetas", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
