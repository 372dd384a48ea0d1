"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
under ``pytest -s`` or on failure).  Tolerances are pinned here and are
not calibrated anywhere else.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bornlab import (
    Axiom,
    born_candidate,
    candidate_from_expression,
    continuity_extension_check,
    falsify,
    replay_witness,
    run_axiom_suite,
    sample_outcomes,
    simulate_fractions,
    standard_basis,
    symmetric_state,
    partial_dft_basis,
    overlap_with_symmetric,
    orthonormality_defect,
    FalsifierConfig,
    StateVector,
)
from bornlab.cli import main
from bornlab.construction import overlap_contract_error
from bornlab.derivation import ConstraintLedger

from conftest import make_ledger_locked_candidate


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_ledger_exactness(tmp_path):
    out = tmp_path / "ledger64.json"
    start = time.monotonic()
    code = main(["derive", "--n-max", "64", "-o", str(out)])
    elapsed = time.monotonic() - start
    payload = json.loads(out.read_text())
    entries = payload["result"]["ledger"]["entries"]
    values_exact = all(
        Fraction(*map(int, e["value"]["fraction"].split("/"))) ==
        (Fraction(0) if e["K"] == 0 else Fraction(e["K"], e["N"]))
        for e in entries
    )
    # re-derive in-process to inspect certificate numbers directly
    ledger = ConstraintLedger.from_json(payload["result"]["ledger"])
    defects_ok = bool((ledger.defects <= 1e-10).all() and (ledger.errors <= 1e-11).all())
    ok = (
        code == 0
        and elapsed < 60.0
        and values_exact
        and payload["result"]["compare_to_born"] == "0/1"
        and defects_ok
    )
    report(
        "criterion-1 ledger exactness",
        ok,
        f"exit={code}, elapsed={elapsed:.1f}s, entries={len(entries)}",
    )


def test_criterion_2_construction_soundness():
    thetas = (0.0, 1.0, math.pi, 5.5)
    worst_defect = 0.0
    worst_overlap = 0.0
    for n in range(2, 129):
        base = standard_basis(n)
        states = {t: symmetric_state(base, t) for t in thetas}
        for k in range(1, n):
            tilde = partial_dft_basis(base, k)
            worst_defect = max(worst_defect, orthonormality_defect(tilde.vectors))
            for t, psi in states.items():
                overlaps = overlap_with_symmetric(tilde, psi)
                worst_overlap = max(
                    worst_overlap, overlap_contract_error(overlaps, k, n, t)
                )
    ok = worst_defect <= 1e-10 and worst_overlap <= 1e-11
    report(
        "criterion-2 construction soundness",
        ok,
        f"max Gram defect={worst_defect:.2e}, max overlap error={worst_overlap:.2e}",
    )


def test_criterion_3_born_candidate_passes():
    reports = run_axiom_suite(
        born_candidate(), dims=[2, 3, 5, 8, 16, 64], trials=1000, seed=2024,
        tolerance=1e-9,
    )
    worst = max(r.max_residual for r in reports)
    ok = all(r.passed for r in reports)
    report(
        "criterion-3 Born candidate passes all five axioms",
        ok,
        f"worst residual={worst:.2e} over 1000 probes x 6 dims",
    )


def test_criterion_4_falsification_completeness(ledger8):
    cfg = FalsifierConfig(
        n_range=(2, 3, 4, 5, 6, 7, 8), random_trials=20, optimizer_steps=50, seed=0
    )
    expectations = {
        "r": (Axiom.NORMALIZATION, math.sqrt(2) - 1),
        "r^4": (Axiom.NORMALIZATION, 0.5),
        "r^2 + 0.05": (Axiom.ORTHOGONALITY, 0.05),
        "r^2*(1 + 0.1*sin(phi))": (Axiom.NORMALIZATION, None),
    }
    ok = True
    details = []
    for expr, (axiom, expected_residual) in expectations.items():
        result = falsify(candidate_from_expression(expr), cfg, ledger8)
        w = result.witness
        if w is None:
            ok = False
            details.append(f"{expr}: NO WITNESS")
            continue
        replay_gap = abs(replay_witness(w) - w.residual)
        this_ok = w.axiom is axiom and replay_gap <= 1e-12
        if expected_residual is not None:
            this_ok = this_ok and abs(w.residual - expected_residual) <= 1e-9
        ok = ok and this_ok
        details.append(f"{expr}: N={w.dimension} residual={w.residual:.8f}")
    report("criterion-4 falsification completeness", ok, "; ".join(details))


def test_criterion_5_frequentist_check():
    probs = [Fraction(1, 3), Fraction(2, 3)]
    passes = sum(
        simulate_fractions(probs, 10**6, seed).passed for seed in range(100)
    )
    # O(1/sqrt(n)) convergence over a fixed seed set
    p = np.array([1 / 3, 2 / 3])
    state = StateVector(np.sqrt(p))
    basis = standard_basis(2)

    def max_err(n):
        return max(
            float(np.max(np.abs(sample_outcomes(state, basis, n, s) / n - p)))
            for s in range(20)
        )

    converges = max_err(10**4) >= 3 * max_err(10**6)
    ok = passes >= 99 and converges
    report(
        "criterion-5 frequentist check",
        ok,
        f"passes={passes}/100, convergence ratio ok={converges}",
    )


def test_criterion_6_continuity_probe(ledger64):
    probes = ledger64.theta_base, ledger64
    born = continuity_extension_check(born_candidate(), *probes, 256)
    absr = continuity_extension_check(candidate_from_expression("r"), *probes, 256)
    fixture = continuity_extension_check(make_ledger_locked_candidate(64), *probes, 256)
    ok = (
        born["max_rational_residual"] <= 1e-12
        and born["max_grid_deviation_from_born"] <= 1e-12
        and absr["max_rational_residual"] >= 0.207
        and fixture["max_rational_residual"] <= 1e-12
        and fixture["max_grid_deviation_from_born"] >= 0.5
    )
    report(
        "criterion-6 continuity probe",
        ok,
        "born=({:.1e},{:.1e}) r=({:.3f}) fixture=({:.1e},{:.3f})".format(
            born["max_rational_residual"],
            born["max_grid_deviation_from_born"],
            absr["max_rational_residual"],
            fixture["max_rational_residual"],
            fixture["max_grid_deviation_from_born"],
        ),
    )


def test_criterion_7_determinism(tmp_path):
    commands = [
        ["derive", "--n-max", "6"],
        ["certify"],  # placeholder, filled below
        ["falsify", "-p", "r", "--n-range", "2..5"],
        ["falsify", "-p", "r^2", "--n-range", "2..3", "--trials", "5",
         "--optimizer-steps", "10"],
        ["simulate", "--fraction", "2/3", "--samples", "200000"],
        ["compare", "-p", "r^2"],  # ledger path appended below
    ]
    ledger_path = tmp_path / "ledger.json"
    main(["derive", "--n-max", "6", "-o", str(ledger_path)])
    commands[1] = ["certify", str(ledger_path)]
    commands[5] = ["compare", "-p", "r^2", str(ledger_path)]
    ok = True
    for argv in commands:
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(argv + ["-o", str(a_path)])
        code_b = main(argv + ["-o", str(b_path)])
        a = json.loads(a_path.read_text())
        b = json.loads(b_path.read_text())
        a.pop("timestamp"), b.pop("timestamp")
        if code_a != code_b or a != b:
            ok = False
    report("criterion-7 determinism", ok, f"{len(commands)} subcommands compared")
