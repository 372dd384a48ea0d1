"""Tests of the benchmark harness itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    # self times of a tree always add up to its root's duration
    assert sum(tracing.self_times(parents, starts, ends)) == 10.0


def test_tracer_counts_calls_and_nests_spans():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    seen = []
    inner = tracer.wrap("inner", lambda x: leaf(leaf(x)), observe=seen.append)
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 7
    assert seen == [3, 4]
    totals = tracer.layer_totals()
    assert {name: calls for name, (calls, _) in totals.items()} == {
        "leaf": 4, "inner": 2, "outer": 1}
    root_s = tracer.ends[0] - tracer.starts[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(root_s, abs=1e-12)
    assert list(tracer.parents) == [-1, 0, 1, 1, 0, 4, 4]


def test_span_cost_is_positive():
    assert 0.0 < tracing.span_cost(20_000) < 1e-3


def test_install_rebinds_every_import_and_uninstall_restores_it():
    import bornlab.cli  # noqa: F401
    import bornlab.derivation
    import bornlab.falsifier
    import bornlab.hilbert

    original = bornlab.hilbert.haar_unitary
    init = bornlab.hilbert.OrthonormalBasis.__init__
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert bornlab.falsifier.haar_unitary is not original
        assert bornlab.derivation.haar_unitary is bornlab.falsifier.haar_unitary
        bornlab.hilbert.standard_basis(3)
        ledger = bornlab.derivation.build_ledger(3)
        bornlab.derivation.ConstraintLedger.from_json(ledger.to_json())
    finally:
        tracing.Tracer.uninstall(undo)
    assert bornlab.falsifier.haar_unitary is original
    assert bornlab.hilbert.OrthonormalBasis.__init__ is init
    totals = tracer.layer_totals()
    assert totals["hilbert.OrthonormalBasis"][0] > 0
    assert totals["derivation.ConstraintLedger.from_json"][0] == 1


def test_a_failing_output_check_counts_as_failed(tmp_path):
    runner = run.FreshProcessRunner(ROOT, str(tmp_path), run.Deadline(120))
    argv = ("simulate", "--fraction", "1/2", "--samples", "1000", "--seed", "0")
    passing = workloads.Command("simulate_s", argv, str(tmp_path / "a.json"), 0,
                                workloads.check_flag("passed", True))
    failing = workloads.Command("simulate_s", argv, str(tmp_path / "b.json"), 0,
                                lambda result: ["deliberately failing check"])
    records = run.measure([passing, failing], runner, seconds=0.0)
    assert run.tally(records) == (2, 1)


def test_a_wrong_exit_code_counts_as_failed(tmp_path):
    runner = run.FreshProcessRunner(ROOT, str(tmp_path), run.Deadline(120))
    # a correct run, but the command is declared to exit 1
    cmd = workloads.Command(
        "simulate_s", ("simulate", "--fraction", "1/2", "--samples", "1000"),
        str(tmp_path / "c.json"), 1, workloads.check_flag("passed", True))
    record = runner(cmd)
    assert record["problems"] == ["exit 0, expected 1"]
    assert run.tally([record]) == (1, 1)


def test_witness_check_holds_the_pins():
    check = workloads.check_witness("normalization", 0.5)
    good = {"falsified": True, "witness": {"axiom": "normalization", "residual": 0.5}}
    assert check(good) == []
    off = {"falsified": True, "witness": {"axiom": "normalization", "residual": 0.5 + 1e-8}}
    assert check(off)
    assert check({"falsified": False, "witness": None}) == ["no witness found"]


def test_ledger_entry_count():
    assert workloads.ledger_entry_count(1) == 2  # P(0) and 1/1
    assert workloads.ledger_entry_count(128) == 5023


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert run.unit_of("falsifier.probes_per_s") == "1/s"
    assert run.unit_of("hilbert.OrthonormalBasis.calls") == "count"


def test_slope_of_a_power_law():
    xs = [32, 64, 96, 128]
    assert run.slope(xs, [3.0 * x ** 2.5 for x in xs]) == pytest.approx(2.5)
