"""The benchmark's workloads: the CLI commands each one times, and the
check that decides whether a command's output is correct.

Each workload is a closed loop with one client: the harness runs one
command, waits for it to end, checks its output and only then starts the
next.  The checks test meaning, not bytes, so that a change which
legitimately moves float bits (a new summation order, a new expm) still
passes; every check holds for any seed.

N_max = 256 is left out on purpose.  One derive at 256 takes about 100 s
on a 2-core machine today, longer than a whole run may last, and certify
at 256 takes as long again.  Add it as its own workload once derive at 256
comes near 10 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

LEDGER_N = 128
ROTATED_N = 64
COMPARE_GRID = 4096
CLEAN_N_RANGE = "2..32"
CLEAN_TRIALS = 200
CLEAN_STEPS = 1000
WITNESS_N_RANGE = "2..8"
SIMULATE_SAMPLES = 100_000_000
PIN_TOLERANCE = 1e-9

# candidate -> (axiom, pinned residual or None); the pins are those of
# acceptance criterion 4, and every one of these is caught by the ledger
# phase at N = 2 whatever the seed.
WITNESSES = {
    "r": ("normalization", math.sqrt(2.0) - 1.0),
    "r^4": ("normalization", 0.5),
    "r^2 + 0.05": ("orthogonality", 0.05),
    "r^2*(1 + 0.1*sin(phi))": ("normalization", None),
}

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Command:
    """One timed CLI invocation.

    ``metric`` names the per-command metric its time feeds; several
    commands may feed one metric, which is then the sum of their medians.
    ``output`` is the file the command writes with ``-o``; the check reads
    the ``result`` object of that file and returns a list of problems.
    """

    metric: str
    argv: tuple
    output: str
    exit_code: int
    check: Check

    @property
    def cli_argv(self) -> list:
        return [*self.argv, "-o", self.output]


@dataclass(frozen=True)
class Workload:
    """A named set of timed commands; why each was chosen is in BENCHMARK.json."""

    name: str
    commands: Callable[[int, str], list]
    needs_ledger: bool = False  # set-up derives the ledger it loads first


def ledger_entry_count(n_max: int) -> int:
    """P(0) plus one entry per reduced fraction K/N with 1 <= K <= N <= n_max."""
    return 1 + sum(
        1 for n in range(1, n_max + 1) for k in range(1, n + 1) if math.gcd(k, n) == 1
    )


def check_derive(n_max: int) -> Check:
    expected = ledger_entry_count(n_max)

    def check(result: dict) -> list:
        problems = []
        if result.get("compare_to_born") != "0/1":
            problems.append(f"compare_to_born is {result.get('compare_to_born')!r}")
        if result.get("failures"):
            problems.append(f"{len(result['failures'])} certificate failures")
        if result.get("entry_count") != expected:
            problems.append(f"entry_count {result.get('entry_count')} != {expected}")
        if len(result.get("ledger", {}).get("entries", ())) != expected:
            problems.append("ledger does not hold every entry")
        return problems

    return check


def check_flag(key: str, want: bool) -> Check:
    def check(result: dict) -> list:
        return [] if result.get(key) is want else [f"{key} is {result.get(key)!r}"]

    return check


def check_witness(axiom: str, pin: Optional[float]) -> Check:
    def check(result: dict) -> list:
        witness = result.get("witness")
        if result.get("falsified") is not True or not witness:
            return ["no witness found"]
        problems = []
        if witness.get("axiom") != axiom:
            problems.append(f"axiom {witness.get('axiom')!r}, expected {axiom!r}")
        residual = witness.get("residual")
        if not isinstance(residual, (int, float)) or not residual >= 1e-6:
            problems.append(f"residual {residual!r} below the falsify threshold")
        elif pin is not None and abs(residual - pin) > PIN_TOLERANCE:
            problems.append(f"residual {residual!r}, pinned at {pin!r}")
        return problems

    return check


def ledger_path(workdir: str) -> str:
    return f"{workdir}/F.json"


def derive_setup(seed: int, workdir: str) -> Command:
    """The n128 ledger that ledger-read loads, written during set-up."""
    return Command(
        "setup_derive", ("derive", "--n-max", str(LEDGER_N), "--seed", str(seed)),
        ledger_path(workdir), 0, check_derive(LEDGER_N),
    )


def _ledger_write(seed: int, workdir: str) -> list:
    s = str(seed)
    return [
        Command("derive_s", ("derive", "--n-max", str(LEDGER_N), "--seed", s),
                f"{workdir}/F.json", 0, check_derive(LEDGER_N)),
        Command("derive_rotated_s",
                ("derive", "--n-max", str(ROTATED_N), "--rotate-bases", "--seed", s),
                f"{workdir}/G.json", 0, check_derive(ROTATED_N)),
    ]


def _ledger_read(seed: int, workdir: str) -> list:
    ledger = ledger_path(workdir)
    return [
        Command("certify_s", ("certify", ledger), f"{workdir}/certify.json", 0,
                check_flag("verified", True)),
        Command("compare_s", ("compare", "-p", "r^2", ledger, "--grid", str(COMPARE_GRID)),
                f"{workdir}/compare.json", 0, check_flag("passed", True)),
    ]


def _search(seed: int, workdir: str) -> list:
    s = str(seed)
    commands = [
        Command("falsify_clean_s",
                ("falsify", "-p", "r^2", "--n-range", CLEAN_N_RANGE,
                 "--trials", str(CLEAN_TRIALS), "--optimizer-steps", str(CLEAN_STEPS),
                 "--seed", s),
                f"{workdir}/falsify-clean.json", 1, check_flag("falsified", False)),
    ]
    for i, (candidate, (axiom, pin)) in enumerate(WITNESSES.items()):
        commands.append(
            Command("falsify_witness_s",
                    ("falsify", "-p", candidate, "--n-range", WITNESS_N_RANGE, "--seed", s),
                    f"{workdir}/falsify-witness-{i}.json", 0, check_witness(axiom, pin))
        )
    commands.append(
        Command("simulate_s",
                ("simulate", "--fraction", "2/3", "--samples", str(SIMULATE_SAMPLES),
                 "--seed", s),
                f"{workdir}/simulate.json", 0, check_flag("passed", True))
    )
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ledger-write", _ledger_write),
        Workload("ledger-read", _ledger_read, needs_ledger=True),
        Workload("search", _search),
    )
}
