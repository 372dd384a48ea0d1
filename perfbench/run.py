"""Benchmark of the bornlab command line, end to end and layer by layer.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload ledger-write --seed 1 --seconds 32 --trace 0

With ``--trace 0`` every timed command runs as a fresh
``python -m bornlab.cli`` process with ``src`` on ``PYTHONPATH``, so the
times include interpreter start and imports, as a user sees them.  The
commands of the workload run in turn, one at a time, and the cycle repeats
while the next command still fits in ``--seconds``; each per-command
metric is the median of its samples.

With ``--trace 1`` (which ignores ``--seconds``) the same commands run
through ``bornlab.cli.main`` in this process, in passes with spans around
the public functions of each layer (see ``tracing.py``) that alternate
with passes without them.  The per-layer metrics come from the faster
traced pass, whose spans are written to ``.bench_out``;
``trace.overhead_s`` is its time minus that of the faster untraced pass.
Where the tracer costs less than the spread between passes that
difference can read negative, so ``trace.span_cost_s`` also gives the
spans recorded times the measured cost of one.  A metric of a layer the
workload does not reach reads 0, and the build_ledger scaling exponent is
measured on ledger-write only.

Every command's output is checked (``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics listed in BENCHMARK.json for the chosen trace mode.  Lines
before it give every metric with its unit and sample count, and the full
record, environment included, is written to
``.bench_out/<workload>/result-trace<t>-seed<s>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback

from tracing import TARGETS, Tracer, span_cost
from workloads import WORKLOADS, Command, derive_setup, ledger_path

OUT_DIR = ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s
IMPORT_REPEATS = 3
EXPONENT_SIZES = (32, 64, 96, 128)
# Children and the traced process get one BLAS thread, so that the thread
# count does not follow the core count of whatever machine runs the
# benchmark, and the parent commit and a change always run alike.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_MODULES = {
    "import.numpy_s": "numpy",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_linalg_s": "scipy.linalg",
}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def per_layer_names() -> list:
    names = []
    for target in TARGETS:
        names += [f"{target}.calls", f"{target}.self_s"]
    return names + [
        "hilbert.OrthonormalBasis.calls_per_entry",
        "derivation.build_ledger.entries",
        "derivation.build_ledger_exponent",
        "falsifier.hill_climb.accept_ratio",
        "falsifier.probes.ledger",
        "falsifier.probes.random",
        "falsifier.probes.optimizer",
        "falsifier.probes_per_s",
        "montecarlo.samples_per_s",
        "import.bornlab_cli_s",
        *IMPORT_MODULES,
        "trace.wall_s",
        "trace.self_sum_s",
        "trace.overhead_s",
        "trace.span_cost_s",
    ]


# longest suffix first, so that "_per_s" wins over "_s"
UNITS = (("_per_entry", "1"), ("_exponent", "1"), ("_ratio", "1"), ("_per_s", "1/s"),
         ("_bytes", "B"), ("_mb", "MB"), ("_s", "s"))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BORN_SEED"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv: list, env: dict, timeout: float, stderr_path: str):
    """Run argv to completion; returns (seconds, exit code, peak RSS in MB).

    The child is reaped with os.wait4, whose rusage belongs to that child
    alone (RUSAGE_CHILDREN would be a maximum over every child so far).
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def check_output(cmd: Command, exit_code: int) -> list:
    """Problems with one finished command: exit code, then its output's meaning."""
    if exit_code != cmd.exit_code:
        return [f"exit {exit_code}, expected {cmd.exit_code}"]
    try:
        with open(cmd.output, encoding="utf-8") as handle:
            result = json.load(handle)["result"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    return cmd.check(result)


class FreshProcessRunner:
    """Runs each command as ``python -m bornlab.cli`` in a new process."""

    def __init__(self, root: str, workdir: str, deadline: Deadline):
        self.env = child_env(root)
        self.workdir = workdir
        self.deadline = deadline

    def _run(self, label: str, argv: list, problems) -> dict:
        seconds, code, rss = run_child(argv, self.env, self.deadline.left(),
                                       os.path.join(self.workdir, "stderr.txt"))
        return {"metric": label, "seconds": seconds, "exit": code, "rss_mb": rss,
                "problems": problems(code)}

    def __call__(self, cmd: Command) -> dict:
        if os.path.exists(cmd.output):
            os.remove(cmd.output)
        record = self._run(cmd.metric, [sys.executable, "-m", "bornlab.cli", *cmd.cli_argv],
                           lambda code: check_output(cmd, code))
        record["output"] = cmd.output
        return record

    def import_once(self) -> dict:
        return self._run("import", [sys.executable, "-c", "import bornlab.cli"],
                         lambda code: [f"import exited {code}"] if code else [])


def measure(commands: list, runner: FreshProcessRunner, seconds: float) -> list:
    """Run the commands in turn, closed loop, until the next would overrun.

    Every command runs at least once.  After that the cycle stops at the
    first command whose last time no longer fits in ``seconds``, so the
    sample counts of any two commands differ by at most one.
    """
    start = time.perf_counter()
    records, last = [], {}
    for i in itertools.count():
        k = i % len(commands)
        if i >= len(commands) and time.perf_counter() - start + last[k] > seconds:
            return records
        records.append(runner(commands[k]))
        last[k] = records[-1]["seconds"]


def set_up(workload, seed: int, runner: FreshProcessRunner) -> tuple:
    """Fresh-process imports and, for ledger-read, the ledger; returns
    (set-up seconds, records).  The import time is the median of several."""
    records = [runner.import_once() for _ in range(IMPORT_REPEATS)]
    setup_s = statistics.median(r["seconds"] for r in records)
    if workload.needs_ledger:
        records.append(runner(derive_setup(seed, runner.workdir)))
        setup_s += records[-1]["seconds"]
    return setup_s, records


def tally(records: list) -> tuple:
    """(attempted, failed): a command fails on a wrong exit code or output."""
    return len(records), sum(1 for r in records if r["problems"])


def command_metrics(records: list) -> dict:
    """metric -> (value, samples): per-command medians, summed per metric,
    and wall_s, the sum over every command."""
    by_command = {}
    for rec in records:
        by_command.setdefault((rec["metric"], rec["output"]), []).append(rec["seconds"])
    metrics = {}
    for (metric, _), samples in by_command.items():
        value, n = metrics.get(metric, (0.0, len(samples)))
        metrics[metric] = (value + statistics.median(samples), min(n, len(samples)))
    metrics["wall_s"] = (sum(v for v, _ in metrics.values()),
                         min(n for _, n in metrics.values()))
    return metrics


def import_layers(root: str, deadline: Deadline) -> dict:
    """Cumulative import times from ``python -X importtime -c 'import bornlab.cli'``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bornlab.cli"],
        env=child_env(root), capture_output=True, text=True, timeout=deadline.left())
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    metrics = {name: cumulative.get(module, 0.0) for name, module in IMPORT_MODULES.items()}
    # importing bornlab.cli first runs the package __init__, which imports
    # every other module; the two lines together are the whole cost
    metrics["import.bornlab_cli_s"] = (
        cumulative.get("bornlab", 0.0) + cumulative.get("bornlab.cli", 0.0))
    return metrics


def in_process_pass(cli, commands: list) -> tuple:
    """Run each command through cli.main; returns (records, seconds inside
    cli.main summed over the commands, output checks excluded)."""
    records = []
    for cmd in commands:
        if os.path.exists(cmd.output):
            os.remove(cmd.output)
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.cli_argv)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        else:
            crash = None
        seconds = time.perf_counter() - t0
        problems = [crash] if crash else check_output(cmd, code)
        records.append({"metric": cmd.metric, "seconds": seconds, "exit": code,
                        "problems": problems})
    return records, sum(r["seconds"] for r in records)


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def observers(tracer: Tracer) -> dict:
    """Counts read from return values, per wrapped function."""
    return {
        "derivation.build_ledger": lambda ledger: tracer.count("entries", len(ledger.entries)),
        "derivation.ConstraintLedger.from_json":
            lambda ledger: tracer.count("entries", len(ledger.entries)),
        "falsifier.hill_climb": lambda out: (
            tracer.count("accepted", sum(b > a for a, b in zip(out[3], out[3][1:]))),
            tracer.count("tried", len(out[3]) - 1)),
        "montecarlo.sample_counts_from_probabilities":
            lambda counts: tracer.count("samples", int(counts.sum())),
    }


def traced_run(commands: list, root: str, workdir: str, seed: int,
               deadline: Deadline) -> tuple:
    """Untraced and traced in-process passes; returns (metrics, records)."""
    metrics = import_layers(root, deadline)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    import bornlab.cli as cli
    import bornlab.derivation as derivation

    # Untraced and traced passes alternate, twice; each side keeps its
    # faster pass.  The tracer costs about 1.2 us a span, less than the
    # pass-to-pass spread of a shared host, so single passes could read as
    # negative overhead.
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(in_process_pass(cli, commands))
        tracer = Tracer()
        undo = tracer.install(observers=observers(tracer))
        try:
            traced.append(in_process_pass(cli, commands) + (tracer,))
        finally:
            Tracer.uninstall(undo)
    plain, plain_wall = min(untraced, key=lambda run: run[1])
    _, traced_wall, tracer = min(traced, key=lambda run: run[1])
    tracer.write(os.path.join(workdir, "spans.tsv.gz"))

    layers = tracer.layer_totals()
    for name, (calls, seconds) in layers.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = seconds
    counters = tracer.counters
    entries = counters.get("entries", 0)
    metrics["derivation.build_ledger.entries"] = entries
    metrics["hilbert.OrthonormalBasis.calls_per_entry"] = (
        layers["hilbert.OrthonormalBasis"][0] / entries if entries else 0.0)
    tried = counters.get("tried", 0)
    metrics["falsifier.hill_climb.accept_ratio"] = (
        counters.get("accepted", 0) / tried if tried else 0.0)
    sampler_s = layers["montecarlo.sample_counts_from_probabilities"][1]
    metrics["montecarlo.samples_per_s"] = (
        counters.get("samples", 0) / sampler_s if sampler_s else 0.0)

    probes, probe_s = {"ledger": 0, "random": 0, "optimizer": 0}, 0.0
    for cmd, rec in zip(commands, plain):
        if cmd.metric == "falsify_clean_s" and not rec["problems"]:
            with open(cmd.output, encoding="utf-8") as handle:
                probes = json.load(handle)["result"]["probes"]
            probe_s = rec["seconds"]
    for phase, count in probes.items():
        metrics[f"falsifier.probes.{phase}"] = count
    metrics["falsifier.probes_per_s"] = sum(probes.values()) / probe_s if probe_s else 0.0

    # the scaling curve is only measured where ledger construction is the work
    exponent = 0.0
    if any(cmd.metric == "derive_s" for cmd in commands):
        times = []
        for n in EXPONENT_SIZES:
            t0 = time.perf_counter()
            derivation.build_ledger(n, seed=seed)
            times.append(time.perf_counter() - t0)
        exponent = slope(list(EXPONENT_SIZES), times)
        metrics["derivation.build_ledger_seconds"] = dict(zip(EXPONENT_SIZES, times))
    metrics["derivation.build_ledger_exponent"] = exponent
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.self_sum_s"] = sum(seconds for _, seconds in layers.values())
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.span_cost_s"] = len(tracer) * span_cost()
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.spans"] = len(tracer)
    return metrics, [rec for run in untraced + traced for rec in run[0]]


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "bornlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def git_commit(root: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: str, load_start: tuple) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "child_env": dict(BLAS_ENV),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bornlab", "cli.py")):
        print("perfbench: src/bornlab/cli.py not found; run from the root of a "
              "bornlab checkout", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, workload.name)
    os.makedirs(workdir, exist_ok=True)
    commands = workload.commands(args.seed, workdir)

    runner = FreshProcessRunner(root, workdir, deadline)
    if args.trace:
        setup_records = [runner(derive_setup(args.seed, workdir))] if workload.needs_ledger else []
        measured, records = traced_run(commands, root, workdir, args.seed, deadline)
        reported = {name: measured[name] for name in per_layer_names()}
        summary = {name: (value, 1) for name, value in measured.items()}
    else:
        setup_s, setup_records = set_up(workload, args.seed, runner)
        records = measure(commands, runner, args.seconds)
        summary = command_metrics(records)
        summary["setup_s"] = (setup_s, IMPORT_REPEATS)
        summary["peak_rss_mb"] = (max(r["rss_mb"] for r in records), len(records))
        reported = {name: summary[name][0] for name in END_TO_END}
    attempted, failed = tally(setup_records + records)
    summary["fail_ratio"] = (failed / attempted, attempted)
    if os.path.exists(ledger_path(workdir)):
        summary["ledger_bytes"] = (os.path.getsize(ledger_path(workdir)), 1)

    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root, load_start),
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in summary.items()},
        "commands": setup_records + records,
    }
    with open(os.path.join(workdir, f"result-trace{args.trace}-seed{args.seed}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"# environment {json.dumps(record['environment'], default=str)}")
    for rec in setup_records + records:
        for problem in rec["problems"]:
            print(f"# FAILED {rec['metric']}: {problem}")
    for name, (value, n) in sorted(summary.items()):
        if isinstance(value, dict):
            continue
        print(f"{name:48s} {value:>16.6g} {unit_of(name):6s} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
