"""Spans around the public functions of each bornlab layer.

The tracer wraps a function by rebinding its name in every bornlab module
that holds it (``from .hilbert import haar_unitary`` makes a second
binding in the importing module), and wraps a method by replacing it on
its class.  Nothing under ``src/`` is edited, and ``uninstall`` restores
every original binding.

A span is (name, parent, start, end).  Spans live in compact arrays while
the run lasts and are written out when it ends; self times are computed
from them afterwards: a span's duration minus the durations of its
children.  The program is single-threaded, so child spans nest and never
overlap, and no layer waits on another.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# metric name -> (module, attribute path).  A dotted path names a method
# on a class; ``__init__`` spans count constructions.
TARGETS = {
    "cli.main": ("bornlab.cli", "main"),
    "hilbert.OrthonormalBasis": ("bornlab.hilbert", "OrthonormalBasis.__init__"),
    "hilbert.orthonormality_defect": ("bornlab.hilbert", "orthonormality_defect"),
    "hilbert.haar_unitary": ("bornlab.hilbert", "haar_unitary"),
    "hilbert.random_state": ("bornlab.hilbert", "random_state"),
    "construction.dft_block": ("bornlab.construction", "dft_block"),
    "construction.partial_dft_basis": ("bornlab.construction", "partial_dft_basis"),
    "construction.symmetric_state": ("bornlab.construction", "symmetric_state"),
    "construction.overlap_with_symmetric": ("bornlab.construction", "overlap_with_symmetric"),
    "construction.overlap_contract_error": ("bornlab.construction", "overlap_contract_error"),
    "derivation.build_ledger": ("bornlab.derivation", "build_ledger"),
    "derivation.ConstraintLedger.to_json": ("bornlab.derivation", "ConstraintLedger.to_json"),
    "derivation.ConstraintLedger.from_json": ("bornlab.derivation", "ConstraintLedger.from_json"),
    "derivation.verify_ledger": ("bornlab.derivation", "verify_ledger"),
    "derivation.compare_to_born": ("bornlab.derivation", "compare_to_born"),
    "derivation.continuity_extension_check": ("bornlab.derivation", "continuity_extension_check"),
    "axioms.candidate_eval": ("bornlab.axioms", "CandidateDistribution.__call__"),
    "dsl.eval_expr": ("bornlab.dsl", "eval_expr"),
    "dsl.parse_candidate": ("bornlab.dsl", "parse_candidate"),
    "falsifier.falsify": ("bornlab.falsifier", "falsify"),
    "falsifier.hill_climb": ("bornlab.falsifier", "hill_climb"),
    "falsifier.expm": ("bornlab.falsifier", "expm"),
    "montecarlo.sample_counts_from_probabilities": (
        "bornlab.montecarlo", "sample_counts_from_probabilities"),
    "montecarlo.frequentist_report": ("bornlab.montecarlo", "frequentist_report"),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span named ``name``.

        ``observe(result)`` runs after the span ends, so that counts read
        from a return value do not add to the layer's time.
        """
        self.names.append(name)
        name_id = len(self.names) - 1
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self, observers=None) -> list:
        """Wrap every target; returns the undo list for ``uninstall``."""
        observers = observers or {}
        undo = []
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, observers.get(name)))
                else:
                    new = self.wrap(name, raw, observers.get(name))
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, observers.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("bornlab") and getattr(mod, path, None) is original:
                    setattr(mod, path, wrapper)
                    undo.append((mod, path, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans, gzipped, as tab-separated lines: id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            out.writelines(
                f"{i}\t{p}\t{names[n]}\t{s:.9f}\t{e:.9f}\n"
                for i, (p, n, s, e) in enumerate(
                    zip(self.parents, self.name_ids, self.starts, self.ends))
            )

    def layer_totals(self) -> dict:
        """name -> (calls, self seconds) over every recorded span."""
        own = self_times(self.parents, self.starts, self.ends)
        totals = {name: [0, 0.0] for name in self.names}
        for name_id, seconds in zip(self.name_ids, own):
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += seconds
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the summed durations of its direct children.

    Spans are listed in the order they started, so a parent's index is
    always lower than its children's.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    middle = perf_counter()
    for _ in range(calls):
        noop()
    return ((middle - start) - (perf_counter() - middle)) / calls
