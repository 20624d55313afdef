"""Span tracing installed from outside the torusq package.

`install(tracer)` replaces the public functions of the measured modules with
wrappers that record one span per call: name, start, end, parent span and
the operation it belongs to.  Functions are replaced wherever a module holds
a reference to them (torusq.finite and torusq.suites import names from
torusq.torus, and torusq.suites.SUITES holds the suite functions), so calls
made inside the package are seen too.  Spans are kept in compact in-memory
arrays and written out by `Tracer.write` when the run ends.

Only calls made while an operation is open (`begin_op` .. `end_op`) are
recorded; the benchmark's own correctness checks run outside operations and
leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

# (module, attribute) -> span name.  Dotted attributes are methods.
TARGETS = {
    ("torusq.symbolic", "WaveFunction.__init__"): "symbolic.build",
    ("torusq.symbolic", "BilinearPhaseTerm.evaluate"): "symbolic.evaluate",
    ("torusq.symbolic", "apply_operator"): "symbolic.apply_operator",
    ("torusq.symbolic", "exp_operator_apply"): "symbolic.exp_operator_apply",
    ("torusq.symbolic", "commutator_apply"): "symbolic.commutator_apply",
    ("torusq.symbolic", "WaveFunction.to_json"): "symbolic.json",
    ("torusq.symbolic", "WaveFunction.from_json"): "symbolic.json",
    ("torusq.torus", "sample"): "torus.sample",
    ("torusq.torus", "grid_shift_operator"): "torus.grid_shift",
    ("torusq.torus", "inner_product"): "torus.inner_product",
    ("torusq.torus", "chart_consistency_check"): "torus.chart_consistency",
    ("torusq.finite", "table1_verify"): "finite.table1_verify",
    ("torusq.finite", "physical_grid_overlaps"): "finite.physical_grid_overlaps",
    ("torusq.finite", "dft_basis_change"): "finite.dft_basis_change",
    ("torusq.finite", "weyl_commutation_check"): "finite.weyl_commutation",
    ("torusq.suites", "suite_commutators"): "suites.commutators",
    ("torusq.suites", "suite_orthonormality"): "suites.orthonormality",
    ("torusq.suites", "suite_table1"): "suites.table1",
    ("torusq.suites", "suite_weyl"): "suites.weyl",
    ("torusq.suites", "suite_dft"): "suites.dft",
    ("torusq.suites", "suite_charts"): "suites.charts",
    ("torusq.report", "VerificationReport.to_json"): "report.to_json",
    ("torusq.cli", "main"): "cli.main",
}

# Modules whose namespaces may hold imported references to the targets.
MODULES = ("torusq", "torusq.symbolic", "torusq.torus", "torusq.finite",
           "torusq.suites", "torusq.report", "torusq.cli")

SUITE_NAMES = ("commutators", "orthonormality", "table1", "weyl", "dft", "charts")

# Spans whose self time (inclusive minus wrapped children) is reported.
SELF_TIMED = tuple(f"suites.{s}" for s in SUITE_NAMES) + (
    "finite.table1_verify", "finite.physical_grid_overlaps", "cli.main")

TIMED = ("symbolic.build", "symbolic.apply_operator", "symbolic.exp_operator_apply",
         "symbolic.commutator_apply", "symbolic.json", "symbolic.evaluate",
         "torus.sample", "torus.grid_shift", "torus.inner_product",
         "torus.chart_consistency", "finite.table1_verify",
         "finite.physical_grid_overlaps", "finite.dft_basis_change",
         "finite.weyl_commutation") + tuple(f"suites.{s}" for s in SUITE_NAMES) + (
         "report.to_json", "cli.main")

CALLS = ("symbolic.build", "torus.sample", "torus.grid_shift", "torus.inner_product")
COUNTERS = ("symbolic.build_terms_in", "symbolic.evaluate_points", "torus.sample_points")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in TIMED:
        names.append(f"{span}_s")
        if span in SELF_TIMED:
            names.append(f"{span}_self_s")
    names += [f"{span}_calls" for span in CALLS]
    names += list(COUNTERS)
    names += ["torus.sample_redundancy", "trace.spans", "traced.verdict_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "torus.sample_redundancy":
        return "ratio"
    return "count"


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self._op_first: list[int] = []
        self.counters: list[dict] = []
        self._sampled: set = set()
        self.distinct_samples: list[int] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._op = len(self._op_first)
        self._op_first.append(len(self.start))
        self.counters.append(dict.fromkeys(COUNTERS, 0))
        self._sampled = set()

    def end_op(self) -> None:
        self.distinct_samples.append(len(self._sampled))
        self._op = -1

    def count(self, key: str, amount: int) -> None:
        if self._op >= 0:
            self.counters[self._op][key] += amount

    def note_sample(self, key) -> None:
        if self._op >= 0:
            self._sampled.add(key)

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, func, before=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return func(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer._op)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(time.perf_counter_ns())
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                stack.pop()

        return traced

    # -- output ---------------------------------------------------------------

    def summary(self, op: int) -> dict:
        """Per-layer metrics of one operation."""
        lo = self._op_first[op]
        hi = self._op_first[op + 1] if op + 1 < len(self._op_first) else len(self.start)
        incl = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        calls = dict.fromkeys(self.names, 0)
        child_ns = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child_ns[p - lo] += self.end[i] - self.start[i]
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_ns[name] += dur - child_ns[i - lo]
            # An inclusive total counts only spans with no ancestor of the
            # same name, so recursion is not counted twice.
            ancestor, nested = self.parent[i], False
            while ancestor >= lo:
                if self.name[ancestor] == self.name[i]:
                    nested = True
                    break
                ancestor = self.parent[ancestor]
            if not nested:
                incl[name] += dur
        out = {}
        for span in TIMED:
            out[f"{span}_s"] = incl.get(span, 0) / 1e9
            if span in SELF_TIMED:
                out[f"{span}_self_s"] = self_ns.get(span, 0) / 1e9
        for span in CALLS:
            out[f"{span}_calls"] = calls.get(span, 0)
        out.update(self.counters[op])
        distinct = self.distinct_samples[op]
        out["torus.sample_redundancy"] = calls.get("torus.sample", 0) / distinct if distinct else 0.0
        out["trace.spans"] = hi - lo
        return out

    def write(self, path) -> None:
        """Write every recorded span as JSON columns."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            }, f)


def median_summary(summaries: list[dict]) -> dict:
    """Median of each per-operation metric over the operations of a run."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}


# -- installation -------------------------------------------------------------

def _count_terms(tracer: Tracer, args):
    # WaveFunction.__init__(self, terms, hbar=None): materialise the iterable
    # once so its length can be counted; __init__ takes list(terms) anyway.
    terms = list(args[1])
    tracer.count("symbolic.build_terms_in", len(terms))
    return (args[0], terms, *args[2:])


def _count_points(tracer: Tracer, args):
    import numpy as np

    tracer.count("symbolic.evaluate_points", int(np.broadcast(args[1], args[2]).size))
    return args


def _count_sample(tracer: Tracer, args):
    wf, geometry, M = args[0], args[1], args[2]
    tracer.count("torus.sample_points", int(M) * int(M))
    state = (wf.hbar, tuple((t.amplitude, t.phase_key, tuple(sorted(t.prefactor.items())))
                            for t in wf.terms))
    tracer.note_sample((state, geometry, int(M)))
    return args


BEFORE = {
    "WaveFunction.__init__": _count_terms,
    "BilinearPhaseTerm.evaluate": _count_points,
    "sample": _count_sample,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the targets that were missing."""
    missing = []
    replaced = {}
    for (modname, attr), span in TARGETS.items():
        module = importlib.import_module(modname)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner).get(member)
        if raw is None:
            missing.append(f"{modname}.{attr}")
            continue
        before = BEFORE.get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, member, classmethod(tracer.wrap(span, raw.__func__, before)))
        else:
            wrapped = tracer.wrap(span, raw, before)
            setattr(owner, member, wrapped)
            replaced[id(raw)] = (raw, wrapped)
    # Rebind references other modules (and the suite table) imported.
    namespaces = [vars(sys.modules[m]) for m in MODULES]
    namespaces.append(getattr(sys.modules["torusq.suites"], "SUITES", {}))
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
    return missing
