"""Outside-in tracer: wraps the public functions of each baxcheck layer.

Nothing inside the program is changed on disk.  `install` replaces every
binding of each target in every loaded `baxcheck` module namespace and class
dict -- so `poly_gcd` imported into `exactnum`, `ratfunc` and `matrix`, the
`MultiPoly.__rmul__` / `RatFunc.__radd__` aliases, `rhat_cleared` in
`verify` and the verify entry points in `cli` are all covered -- and then
checks that no binding of an original function is left.  A layer therefore
cannot be missed silently.

Each wrapped call is a span; spans nest on a stack, and a span's self time is
its duration minus the time of the wrapped spans it directly contains.
Spans are folded into per-name totals as they close (call count, total and
self seconds, plus work counters), which keeps memory flat on passes with
millions of calls.
"""

from __future__ import annotations

import sys
import time


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "work", "max_terms")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0  # term products / entry multiplies, where counted
        self.max_terms = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self._child = []  # per open span: seconds spent in wrapped children

    def wrap(self, fn, name, count=None):
        """Wrap fn; name is a string or a function of the call's args."""
        stats, child = self.stats, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            t0 = clock()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                rec = stats.get(label)
                if rec is None:
                    rec = stats[label] = Stats()
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - inner
            if count is not None and result is not NotImplemented:
                count(rec, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self, time_scale: float = 1.0) -> dict:
        """Per-name totals; times are multiplied by time_scale."""
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total_s * time_scale,
                "self_s": s.self_s * time_scale,
                "work": s.work,
                "max_terms": s.max_terms,
            }
            for name, s in sorted(self.stats.items())
        }


# -- what is traced -------------------------------------------------------------


def targets():
    """(owner, attribute, metric name or namer, counter) for every traced function."""
    from baxcheck import baxter, cli, ncalg, reps, verify
    from baxcheck.exactnum import FieldMatrix, MultiPoly, RatFunc, poly

    def entry_kind(entries) -> str:
        for e in entries:
            if isinstance(e, RatFunc):
                return "ratfunc"
            if isinstance(e, MultiPoly):
                return "poly"
        return "frac"

    def matmul_name(args) -> str:
        self, other = args
        if not isinstance(other, FieldMatrix):
            return "matrix.scale"
        return "matrix.mul." + entry_kind(self.entries)

    def count_matmul(rec, args, result):
        self, other = args
        if isinstance(other, FieldMatrix):
            # the kernel skips zero left entries: one multiply per (nonzero a_it, column j)
            rec.work += sum(1 for e in self.entries if e) * other.cols

    def count_polymul(rec, args, result):
        a, b = args
        nb = len(b.terms) if isinstance(b, MultiPoly) else (1 if b else 0)
        rec.work += len(a.terms) * nb
        if len(result.terms) > rec.max_terms:
            rec.max_terms = len(result.terms)

    return [
        (MultiPoly, "__mul__", "poly.mul", count_polymul),
        (MultiPoly, "__add__", "poly.add", None),
        (MultiPoly, "divexact", "poly.divexact", None),
        (poly, "poly_gcd", "poly.gcd", None),
        (RatFunc, "__init__", "ratfunc.new", None),
        (RatFunc, "__add__", "ratfunc.add", None),
        (RatFunc, "__mul__", "ratfunc.mul", None),
        (RatFunc, "__truediv__", "ratfunc.div", None),
        (FieldMatrix, "__mul__", matmul_name, count_matmul),
        (FieldMatrix, "inv", lambda args: "matrix.inv." + entry_kind(args[0].entries), None),
        (FieldMatrix, "adjugate_det", "matrix.adjugate_det", None),
        (FieldMatrix, "partial_trace_first", "matrix.partial_trace", None),
        (baxter, "rhat_cleared", "baxter.rhat_cleared", None),
        (baxter, "build_R", "baxter.build_R", None),
        (baxter, "check_unitarity", "baxter.check_unitarity", None),
        (baxter, "H_closed", "baxter.H_closed", None),
        (baxter, "series_agreement_order", "baxter.series_agreement_order", None),
        (verify, "ybe_symbolic", "verify.ybe_symbolic", None),
        (verify, "ybe_random", "verify.ybe_random", None),
        (verify, "transfer_commute", "verify.transfer_commute", None),
        (verify, "lemma_suite_A", "verify.lemma_suite", None),
        (verify, "lemma_suite_B", "verify.lemma_suite", None),
        (reps, "builtin_rep", "reps.builtin_rep", None),
        (reps, "check_relations", "reps.check_relations", None),
        (ncalg, "relations_for", "ncalg.relations_for", None),
        (ncalg, "prop1_certificate", "ncalg.prop1_certificate", None),
        (cli, "run_job", "cli.run_job", None),
    ]


def _namespaces():
    """Every module dict and class dict of the loaded baxcheck package."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "baxcheck" or modname.startswith("baxcheck.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def install(tracer: Tracer) -> int:
    """Wrap every target at every binding; returns the number of bindings replaced.

    Raises RuntimeError when a target has no binding or one survives.
    """
    wrappers = {}
    for owner, attr, name, count in targets():
        original = vars(owner)[attr]
        wrappers[id(original)] = (original, tracer.wrap(original, name, count), f"{owner.__name__}.{attr}")
    hits = {key: 0 for key in wrappers}
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(ns, attr, entry[1])
                hits[id(value)] += 1
    missed = [label for key, (_, _, label) in wrappers.items() if not hits[key]]
    survivors = [
        f"{getattr(ns, '__name__', ns)}.{attr}"
        for ns in _namespaces()
        for attr, value in vars(ns).items()
        if id(value) in wrappers and wrappers[id(value)][0] is value
    ]
    if missed or survivors:
        raise RuntimeError(f"tracer missed bindings: unbound {missed}, unwrapped {survivors}")
    return sum(hits.values())

