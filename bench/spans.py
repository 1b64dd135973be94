"""Span tracing around the public functions of each setmeans module.

`Tracer.install()` replaces every binding of each target function object with
a wrapper that records a span: the module attribute that defines it and any
global of a loaded `setmeans.*` module that is the same object (`from .measure
import neighborhood` copies the reference into `means`; function-local
imports read the module attribute at call time).  `lru_cache` objects stay
behind the wrapper, so caching behaves as without tracing.

Spans are aggregated per (function, parent) as they close: calls, total time
and self time (total minus the time of child spans).  Nothing in `src/` is
changed; the spans sit at the boundaries where one layer calls another.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); `ValueStream.pull` is patched on the class.
TARGETS = [
    ("setmeans.means", "mean_lis", "means.mean_lis"),
    ("setmeans.means", "mean_ideal", "means.mean_ideal"),
    ("setmeans.means", "mean_ideal_chain", "means.mean_ideal_chain"),
    ("setmeans.means", "mean_acc", "means.mean_acc"),
    ("setmeans.means", "mean_iso", "means.mean_iso"),
    ("setmeans.means", "mean_iso_oscillating", "means.mean_iso_oscillating"),
    ("setmeans.means", "lavg", "means.lavg"),
    ("setmeans.means", "mean_eds", "means.mean_eds"),
    ("setmeans.means", "run_schedule", "means.schedule"),
    ("setmeans.means", "eds_cells", "means.eds_cells"),
    ("setmeans.measure", "neighborhood", "measure.neighborhood"),
    ("setmeans.measure", "cantor_neighborhood_stats", "measure.cantor_neighborhood_stats"),
    ("setmeans.measure", "avg_set", "measure.avg_set"),
    ("setmeans.measure", "ms_hf", "measure.ms_hf"),
    ("setmeans.topology", "isolated_stats", "topology.isolated_stats"),
    ("setmeans.topology", "acc_structure", "topology.acc_structure"),
    ("setmeans.topology", "acc_chain", "topology.acc_chain"),
    ("setmeans.topology", "ideal_limits", "topology.ideal_limits"),
    ("setmeans.topology", "derived_set", "topology.derived_set"),
    ("setmeans.topology", "closure", "topology.closure"),
    ("setmeans.topology", "split_at", "topology.split_at"),
    ("setmeans.terms", "tf_value_parts", "terms.tf_value_parts"),
    ("setmeans.terms", "tf_resolution_index", "terms.tf_resolution_index"),
    ("setmeans.terms", "tf_monotone_index", "terms.tf_monotone_index"),
    ("setmeans.terms", "cmp_pow_frac", "terms.cmp_pow_frac"),
    ("setmeans.parser", "parse", "parser.parse"),
    ("setmeans.setexpr", "normalize_affine", "setexpr.normalize_affine"),
    ("setmeans.setexpr", "render", "setexpr.render"),
    ("setmeans.meansets", "ms_a", "meansets"),
    ("setmeans.meansets", "ms_ces", "meansets"),
    ("setmeans.meansets", "ms_as", "meansets"),
    ("setmeans.meansets", "ms_axs", "meansets"),
    ("setmeans.core", "iu_normalize", "core.iu_normalize"),
    ("setmeans.cesaro", "enumerate_with_mean", "cesaro.enumerate_with_mean"),
    ("setmeans.cesaro", "enumerate_divergent", "cesaro.enumerate_divergent"),
    ("setmeans.cesaro", "merge_weighted", "cesaro.merge_weighted"),
    ("setmeans.cesaro", "stream_from_seq", "cesaro.stream_from_seq"),
    ("setmeans.cesaro", "ValueStream.pull", "cesaro.pull"),
    ("setmeans.cli", "main", "cli.main"),
]


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.stats: dict[tuple[str, str | None], list] = {}  # calls, total, self
        self.counts: dict[str, int] = {}
        self.active = True
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, key, old, new

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, fn, on_result=None, on_error=None):
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                rec = stats.get(key)
                if rec is None:
                    stats[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- per-function wrappers with counters --------------------------------

    def _wrapper_for(self, name, fn):
        from setmeans.errors import BudgetExceeded

        if name == "means.schedule":
            return self._schedule_wrapper(fn, BudgetExceeded)
        if name == "measure.neighborhood":
            def on_error(exc):
                if isinstance(exc, BudgetExceeded):
                    self.count("measure.neighborhood.budget_raises")
            return self.wrap(
                name, fn, lambda u: self.count("measure.neighborhood.parts", len(u.parts)), on_error
            )
        if name == "means.eds_cells":
            return self.wrap(name, fn, lambda c: self.count("means.eds_cells.ranges", len(c.ranges)))
        if name == "topology.isolated_stats":
            return self.wrap(
                name, fn, lambda r: self.count("topology.isolated_stats.survivors", r[0])
            )
        return self.wrap(name, fn)

    def _schedule_wrapper(self, run_schedule, budget_error):
        def on_step(got):
            self.count("means.schedule.steps")
            if got is None:
                self.count("means.schedule.skipped_steps")

        def on_step_error(exc):
            self.count("means.schedule.steps")
            if isinstance(exc, budget_error):
                self.count("means.schedule.budget_stops")

        def traced_run_schedule(evaluate, sched):
            step = self.wrap("means.schedule.step", evaluate, on_step, on_step_error)
            return run_schedule(step, sched)

        return self.wrap("means.schedule", traced_run_schedule)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; import what is not loaded yet."""
        import importlib

        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(mod_name)
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "setmeans" and m]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, self._wrapper_for(name, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr)
            if any(orig is new for _, _, _, new in self._bindings):
                continue  # an alias of a function wrapped already
            wrapper = self._wrapper_for(name, orig)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, wrapper)

    def _rebind(self, owner, key, value) -> None:
        self._bindings.append((owner, key, vars(owner)[key], value))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._bindings):
            setattr(owner, key, orig)
        self._bindings.clear()

    # -- results ------------------------------------------------------------

    def self_total(self) -> float:
        return sum(rec[2] for rec in self.stats.values())

    def dump(self, caches_before: dict, caches_after: dict) -> dict:
        """The traced pass as plain data, so a child process can hand it back."""
        return {
            "stats": [[n, p, *rec] for (n, p), rec in self.stats.items()],
            "counts": self.counts,
            "hits": {k: caches_after[k][0] - caches_before[k][0] for k in caches_before},
            "misses": {k: caches_after[k][1] - caches_before[k][1] for k in caches_before},
            "pow_size": caches_after["pow"][3],
        }


def cache_info(sm) -> dict:
    """hits, misses, maxsize, currsize of the unbounded `terms` caches."""
    return {
        "monotone": list(sm.terms.tf_monotone_index.cache_info()),
        "pow": list(sm.terms._pow_cached.cache_info()),
    }
