"""Per-layer tracing from outside the program.

The tracer wraps each traced tmflevels function and rebinds the wrapper in
every tmflevels module namespace that holds the function: ``factorize`` is
bound in levels, duality and equivariant, and ``curve_invariants`` in levels,
cohomology, duality and cli.  Rebinding only the defining module would miss
the calls made through the other names.

Each call is a span with name, start, end, parent span and request id; the
outermost span of a request is ``cli.main``.  A span's self time is its
duration minus the durations of its child spans, minus the wrapper's own
bookkeeping for each child, which runs outside the child's span but inside
the caller's.  That bookkeeping cost is calibrated when the tracer is made
(``Tracer.calibrate``); ``total_s`` likewise leaves out the bookkeeping of
every call nested in the span.  Spans are kept in memory, with their raw
times (the first ``SPAN_CAP`` in full, the rest only in the per-name
totals), and written out when the run ends.  A function that does not
exist is reported as absent.

A function under ``functools.lru_cache`` (``factorize``, ``weight_basis``) is
not wrapped per call: the tracer builds a new cache of the same kind around
the wrapped body and rebinds that.  A cache hit then costs what it costs
untraced, a C lookup with no Python frame, and counts in the caller's self
time; only misses, which do the work, become spans.  Its ``calls``,
``cache_hits`` and ``cache_size`` come from the new cache's ``cache_info()``,
which sees every call made after the tracer is installed.  Wrapping every
hit instead would put 1-2 microseconds of bookkeeping per call into the
caller's self time, millions of times per run on level-scan.
"""

from __future__ import annotations

import array
import functools
import json
import statistics
import sys
import time

# (module, function) pairs traced, each reported as <module>.<function>.<stat>.
TRACED = (
    ("cli", "main"),
    ("hfpss", "compute_einfty"),
    ("hfpss", "_page_by_page"),
    ("hfpss", "_closed_form"),
    ("hfpss", "weight_basis"),
    ("hfpss", "chart_to_dict"),
    ("hfpss", "render_ascii"),
    ("equivariant", "components"),
    ("equivariant", "subgroups"),
    ("equivariant", "quotient_invariant_factors"),
    ("equivariant", "cyclic_full_split"),
    ("duality", "duality_scan"),
    ("duality", "verdict"),
    ("levels", "factorize"),
    ("levels", "curve_invariants"),
    ("charts", "dss_chart"),
    ("charts", "render"),
    ("cohomology", "rank_table"),
    ("cohomology", "hilbert_series"),
    ("splitting", "shift_polynomial"),
)
# Work counters computed from a call's arguments and result.
CALL_COUNTERS = {
    "equivariant.subgroups": ("subgroups", lambda args, result: len(result)),
    "duality.duality_scan": ("levels", lambda args, result: args[0]),
    "charts.render": ("bytes", lambda args, result: len(result)),
    # The body of a cached function runs on misses only.
    "hfpss.weight_basis": ("monomials", lambda args, result: len(result)),
}
# Reported cache statistics, zero where the function has no lru_cache.
CACHE_STATS = ("levels.factorize", "hfpss.weight_basis")
PACKAGE = "tmflevels"
SPAN_CAP = 200_000
CALIBRATION_BATCHES, CALIBRATION_CALLS = 15, 2000
NS = 1e-9


class Tracer:
    def __init__(self, bias_ns: float | None = None):
        self.names: list[str] = []
        self.spans = array.array("q")  # flat [name id, start ns, end ns, parent, request] * n
        self.dropped = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters = {f"{name}.{counter[0]}": 0 for name, counter in CALL_COUNTERS.items()}
        self.absent: list[str] = []
        self.request = 0
        # Wrapper time per call that falls outside the child's span, inside
        # its caller's; see calibrate().
        self.bias_ns = self.calibrate() if bias_ns is None else bias_ns
        self._stack: list[list[int]] = []  # [span index or -1, child ns, overhead ns]
        self._caches: dict[str, object] = {}  # name -> the lru_cache put in place

    @staticmethod
    def calibrate() -> float:
        """The bookkeeping time a traced call adds to its caller beyond the
        span it records: the median over batches of (loop time with the
        wrapped no-op - loop time with nothing - recorded span time) / calls.
        Each call subtracts it from the caller's self time, so that the
        wrapper's cost is not counted as program time."""
        probe = Tracer(bias_ns=0)
        noop = probe._wrap(lambda: None, "noop")
        clock, per_call = time.perf_counter_ns, []
        for _ in range(CALIBRATION_BATCHES):
            frame = [-1, 0, 0]
            probe._stack[:] = [frame]
            del probe.spans[:]
            t0 = clock()
            for _ in range(CALIBRATION_CALLS):
                pass
            t1 = clock()
            for _ in range(CALIBRATION_CALLS):
                noop()
            t2 = clock()
            per_call.append((t2 - t1 - (t1 - t0) - frame[1]) / CALIBRATION_CALLS)
        return max(0.0, statistics.median(per_call))

    def install(self):
        """Wrap every traced function of the imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module, func in TRACED:
            name = f"{module}.{func}"
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if fn is None:
                self.absent.append(name)
                continue
            if hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
                params = fn.cache_parameters()
                wrapper = functools.lru_cache(**params)(self._wrap(fn.__wrapped__, name))
                self._caches[name] = wrapper
            else:
                wrapper = self._wrap(fn, name)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    setattr(m, attr, wrapper)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0])
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        bias = round(self.bias_ns)
        cap = 5 * SPAN_CAP
        counter = CALL_COUNTERS.get(name)
        counter_key = counter and f"{name}.{counter[0]}"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                tracer.request += 1
            at = len(spans)
            if at < cap:
                spans.extend((name_id, 0, 0, parent[0] if parent else -1, tracer.request))
                frame = [at // 5, 0, 0]
            else:
                at = -1
                frame = [-1, 0, 0]
                tracer.dropped += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[2]
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur + bias
                    parent[2] += frame[2] + bias
                if at >= 0:
                    spans[at + 1] = start
                    spans[at + 2] = end
            if counter:
                tracer.counters[counter_key] += counter[1](args, result)
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer figure as name -> (value, unit); absent layers read 0.
        A cached function's times cover its misses, its calls every call."""
        out: dict[str, tuple[float, str]] = {}
        for module, func in TRACED:
            name = f"{module}.{func}"
            calls, total, self_ns = self.stats.get(name, (0, 0, 0))
            if name in self._caches:
                info = self._caches[name].cache_info()
                calls = info.hits + info.misses
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total * NS, "s")
            out[f"{name}.self_s"] = (self_ns * NS, "s")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        for name in CACHE_STATS:
            info = self._caches[name].cache_info() if name in self._caches else None
            out[f"{name}.cache_hits"] = (info.hits if info else 0, "count")
            out[f"{name}.cache_size"] = (info.currsize if info else 0, "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                "names": self.names,
                "spans": [self.spans[i:i + 5].tolist() for i in range(0, len(self.spans), 5)],
                "dropped": self.dropped,
                "absent": self.absent,
            }, fh, separators=(",", ":"))
