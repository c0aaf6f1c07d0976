"""Per-layer trace of the benchmark, measured from outside the package.

A traced run replaces module attributes of cornerflow with timing
wrappers. Each call records a span: its name, its parent span, start, end
and a count of the work it was handed. Self time is a span's time minus
the time of its child spans.
"""
import statistics
import time
from contextlib import contextmanager

import numpy as np

# (metric, unit, span, field). "s" is the inclusive time of the span,
# "calls" the number of spans, "count" the sum of their counts; each per
# measured operation. kernel.build_table_s is per table build instead.
# The benchmark's own "op" span wraps each operation; its count is the
# Picard iteration count of a solve and 0 elsewhere.
PER_LAYER = (
    ("mild.picard_iterations", "count", "op", "count"),
    ("mild.convolution.skew_s", "s", "mild.convolution.skew", "s"),
    ("mild.convolution.skew.calls", "count", "mild.convolution.skew", "calls"),
    ("mild.convolution.fft_s", "s", "mild.convolution.fft", "s"),
    ("mild.convolution.fft.calls", "count", "mild.convolution.fft", "calls"),
    ("mild.duhamel_integral_s", "s", "mild.duhamel_integral", "s"),
    ("backend.skew_sum_s", "s", "backend.skew_sum", "s"),
    ("backend.skew_sum.pairs", "count", "backend.skew_sum", "count"),
    ("backend.cubic_eval_s", "s", "backend.cubic_eval", "s"),
    ("backend.cubic_eval.points", "count", "backend.cubic_eval", "count"),
    ("backend.sym_eval_s", "s", "backend.sym_eval", "s"),
    ("backend.sym_eval.points", "count", "backend.sym_eval", "count"),
    ("backend.penta_march_u_s", "s", "backend.penta_march_u", "s"),
    ("fft.fftconvolve_s", "s", "fft.fftconvolve", "s"),
    ("fft.fftconvolve.points", "count", "fft.fftconvolve", "count"),
    ("kernel.build_table_s", "s", "kernel.build_table", "s"),
    ("kernel.corner_height_s", "s", "kernel.corner_height", "s"),
    ("oracle.steps", "count", "backend.penta_march_u", "count"),
    ("oracle.banded_solve_s", "s", "oracle.banded_solve", "s"),
    ("oracle.explicit_flux_s", "s", "oracle.explicit_flux", "s"),
)


class Tracer:
    """Spans recorded by `span` and by the wrappers `wrap` installs."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, count]
        self.absent = set()
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name, count=0):
        """Record one span; the yielded record's [4] is its count."""
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, count]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, count=None, names=None):
        """Time every call of module.attr as a span.

        `name` is a span name or a function of (args, kwargs) giving one of
        `names`; `count` maps (args, kwargs) to the work handed to the
        call. A missing attribute marks its span names absent.
        """
        if not hasattr(module, attr):
            self.absent.update(names or (name,))
            return
        orig = getattr(module, attr)

        def timed(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label, count(args, kwargs) if count else 0):
                return orig(*args, **kwargs)

        setattr(module, attr, timed)
        self._saved.append((module, attr, orig))

    def restore(self):
        """Put every wrapped attribute back."""
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def summary(self, first=0):
        """{name: {calls, s, self_s, count}} over the spans from `first` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out = {}
        for (name, _, t0, t1, count), inside in zip(spans, child):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "count": 0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - inside
            row["count"] += count
        return out

    def layer_metrics(self, first, n_ops):
        """The PER_LAYER metrics; None for a span whose attribute is gone."""
        ops = self.summary(first)
        builds = [t1 - t0 for name, _, t0, t1, _ in self.spans
                  if name == "kernel.build_table"]
        metrics = {}
        for metric, unit, span, field in PER_LAYER:
            if span in self.absent:
                value = None
            elif span == "kernel.build_table":
                value = statistics.median(builds) if builds else 0.0
            else:
                value = ops.get(span, {field: 0})[field] / n_ops
            metrics[metric] = {"value": value, "unit": unit}
        return metrics


def _arg(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


def _regime(args, kwargs):
    # the branch rule of mild._rescaled_convolution, from (mu, lam, xs)
    xs = _arg(args, kwargs, "xs", 2)
    mu, lam = _arg(args, kwargs, "mu", 3), _arg(args, kwargs, "lam", 4)
    thr = 3.0 * (xs[-1] - xs[0]) / (xs.size - 1)
    if mu >= thr and lam >= thr:
        return "mild.convolution.fft"
    return "mild.convolution.skew" if mu < thr else "mild.convolution.kernel"


def install(tracer):
    """Wrap the layers of cornerflow that the per-layer metrics name."""
    from cornerflow import _backend, _slowpath, kernel, mild
    tracer.wrap(mild, "_rescaled_convolution", _regime,
                names=("mild.convolution.fft", "mild.convolution.skew",
                       "mild.convolution.kernel"))
    tracer.wrap(mild, "duhamel_integral", "mild.duhamel_integral")
    tracer.wrap(mild, "fftconvolve", "fft.fftconvolve",
                lambda a, k: (np.size(_arg(a, k, "in1", 0))
                              + np.size(_arg(a, k, "in2", 1)) - 1))
    tracer.wrap(_backend, "skew_sum", "backend.skew_sum",
                lambda a, k: (np.size(_arg(a, k, "a", 3))
                              * np.size(_arg(a, k, "z", 5))))
    tracer.wrap(_backend, "cubic_eval", "backend.cubic_eval",
                lambda a, k: np.size(_arg(a, k, "q", 3)))
    tracer.wrap(_backend, "sym_eval", "backend.sym_eval",
                lambda a, k: np.size(_arg(a, k, "q", 3)))
    tracer.wrap(_backend, "penta_march_u", "backend.penta_march_u",
                lambda a, k: int(_arg(a, k, "nsteps", 1)))
    tracer.wrap(kernel, "build_kernel_table", "kernel.build_table")
    tracer.wrap(kernel, "corner_height", "kernel.corner_height")
    if hasattr(mild, "corner_height"):
        # mild binds its own name for it at import
        tracer.wrap(mild, "corner_height", "kernel.corner_height")
    tracer.wrap(_slowpath, "solve_banded", "oracle.banded_solve")
    tracer.wrap(_slowpath, "_explicit_u", "oracle.explicit_flux")
