"""The benchmark's tracer must find every layer that its metrics name.

A traced benchmark run reports null for a metric whose wrapped attribute
is gone from the package, so a rename in the package breaks the
benchmark's per-layer output; this catches it in the unit tests.
"""
import importlib.util
from pathlib import Path

from cornerflow import _backend, mild
from cornerflow.grid import symmetric_grid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    tracing = _load_tracer()
    wrapped = [(mild, "_rescaled_convolution"), (mild, "fftconvolve"),
               (mild, "duhamel_integral"), (_backend, "sym_eval"),
               (_backend, "cubic_eval")]
    before = [getattr(module, attr) for module, attr in wrapped]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.absent == set()
        assert all(getattr(module, attr) is not orig
                   for (module, attr), orig in zip(wrapped, before))
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is orig
               for (module, attr), orig in zip(wrapped, before))


def test_tracer_sees_every_node_of_a_planned_solve(new_table):
    # solves on one grid share their node plans; the nodes must still go
    # through the wrapped _rescaled_convolution, cold and warm alike
    tracing = _load_tracer()
    table, xs = new_table(), symmetric_grid(20.0, 1024)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for corner in ((0.2, 0.03), (0.1, 0.1)):
            first = len(tracer.spans)
            prof = mild.solve_similarity_profile(mild.CornerData(*corner),
                                                 table=table, xs=xs)
            nodes = [rec for rec in tracer.spans[first:]
                     if rec[0].startswith("mild.convolution.")]
            assert prof.iterations >= 5
            assert len(nodes) == prof.iterations * 64
    finally:
        tracer.restore()
