"""The benchmark's tracer must find every layer that its metrics name.

A traced benchmark run reports null for a metric whose wrapped attribute
is gone from the package, so a rename in the package breaks the
benchmark's per-layer output; this catches it in the unit tests.
"""
import importlib.util
from pathlib import Path

import numpy as np

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


def test_traced_solve_matches_untraced(new_table):
    # the tracer's wrappers time calls and change no number: cold and warm
    # solves give the same profile traced and untraced, bit for bit
    tracing = _load_tracer()
    traced, plain = new_table(), new_table()
    xs = symmetric_grid(20.0, 1024)
    for corner in ((0.2, 0.03), (0.1, 0.1)):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            got = mild.solve_similarity_profile(mild.CornerData(*corner),
                                                table=traced, xs=xs)
        finally:
            tracer.restore()
        assert tracer.spans
        ref = mild.solve_similarity_profile(mild.CornerData(*corner),
                                            table=plain, xs=xs)
        for a, b in ((got.psi.ys, ref.psi.ys), (got.psi1, ref.psi1),
                     (got.psi2, ref.psi2)):
            assert np.array_equal(a, b)
        assert got.iterations == ref.iterations >= 5
