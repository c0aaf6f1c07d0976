"""The benchmark's tracer must find every layer that its metrics name.

A traced benchmark run reports null for a metric whose wrapped attribute
is gone from the package, so a rename in the package breaks the
benchmark's per-layer output; this catches it in the unit tests.
"""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_traced_reconstruction_matches_untraced(new_table):
    # a reconstruction takes each node on its source grid through the
    # wrapped mild._rescaled_convolution, where the tracer reads its
    # arguments, and the other nodes in blocks, each block's kernel
    # sampled in one sym_eval: every node shows once, and U is
    # bit-identical to an untraced one
    tracing = _load_tracer()
    table = new_table()
    profile = mild.solve_similarity_profile(
        mild.CornerData(0.2, 0.03), table=table,
        xs=symmetric_grid(20.0, 1024))
    xs = profile.psi.xs
    for t in (1e-2, 1e3):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.wrap(mild, "_kernel_spectra", "block",
                    lambda args, kwargs: len(args[0]))
        try:
            got = mild.reconstruct_U(profile, t, table)
        finally:
            tracer.restore()
        ref = mild.reconstruct_U(profile, t, table)
        assert np.array_equal(got.U.ys, ref.U.ys)
        on_grid = sum(mild._on_source_grid(xs, xs, mu, lam) for mu, lam, _
                      in zip(*mild._duhamel_nodes(t, 1)))
        assert (on_grid > 0) == (t > 1.0)
        spans = tracer.summary()
        assert sum(row["calls"] for name, row in spans.items()
                   if name.startswith("mild.convolution.")) == on_grid
        assert spans["block"]["count"] == 64 - on_grid
        blocks = [i for i, (name, *_) in enumerate(tracer.spans)
                  if name == "block"]
        assert [sum(1 for name, parent, *_ in tracer.spans
                    if parent == i and name == "backend.sym_eval")
                for i in blocks] == [1] * len(blocks)


@pytest.mark.parametrize("workload", ("solve", "reconstruct-early",
                                      "reconstruct-late"))
def test_traced_solve_run_reports_every_metric(tmp_path, workload):
    # the benchmark run end to end, traced and untraced, on a copy of
    # bench/*.py and src/ so that its results file lands outside the
    # repository: it must exit 0 and end with one JSON line in which every
    # metric is a number, no operation failed and every check of the
    # outputs passed. The early reconstructions take every node through
    # the blocks, the late ones most nodes through the source-grid path
    root = TRACER.parents[1]
    (tmp_path / "bench").mkdir()
    for path in (root / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))

    def no_constant(name):
        raise ValueError(f"{name} in the result line")

    for trace in ("1", "0"):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seconds", "0", "--trace", trace], cwd=tmp_path,
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1],
                            parse_constant=no_constant)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert result["failed"] == 0 and result["correct"] is True
        assert values
        assert all(type(v) in (int, float) for v in values.values()), values
