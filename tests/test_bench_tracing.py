"""The benchmark's tracer (bench/tracing.py) finds every function it wraps by name."""

import importlib.util
import os

import numpy as np

import waveortho
import waveortho.cli  # noqa: F401  (the tracer wraps cli.run_scenario)
from waveortho import method as mth
from waveortho import oracles as orc

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracing = _tracing_module()
    wrapped = [(getattr(waveortho, m), a) for m, a, _ in tracing.WRAPPED]
    wrapped += [(orc, "sp"), (waveortho.born, "sp")]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    lu_factor = orc.lu_factor
    tracer = tracing.Tracer()
    tracer.install(waveortho)
    try:
        assert orc.lu_factor is not lu_factor
        n, k = 64, 4.0
        u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
        orc.bem_dense_solve(orc.bem_ellipse(1.0, 0.6, n), mth.BoundaryCondition.HARD, k, u0)
        # the four block LUs together have the order of the full system
        assert tracer.counts["oracles.lu.order"] == n
        assert tracer.counts["kernel.bessel_evals"] == 4 * (n // 4 + 1) * n
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped] == originals


def test_traced_sphere_run_nests_traces_in_gram_assembly():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install(waveortho)
    try:
        first = tracer.begin_pass()
        report = waveortho.cli.run_scenario("sphere", waveortho.cli.build_config("sphere"))
        metrics = tracer.pass_metrics(first)
    finally:
        tracer.uninstall()
    assert report.passed
    spans = tracer.spans[first:]
    traces = [parent for name, _, _, parent, _ in spans if name == "method.eval_basis_trace"]
    assert traces
    assert all(tracer.spans[parent][0] == "method.assemble_gram" for parent in traces)
    assert metrics["method.assemble_gram.calls"] == len(traces)
    # the 50-step residual history and the 1-step bitwise check
    assert metrics["method.refine_iterate.steps"] == 51
