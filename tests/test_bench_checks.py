"""The benchmark's output checks (bench/checks.py) read the reports the program writes."""

import importlib.util
import os
import sys

from waveortho import cli

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module


def _check_operation(op, tmp_path):
    """The scenario's report, and bench/checks.py's (expected, unexpected) reasons for it."""
    table, report = str(tmp_path / "out.csv"), str(tmp_path / "report.json")
    cfg = cli.build_config(op.scenario, overrides={**op.overrides, "out": table,
                                                   "report_out": report})
    rep = cli.run_scenario(op.scenario, cfg)
    return rep, _bench_module("checks").check_operation(op, cfg, table, report, {})


def test_passing_sphere_run_gives_no_reasons(tmp_path):
    op = _bench_module("workloads").Op("sphere-ka5-soft", "sphere", {"ka": "5"}, "sphere")
    rep, (expected, unexpected) = _check_operation(op, tmp_path)
    assert rep.passed
    assert (expected, unexpected) == ([], [])


def test_failed_spheroid_checks_give_their_names_and_details(tmp_path):
    op = _bench_module("workloads").Op("spheroid", "spheroid", check="")
    rep, (expected, unexpected) = _check_operation(op, tmp_path)
    assert expected == []
    assert unexpected == [
        "scenario check diagonal_residual_small failed: 0.7004 > 0.2",
        "scenario check galerkin_residual_small failed: 0.471 > 0.2",
    ]
    assert unexpected == [f"scenario check {c.name} failed: {c.detail}"
                          for c in rep.checks if not c.passed]
