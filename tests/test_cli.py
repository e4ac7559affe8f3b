import json
import math
import os

import pytest

from waveortho import cli
from waveortho.errors import SingularSystemError, UsageError


# ---------------------------------------------------------------------------
# Configuration plumbing


def test_defaults_cover_all_scenarios():
    for name in ("sphere", "strip", "slit", "spheroid", "born", "kernel-profile", "riemann-decay"):
        cfg = cli.build_config(name)
        assert cfg["format"] == "csv"
        assert cfg["out"] == ""


def test_unknown_scenario():
    with pytest.raises(UsageError, match="unknown scenario"):
        cli.build_config("wedge")


def test_unknown_key_names_offender():
    with pytest.raises(UsageError, match="frobnicate"):
        cli.build_config("sphere", overrides={"frobnicate": "1"})


def test_override_precedence(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("ka = 7.5\nbc = hard  # trailing comment\n\n# full-line comment\n")
    cfg = cli.build_config("sphere", cli.parse_config_file(str(f)), {"ka": "3.25"})
    assert cfg["ka"] == 3.25  # command line wins
    assert cfg["bc"] == "hard"  # file beats default


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(UsageError, match="key = value"):
        cli.parse_config_file(str(bad))
    with pytest.raises(UsageError, match="cannot read"):
        cli.parse_config_file(str(tmp_path / "missing.cfg"))


def test_type_coercion_errors():
    with pytest.raises(UsageError, match="bad value"):
        cli.build_config("sphere", overrides={"ka": "five"})
    with pytest.raises(UsageError, match="bad value"):
        cli.build_config("strip", overrides={"with_bem": "perhaps"})
    cfg = cli.build_config("strip", overrides={"with_bem": "off", "angles": "61"})
    assert cfg["with_bem"] is False
    assert cfg["angles"] == 61


def test_deg_suffix_converts_to_radians():
    cfg = cli.build_config("strip", overrides={"incidence_deg": "30"})
    assert cfg["incidence"] == pytest.approx(math.radians(30.0))
    # dashed spelling on the command line maps to the same key
    cfg2 = cli.build_config("strip", overrides={"incidence-deg": "30"})
    assert cfg2["incidence"] == cfg["incidence"]


def test_argv_parsing():
    scen, cfgpath, over = cli._parse_argv(
        ["strip", "--kd", "12.0", "--config", "/tmp/x.cfg", "--bc", "soft"]
    )
    assert scen == "strip"
    assert cfgpath == "/tmp/x.cfg"
    assert over == {"kd": "12.0", "bc": "soft"}
    with pytest.raises(UsageError):
        cli._parse_argv(["strip", "kd", "12.0"])
    with pytest.raises(UsageError):
        cli._parse_argv(["strip", "--kd"])
    with pytest.raises(UsageError):
        cli._parse_argv([])


def test_solver_spec_parsing():
    assert cli._parse_solver("diagonal") == ("diagonal", 0)
    assert cli._parse_solver("iterate:25") == ("iterate", 25)
    with pytest.raises(UsageError):
        cli._parse_solver("iterate:zero")
    with pytest.raises(UsageError):
        cli._parse_solver("iterate:0")
    with pytest.raises(UsageError):
        cli._parse_solver("cholesky")


# ---------------------------------------------------------------------------
# Output files


def test_csv_format_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        rep = cli.run_scenario("kernel-profile", cli.build_config("kernel-profile", overrides={"out": out}))
        assert rep.passed
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "distance,abs_phi"
    assert len(lines) == 1 + rep.metrics["profile_points"]
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # no leftover temp files from the atomic write
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".waveortho-")]


def test_json_output_mirrors_columns(tmp_path):
    out = str(tmp_path / "prof.json")
    cli.run_scenario(
        "kernel-profile",
        cli.build_config("kernel-profile", overrides={"out": out, "format": "json"}),
    )
    payload = json.loads(open(out).read())
    assert set(payload) == {"distance", "abs_phi"}
    assert len(payload["distance"]) == len(payload["abs_phi"])
    assert payload["distance"][0] == 0.0


def test_far_field_csv_columns(tmp_path):
    out = str(tmp_path / "ff.csv")
    cfg = cli.build_config(
        "sphere", overrides={"ka": "2.0", "angles": "41", "out": out}
    )
    rep = cli.run_scenario("sphere", cfg)
    assert rep.passed
    lines = open(out).read().splitlines()
    assert lines[0] == "theta_rad,re_amp,im_amp,abs_amp"
    assert len(lines) == 42
    row = [float(x) for x in lines[1].split(",")]
    assert row[3] == pytest.approx(math.hypot(row[1], row[2]), rel=1e-15)


def test_report_json(tmp_path):
    rpt = str(tmp_path / "report.json")
    cfg = cli.build_config("riemann-decay", overrides={"report_out": rpt})
    rep = cli.run_scenario("riemann-decay", cfg)
    data = json.loads(open(rpt).read())
    assert data["scenario"] == "riemann-decay"
    assert data["checks"] and all(c["passed"] for c in data["checks"])
    assert data["metrics"]["offdiag_ka_10"] == pytest.approx(
        rep.metrics["offdiag_ka_10"]
    )


def test_history_emission(tmp_path):
    out = str(tmp_path / "hist.csv")
    cfg = cli.build_config(
        "sphere", overrides={"ka": "2.0", "angles": "11", "history_out": out}
    )
    cli.run_scenario("sphere", cfg)
    lines = open(out).read().splitlines()
    assert lines[0] == "step,residual"
    assert len(lines) == 52  # 50 steps plus the starting residual
    steps = [float(l.split(",")[0]) for l in lines[1:]]
    assert steps == list(range(51))


# ---------------------------------------------------------------------------
# Entry point behavior


def test_main_exit_codes(tmp_path):
    assert cli.main(["riemann-decay"]) == 0
    assert cli.main(["spheroid", "--quad_resolution", "32"]) == 1  # thresholds fail
    assert cli.main(["bogus"]) == 2
    assert cli.main(["sphere", "--nope", "1"]) == 2
    assert cli.main([]) == 2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sphere", "--ka", "nan"], "'ka'"),
        (["sphere", "--ka", "inf"], "'ka'"),
        (["strip", "--kd", "nan", "--with_bem", "false"], "'kd'"),
        (["born", "--h", "0"], "h must be positive"),
        (["sphere", "--lambda", "-1"], "lam must be >= 0"),
        (["kernel-profile", "--anchor", "999999"], "anchor index 999999"),
        (["sphere", "--angles", "0"], "angles must be >= 2"),
        (["sphere", "--angles", "1"], "angles must be >= 2"),
        (["strip", "--angles", "0", "--with_bem", "false"], "angles must be >= 2"),
        (["spheroid", "--angles", "0"], "angles must be >= 2"),
        (["born", "--h", "2"], "h = 2.0 and half_extent = 0.9 leave 1 grid node(s)"),
        (["born", "--half_extent", "0.05"], "2 grid node(s) per axis"),
        (["born", "--ring_points", "0"], "ring_points must be >= 1"),
    ],
)
def test_bad_numeric_input_exits_2_with_reason(argv, reason, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert reason in err


def test_main_prints_report(capsys):
    code = cli.main(["sphere", "--ka", "2.0", "--angles", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: sphere" in out
    assert "check far_field_matches_mie: PASS" in out


def test_console_script_registered():
    import importlib.metadata as md

    eps = md.entry_points(group="console_scripts")
    names = {e.name for e in eps}
    assert "waveortho" in names


# ---------------------------------------------------------------------------
# Scenario behaviors that are cheap enough for unit testing


def test_sphere_rejects_point_sources():
    cfg = cli.build_config("sphere", overrides={"basis": "point-sources"})
    with pytest.raises(UsageError):
        cli.run_scenario("sphere", cfg)


def test_slit_uses_complementary_condition():
    cfg = cli.build_config(
        "slit",
        overrides={"kd": str(4 * math.pi), "bc": "soft", "with_bem": "false"},
    )
    rep = cli.run_scenario("slit", cfg)
    assert any("hard strip" in w for w in rep.warnings)
    assert rep.scenario == "slit"


def test_strip_without_bem_is_fast_and_reports_kirchhoff():
    cfg = cli.build_config(
        "strip", overrides={"kd": str(4 * math.pi), "with_bem": "false"}
    )
    rep = cli.run_scenario("strip", cfg)
    assert rep.metrics["kirchhoff_corr"] >= 0.999
    assert "kirchhoff_factor_abs" in rep.metrics
    assert rep.residuals["galerkin"] is not None
    assert rep.wall_clock_s < 10.0
    assert rep.passed


def test_strip_limit_probe_fails_at_8pi_after_capped_steps():
    cfg = cli.build_config(
        "strip", overrides={"kd": str(8 * math.pi), "with_bem": "false"}
    )
    rep = cli.run_scenario("strip", cfg)
    lim = {c.name: c for c in rep.checks}["iterate_limit_matches_galerkin"]
    assert not lim.passed
    assert "after 2000000 steps" in lim.detail
    assert 0.0 < rep.metrics["iteration_contraction_margin"] < 1e-9


def test_sphere_quadrature_follows_explicit_basis_size():
    cfg = cli.build_config(
        "sphere", overrides={"ka": "20", "bc": "hard", "basis_size": "40"}
    )
    rep = cli.run_scenario("sphere", cfg)
    assert {c.name: c for c in rep.checks}["far_field_matches_mie"].passed
    assert rep.metrics["far_rel_l2_vs_mie"] <= 1e-8


def test_sphere_solver_selects_written_spectrum(tmp_path):
    def run(solver):
        out = str(tmp_path / f"{solver.replace(':', '-')}.csv")
        cfg = cli.build_config("sphere", overrides={"ka": "5", "solver": solver, "out": out})
        return cli.run_scenario("sphere", cfg), open(out, "rb").read()

    rep_d, diag = run("diagonal")
    rep_1, step1 = run("iterate:1")
    rep_g, gal = run("galerkin")
    assert step1 == diag  # one refinement step is the diagonal solve, bitwise
    assert gal != diag
    assert {c.name: c for c in rep_g.checks}["far_field_matches_mie"].passed
    assert [r.metrics["solver_used"] for r in (rep_d, rep_1, rep_g)] == [
        "diagonal", "iterate:1", "galerkin"
    ]


def test_selected_singular_galerkin_fails_solver_available(monkeypatch, capsys):
    def singular(sys, lam=0.0):
        raise SingularSystemError("Gram system is singular")

    monkeypatch.setattr(cli.mth, "solve_galerkin", singular)
    assert cli.main(["sphere", "--ka", "2", "--solver", "galerkin"]) == 1
    out = capsys.readouterr().out
    assert "check solver_available: FAIL (galerkin selected but unavailable" in out
    assert "metric solver_used = diagonal" in out
    assert cli.main(["sphere", "--ka", "2"]) == 0  # unselected, it stays a warning


def test_strip_incidence_domain():
    cfg = cli.build_config("strip", overrides={"incidence": "1.6", "with_bem": "false"})
    with pytest.raises(UsageError):
        cli.run_scenario("strip", cfg)
