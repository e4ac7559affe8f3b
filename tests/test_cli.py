import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveortho import cli, specfun
from waveortho import geometry as geo
from waveortho import oracles as orc
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


_ALL_KEYS = sorted({k for d in cli.DEFAULTS.values() for k in d})
_KEYS = st.one_of(
    st.sampled_from(_ALL_KEYS),
    st.sampled_from(_ALL_KEYS).map(lambda k: k + "_deg"),
    st.text(max_size=12),
)
_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**12), 10**12).map(str),
    st.floats().map(repr),
    st.sampled_from(["iterate:", "iterate:0", "iterate:-3", "true", "json", "1,2,x"]),
)


@settings(max_examples=300, deadline=None)
@given(
    scenario=st.sampled_from(sorted(cli.DEFAULTS)),
    file_entries=st.dictionaries(_KEYS, _VALUES, max_size=3),
    overrides=st.dictionaries(_KEYS, _VALUES, max_size=3),
)
def test_build_config_rejects_any_input_with_usage_error_only(
    scenario, file_entries, overrides
):
    try:
        cfg = cli.build_config(scenario, file_entries, overrides)
    except UsageError:
        return
    for key in overrides:
        if key.replace("-", "_").endswith("_deg"):
            assert key.replace("-", "_")[: -len("_deg")] == "incidence"
            assert key not in cfg


# values around each rule's edge, and some that do not parse
_RULE_VALUES = st.one_of(
    st.integers(-3, 10).map(str),
    st.floats(-4.0, 4.0).map(repr),
    st.sampled_from(["csv", "json", "xml", "plane-waves", "spherical-modes", "nan", "x"]),
)


@settings(max_examples=300, deadline=None)
@given(
    scenario=st.sampled_from(sorted(cli.DEFAULTS)),
    overrides=st.dictionaries(st.sampled_from(sorted(cli.RULES)), _RULE_VALUES, max_size=4),
)
def test_accepted_config_satisfies_every_rule(scenario, overrides):
    overrides = {k: v for k, v in overrides.items() if k in cli.DEFAULTS[scenario]}
    try:
        cfg = cli.build_config(scenario, overrides=overrides)
    except UsageError as e:
        # a refusal names the key it refuses (as "<key> <reason>" or "'<key>'")
        assert any(str(e).startswith(f"{key} ") or f"'{key}'" in str(e) for key in overrides)
        return
    for key, value in cfg.items():
        if key in cli.RULES:
            assert cli.RULES[key][0](value), (key, value)


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
        (["sphere", "--lambda", "-1"], "unknown config key 'lambda'"),
        (["kernel-profile", "--anchor", "999999"], "anchor index 999999"),
        (["sphere", "--angles", "0"], "angles must be >= 2"),
        (["sphere", "--angles", "1"], "angles must be >= 2"),
        (["strip", "--angles", "0", "--with_bem", "false"], "angles must be >= 2"),
        (["spheroid", "--angles", "0"], "angles must be >= 2"),
        (["born", "--h", "2"], "h = 2.0 and half_extent = 0.9 leave 1 grid node(s)"),
        (["born", "--half_extent", "0.05"], "2 grid node(s) per axis"),
        (["born", "--ring_points", "0"], "ring_points must be >= 1"),
        (["born", "--ls_mode", "auto"], "unknown config key 'ls_mode'"),
        (["born", "--format", "bogus"], "format must be csv or json"),
        (["riemann-decay", "--format", "bogus"], "format must be csv or json"),
        (["strip", "--format", "bogus", "--out", "x.csv"], "format must be csv or json"),
        # a BEM node count below 8, given or automatic, is bad input, not a failed check
        (["strip", "--bem_nodes", "3"], "bem_nodes must be 0 (automatic) or >= 8"),
        (["strip", "--kd", "0.05"], "n_nodes must be an even integer >= 8"),
        # check bounds are constants, not keys
        (["strip", "--kirchhoff_corr_min", "0"], "unknown config key 'kirchhoff_corr_min'"),
        (["slit", "--null_step_tol", "100"], "unknown config key 'null_step_tol'"),
        (["strip", "--basis", "plane-waves"], "unknown config key 'basis'"),
        (["spheroid", "--residual_max", "1"], "unknown config key 'residual_max'"),
        (["spheroid", "--ratio_max", "100"], "unknown config key 'ratio_max'"),
        (["born", "--first_tol", "1"], "unknown config key 'first_tol'"),
        (["riemann-decay", "--decay_ratio_min", "0"], "unknown config key 'decay_ratio_min'"),
        # list keys name themselves and their rule
        (["riemann-decay", "--ka_list", "10,inf"], "'inf' in config key 'ka_list'"),
        (["riemann-decay", "--ka_list", "10,1e400"], "'1e400' in config key 'ka_list'"),
        (["riemann-decay", "--ka_list", "10,abc"], "'abc' in config key 'ka_list'"),
        (["riemann-decay", "--ka_list", "10,-5"], "ka must be finite and positive"),
        (["sphere", "--basis", "plane-waves", "--pw_polar_list", "4,x"],
         "'x' in config key 'pw_polar_list': polar counts are integers >= 1"),
        (["sphere", "--basis", "plane-waves", "--pw_polar_list", "0,4"],
         "'0' in config key 'pw_polar_list'"),
        (["sphere", "--basis", "plane-waves", "--pw_polar_list", "-2,4"],
         "'-2' in config key 'pw_polar_list'"),
        (["born", "--ring_radius", "-1"], "ring_radius must be >= 0"),
        # 2 angles leave no direction with |theta| < pi/2 to compare with the BEM
        (["strip", "--kd", "12.566370614359172", "--angles", "2"],
         "angles must be >= 3 when with_bem is on"),
        (["slit", "--kd", "12.566370614359172", "--angles", "2"],
         "angles must be >= 3 when with_bem is on"),
        # only the angle key incidence has a _deg spelling
        (["sphere", "--ka_deg", "180"], "unknown config key 'ka_deg'"),
        (["born", "--h_deg", "3"], "unknown config key 'h_deg'"),
        # a first null under 2 grid steps from the incidence leaves the BEM
        # null and lobe checks nothing to compare
        (["strip", "--kd", "12.566370614359172", "--angles", "3"], "angles must be >= 25"),
        (["slit", "--kd", "12.566370614359172", "--angles", "3"], "angles must be >= 25"),
        (["strip", "--kd", "50.26548245743669", "--angles", "31"], "angles must be >= 102"),
        # the automatic order ceil(ka) + 8 is itself above the cap
        (["kernel-profile", "--ka", "200"],
         "ceil(ka) + 8 = 208 at ka = 200.0 is above the supported cap 200"),
        (["spheroid", "--n_sources", "0"], "n_sources must be >= 1"),
        (["spheroid", "--c_over_a", "1"], "c_over_a must exceed 1"),
        # no key switches off the 8 pi strip's failing Galerkin-limit probe
        (["strip", "--kd", "25.132741228718345", "--with_bem", "false", "--lambda", "1e-12"],
         "unknown config key 'lambda'"),
        # the sphere's far-field bound is a constant: no key passes a mode
        # order that misses it
        (["sphere", "--ka", "12", "--bc", "hard", "--basis_size", "10", "--far_tol", "1"],
         "unknown config key 'far_tol'"),
        # each of these was refused by a library guard that did not name the key
        (["kernel-profile", "--ka", "-3"], "ka must be positive"),
        (["spheroid", "--ka", "0"], "ka must be positive"),
        (["born", "--k", "0"], "k must be positive"),
        (["strip", "--basis_size", "-2"], "basis_size must be >= 0"),
        (["sphere", "--basis_size", "-3"], "basis_size must be >= 0"),
        (["sphere", "--quad_resolution", "-1"], "quad_resolution must be 0 (automatic) or >= 4"),
        (["kernel-profile", "--anchor", "-1"], "anchor must be >= 0"),
        (["strip", "--bem_nodes", "7", "--kd", "12.566370614359172"],
         "bem_nodes must be 0 (automatic) or >= 8"),
        # a zero disturbance leaves the second-order checks nothing to compare
        (["born", "--amplitude", "0"], "amplitude must not be 0"),
        (["riemann-decay", "--separation", "2"], "separation must lie in (0, 2)"),
        # an odd count is not rounded up to the next even one
        (["strip", "--kd", "12.566370614359172", "--bem_nodes", "961"],
         "bem_nodes must be 0 (automatic) or >= 8 and even"),
        # integers numpy cannot index are refused before any array is built
        (["sphere", "--ka", "2", "--angles", "100000000000000000000"],
         "angles = 100000000000000000000 is above 9223372036854775807"),
        (["strip", "--kd", "12.566370614359172", "--with_bem", "false",
          "--basis_size", "100000000000000000000"],
         "basis_size = 100000000000000000000 is above 9223372036854775807"),
    ],
)
def test_bad_numeric_input_exits_2_with_reason(argv, reason, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert reason in err
    if argv[0] == "kernel-profile":  # which has no far_tol key
        assert "far_tol" not in err


def test_program_fault_exits_3_with_traceback(monkeypatch, capsys):
    def broken(cfg, report):
        raise ValueError("a fault of the program, not of the input")

    monkeypatch.setitem(cli._RUNNERS, "sphere", broken)
    assert cli.main(["sphere"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "ValueError: a fault of the program, not of the input" in err
    assert "usage error:" not in err


def test_unwritable_output_exits_2_with_reason(tmp_path, capsys):
    # the output path names an existing directory, which a file cannot replace
    assert cli.main(["kernel-profile", "--ka", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {tmp_path}: ")
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".waveortho-")]


def test_sphere_refuses_bad_pw_polar_list_at_default_basis(capsys):
    # the key is parsed whatever the basis, so a bad value is never accepted silently
    assert cli.main(["sphere", "--ka", "2", "--angles", "11", "--pw_polar_list", "x,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "'x' in config key 'pw_polar_list'" in err


def test_out_of_memory_exits_2_with_reason(monkeypatch, capsys):
    def exhausted(cfg, report):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setitem(cli._RUNNERS, "sphere", exhausted)
    assert cli.main(["sphere", "--quad_resolution", "100000"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "usage error: not enough memory for this configuration: Unable to allocate 74.5 GiB\n"
    )


def test_oversized_quadrature_degree_exits_2_before_allocating(monkeypatch, capsys):
    real = np.polynomial.legendre.leggauss

    def sentinel(n):
        if n > 10_000:
            pytest.fail(f"leggauss asked for degree {n}")
        return real(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", sentinel)
    assert cli.main(["riemann-decay", "--ka_list", "10,1e9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: not enough memory for this configuration: ")
    assert f"degree 1000000024 needs a {8 * (10**9 + 24) ** 2}-byte companion matrix" in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["sphere", "--ka", "2", "--angles", "4611686018427387904"], "angles"),
        (["strip", "--kd", "12.566370614359172", "--with_bem", "false",
          "--basis_size", "4611686018427387904"], "basis_size"),
        (["sphere", "--ka", "2", "--angles", "9223372036854775806"], "angles"),
        (["strip", "--kd", "12.566370614359172", "--with_bem", "false",
          "--basis_size", "9223372036854775807"], "basis_size"),
    ],
)
def test_count_beyond_physical_memory_exits_2_naming_the_key(argv, key, monkeypatch, capsys):
    def unreachable(*args):
        pytest.fail("the scenario ran")

    monkeypatch.setitem(cli._RUNNERS, argv[0], unreachable)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {key} must be ")
    assert err.endswith("and an array of that many 16-byte entries must fit in physical memory\n")


def test_oversized_bem_node_count_exits_2_before_assembling(monkeypatch, capsys):
    def unreachable(*args):
        pytest.fail("the BEM matrix was assembled")

    monkeypatch.setattr(geo, "physical_memory", lambda: 1 << 30)
    # every way into the BEM assembly
    for name in ("_folded_blocks", "_bem_rows", "_hard_rows", "_soft_block", "_double_layer",
                 "_nystrom_base", "_nystrom"):
        monkeypatch.setattr(orc, name, unreachable)
    assert cli.main(["strip", "--kd", "12.566370614359172", "--bem_nodes", "20000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: not enough memory for this configuration: ")
    assert f"at 20000 nodes needs about {48 * 5001 * 20000} bytes" in err


def test_main_prints_report(capsys):
    code = cli.main(["sphere", "--ka", "2.0", "--angles", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: sphere" in out
    assert "check far_field_matches_mie: PASS" in out


def test_readme_keys_match_defaults():
    """Each scenario's Keys paragraph names exactly its non-common config keys."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("### Keys", 1)[1].split("\n### ", 1)[0]
    documented = {}
    for para in section.split("\n\n"):
        head = re.match(r"((?:`[\w-]+`(?: / )?)+):", para)
        if head:
            keys = set(re.findall(r"`(\w+)`", para[head.end():]))
            for name in re.findall(r"`([\w-]+)`", head.group(1)):
                documented[name] = keys
    assert set(documented) == set(cli.DEFAULTS)
    for name, defaults in cli.DEFAULTS.items():
        assert documented[name] == set(defaults) - set(cli._COMMON_DEFAULTS), name


def test_console_script_registered():
    import importlib.metadata as md

    eps = md.entry_points(group="console_scripts")
    names = {e.name for e in eps}
    assert "waveortho" in names


# ---------------------------------------------------------------------------
# Scenario behaviors that are cheap enough for unit testing


def test_sphere_rejects_point_sources():
    with pytest.raises(UsageError, match="basis must be spherical-modes or plane-waves"):
        cli.build_config("sphere", overrides={"basis": "point-sources"})


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


@pytest.mark.parametrize("ka", ["9", "12", "20"])
def test_sphere_basis_size_follows_partial_wave_tail(ka):
    rep = cli.run_scenario("sphere", cli.build_config("sphere", overrides={"ka": ka, "bc": "hard"}))
    check = {c.name: c for c in rep.checks}["far_field_matches_mie"]
    assert check.passed, check.detail


def test_sphere_basis_sizing_matches_order_by_order_search():
    cfg = cli.build_config("sphere")
    for ka in [*range(1, 21), 2.5, 9.75]:
        n = math.ceil(ka) + 8
        while 3.0 * ka * specfun.sph_bessel_j(n, float(ka))[0] ** 2 > cli.FAR_TOL:
            n += 1
        basis, _ = cli._sphere_modes(cfg, float(ka), cli.FAR_TOL)
        assert basis.max_order == n, ka


def test_sphere_basis_sizing_beyond_order_cap_is_usage_error(capsys):
    assert cli.main(["sphere", "--ka", "200"]) == 2
    assert "supported cap 200" in capsys.readouterr().err


def test_sphere_ka_beyond_series_oracle_is_refused_before_the_solve(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("the Gram system was assembled")

    monkeypatch.setattr(cli.mth, "assemble_gram", no_solve)
    assert cli.main(["sphere", "--ka", "150", "--bc", "hard"]) == 2
    assert "series oracle supports ka <= 100" in capsys.readouterr().err


def test_plane_wave_ratios_at_rounding_level_pass(capsys):
    assert cli.main(["sphere", "--basis", "plane-waves", "--ka", "3"]) == 0
    out = capsys.readouterr().out
    assert "check im_ratio_decreases_under_refinement: PASS" in out
    assert "100 eps = 2.2e-14" in out


@pytest.mark.parametrize(
    "ratios,ok",
    [
        ([9e-9, 9e-13, 2e-16], True),
        ([7e-13, 1.3e-16, 1.4e-16], True),  # rise within the rounding floor
        ([7e-13, 1e-15, 3e-14], False),  # rise to above the floor
        ([1e-9, 1e-12, 5e-12], False),
        ([1e-9, 1e-9], False),
    ],
)
def test_im_ratio_rule_passes_only_rises_below_the_floor(ratios, ok):
    assert cli._im_ratios_decrease(ratios) is ok


def test_criterion_7_run_keeps_its_ratios():
    rep = cli.run_scenario(
        "sphere",
        cli.build_config("sphere", overrides={"basis": "plane-waves", "bc": "hard"}),
    )
    ratios = [rep.metrics[f"im_ratio_npolar_{n}"] for n in (4, 6, 8)]
    assert ratios[0] == pytest.approx(7.2874e-9, rel=1e-4)
    assert ratios[1] == pytest.approx(1.5994e-12, rel=1e-3)
    assert ratios[2] < cli.IM_RATIO_FLOOR
    assert ratios[2] < ratios[1] < ratios[0]
    assert {c.name: c for c in rep.checks}["im_ratio_decreases_under_refinement"].passed


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
    for overrides in ({"incidence": "1.6"}, {"incidence_deg": "-90"}):
        with pytest.raises(UsageError, match=r"incidence must lie strictly inside \(-pi/2, pi/2\)"):
            cli.build_config("strip", overrides=overrides)
    assert cli.build_config("slit", overrides={"incidence_deg": "89"})["incidence"] < math.pi / 2


def test_born_strong_disturbance_passes_without_warning():
    rep = cli.run_scenario("born", cli.build_config("born", overrides={"amplitude": "80"}))
    assert rep.passed
    assert rep.warnings == []
    assert rep.metrics["ls_residual"] <= 1e-12


@pytest.mark.parametrize("overrides", [{"bc": "hard"}, {"bc": "soft", "incidence_deg": "10"}])
def test_strip_reports_bem_rcond(overrides):
    cfg = cli.build_config("strip", overrides={"kd": repr(4 * math.pi), **overrides})
    rep = cli.run_scenario("strip", cfg)
    assert 0.0 < rep.metrics["bem_rcond"] < 1.0
