import hashlib
import json
import math
import operator
import os
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveortho import cli, specfun
from waveortho import geometry as geo
from waveortho import oracles as orc
from waveortho.errors import DomainError, SingularSystemError, UsageError


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
    assert cli._parse_solver("iterate:zero") is None
    assert cli._parse_solver("iterate:0") is None
    assert cli._parse_solver("cholesky") is None


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


def test_kernel_profile_peak_ties_with_the_anchors_latitude_ring(tmp_path):
    # the sphere's modes are all m = 0, so |Phi| is the same on each latitude
    # ring: peak_at_zero_distance holds at equality, tied with the anchor's ring
    out = str(tmp_path / "prof.json")
    rep = cli.run_scenario(
        "kernel-profile",
        cli.build_config("kernel-profile", overrides={"out": out, "format": "json"}),
    )
    payload = json.loads(open(out).read())
    dist, absphi = np.array(payload["distance"]), np.array(payload["abs_phi"])
    tied = absphi == absphi[0]
    assert np.count_nonzero(tied) == 64  # the anchor and the 63 others of its ring
    assert 0.147 < dist[tied].max() < 0.149
    (peak,) = [c for c in rep.checks if c.name == "peak_at_zero_distance"]
    assert peak.passed and peak.value == peak.bound == absphi[0]


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


_CSV_EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    2.2250738585072009e-308, 1e-308, 1e308, -1e308, 1.7976931348623157e308,
                    0.1, 1.0 / 3.0, 2.0**53 + 2.0, -123456.789]


def _written_csv(tmp_path, columns):
    out = str(tmp_path / "table.csv")
    cfg = {"out": out, "format": "csv"}
    cli._write_table(cfg, cli.RunReport("test", cfg), "out", columns)
    return open(out).read()


@pytest.mark.parametrize("n_rows", [len(_CSV_EDGE_VALUES), 1])
def test_csv_writer_matches_per_value_format(n_rows, tmp_path):
    rng = np.random.default_rng(7)
    a = np.array(_CSV_EDGE_VALUES[:n_rows])
    columns = {"a": a, "b": rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
               "c": a[::-1]}
    expected = "\n".join(["a,b,c"] + [",".join(f"{x:.17g}" for x in row)
                                      for row in zip(*columns.values())]) + "\n"
    assert _written_csv(tmp_path, columns) == expected


def test_csv_writer_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        _written_csv(tmp_path, {"a": np.zeros(3), "b": np.zeros(2)})


def test_sphere_table_is_the_same_with_and_without_the_memos(tmp_path):
    out = [str(tmp_path / f"{i}.csv") for i in range(3)]
    for i, path in enumerate(out):
        if i == 2:
            geo._gauss_legendre_rule.cache_clear()
        cfg = cli.build_config("sphere", overrides={"ka": "3", "bc": "hard", "out": path})
        assert cli.run_scenario("sphere", cfg).passed
    first, memoized, fresh = (open(path, "rb").read() for path in out)
    assert first == memoized == fresh


def test_sphere_sweep_solves_each_quadrature_degree_once(monkeypatch):
    real = np.polynomial.legendre.leggauss
    degrees = []

    def counted(n):
        degrees.append(n)
        return real(n)

    geo._gauss_legendre_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for ka in range(1, 7):
        for bc in ("soft", "hard"):
            cli.run_scenario("sphere", cli.build_config("sphere", overrides={
                "ka": str(ka), "bc": bc}))
    cli.run_scenario("sphere", cli.build_config("sphere", overrides={
        "basis": "plane-waves", "bc": "hard"}))
    assert degrees and len(degrees) == len(set(degrees))


def test_sphere_modes_assemble_on_one_meridian(monkeypatch):
    made, nodes = [], []
    make_surface, assemble_gram = geo.make_surface, cli.mth.assemble_gram

    def counted_make(shape, resolution):
        made.append(shape)
        return make_surface(shape, resolution)

    def counted_assemble(basis, bc, s, *args):
        nodes.append(s.n_nodes)
        return assemble_gram(basis, bc, s, *args)

    monkeypatch.setattr(geo, "make_surface", counted_make)
    monkeypatch.setattr(cli.mth, "assemble_gram", counted_assemble)
    for overrides in ({"ka": "5"}, {"ka": "12", "bc": "hard"}, {"ka": "1", "quad_resolution": "40"}):
        assert cli.run_scenario("sphere", cli.build_config("sphere", overrides=overrides)).passed
    # no 2 r^2 grid is built: one node per Gauss ring
    assert not any(isinstance(shape, geo.Sphere) for shape in made)
    assert nodes == [32, 32, 40]


def test_kernel_profile_keeps_the_full_grid(tmp_path):
    out = str(tmp_path / "prof.csv")
    rep = cli.run_scenario("kernel-profile", cli.build_config("kernel-profile", overrides={"out": out}))
    data = open(out, "rb").read()
    assert rep.metrics["profile_points"] == 2 * 32 * 32
    assert len(data) == 80170
    assert hashlib.sha256(data).hexdigest() == (
        "8212e0945e22c8f0fc594f9fd06df18ad979c5cb214ce8d7491691745dd99fbc")


# ---------------------------------------------------------------------------
# Entry point behavior


# the relation a check's detail prints, and what it asserts of value and bound
SHOWN_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
                   "==": operator.eq, "!=": operator.ne}


@pytest.mark.parametrize(
    "argv",
    [["sphere"], ["spheroid"], ["born"], ["kernel-profile"], ["riemann-decay"],
     ["strip", "--kd", repr(4 * math.pi)]],
    ids=lambda argv: argv[0],
)
def test_report_checks_derive_verdict_and_detail_from_value_and_bound(argv, tmp_path):
    path = tmp_path / "report.json"
    cli.main(argv + ["--report_out", str(path)])
    checks = json.loads(path.read_text())["checks"]
    assert checks
    for c in checks:
        assert {"name", "value", "relation", "bound", "passed", "detail"} <= set(c), c
        assert c["passed"] == SHOWN_RELATIONS[c["relation"]](c["value"], c["bound"]), c
        # the detail states the relation that holds: the check's own on a pass,
        # its negation on a failure
        shown = c["detail"].split(";")[0].split()[1]
        assert SHOWN_RELATIONS[shown](c["value"], c["bound"]), c
        assert (shown == c["relation"]) == c["passed"], c
    if argv == ["spheroid"]:
        diag = {c["name"]: c for c in checks}["diagonal_residual_small"]
        assert not diag["passed"]
        assert (diag["value"], diag["relation"], diag["bound"]) == (
            pytest.approx(0.7004, abs=1e-4), "<=", cli.RESIDUAL_MAX)
        assert diag["detail"] == "0.7004 > 0.2"


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
        # the strip oracle sizes itself, so no key sets its node count
        (["strip", "--bem_nodes", "3"], "unknown config key 'bem_nodes'"),
        # a tiny strip meets only the angle rule of the oracle comparison
        (["strip", "--kd", "0.05", "--angles", "2"], "angles must be >= 3"),
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
        (["strip", "--with_bem", "maybe"], "bad value 'maybe' for config key 'with_bem'"),
        # a zero disturbance leaves the second-order checks nothing to compare
        (["born", "--amplitude", "0"], "amplitude must not be 0"),
        (["riemann-decay", "--separation", "2"], "separation must lie in (0, 2)"),
        (["slit", "--kd", "12.566370614359172", "--bem_nodes", "962"],
         "unknown config key 'bem_nodes'"),
        # integers numpy cannot index fail their count rule's memory bound
        # before any array is built
        (["sphere", "--ka", "2", "--angles", "100000000000000000000"],
         "angles must be >= 2: a far-field table compares at least two directions; and an "
         "array of that many 16-byte entries must fit in physical memory"),
        (["strip", "--kd", "12.566370614359172", "--with_bem", "false",
          "--basis_size", "100000000000000000000"],
         "basis_size must be >= 0 (0 sizes the basis automatically); and an array of that "
         "many 16-byte entries must fit in physical memory"),
        # bc and solver refusals name their key
        (["slit", "--bc", "rigid"], "bc must be soft or hard"),
        (["sphere", "--solver", "bogus"], "solver must be diagonal, galerkin, or iterate:N"),
        (["sphere", "--solver", "iterate:0"], "with an integer N >= 1"),
        # a step count above the refinement step cap is refused before any step
        (["sphere", "--ka", "1", "--solver", "iterate:1000000000000"],
         "the refinement step cap 2000000"),
        # a strip so narrow that the oracle's far field underflows to 0
        (["strip", "--kd", "1e-300"], "kd = 1e-300"),
        # incidence_deg only where the scenario has incidence
        (["born", "--incidence_deg", "5"], "unknown config key 'incidence_deg'"),
    ],
)
def test_bad_numeric_input_exits_2_with_reason(argv, reason, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert reason in err
    if argv[0] == "kernel-profile":  # which has no far_tol key
        assert "far_tol" not in err


def test_solver_at_the_step_cap_is_accepted():
    assert cli.REFINE_STEPS_MAX == 2_000_000
    cfg = cli.build_config("sphere", overrides={"solver": "iterate:2000000"})
    assert cfg["solver"] == "iterate:2000000"


@pytest.mark.parametrize("steps", ["2000001", "263114239"])
def test_solver_above_the_step_cap_exits_2_before_any_step(steps, monkeypatch, capsys):
    def unreachable(*args):
        pytest.fail("a refinement step was taken")

    monkeypatch.setattr(cli.mth, "refine_iterate", unreachable)
    monkeypatch.setattr(cli.mth, "refine_power", unreachable)
    assert cli.main(["sphere", "--solver", f"iterate:{steps}"]) == 2
    assert capsys.readouterr().err == (
        "usage error: solver must be diagonal, galerkin, or iterate:N with an integer N >= 1 "
        "and at most the refinement step cap 2000000\n"
    )


@pytest.mark.parametrize("argv", [
    ["sphere", "--ka", "1e-15"],
    # the trace itself overflows: y_n(1) is inf from order 151
    ["sphere", "--ka", "1", "--basis_size", "160"],
    ["sphere", "--basis_size", "124"],
    ["sphere", "--basis_size", "200"],
    ["sphere", "--bc", "hard", "--basis_size", "124"],
    ["sphere", "--bc", "hard", "--basis_size", "123"],
    ["kernel-profile", "--basis_size", "150"],
    ["kernel-profile", "--ka", "1e-20"],
])
def test_overflowing_gram_exits_2_with_one_line(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the way would be a second line
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("usage error: the Gram matrix overflows double precision: "
                                       "a basis trace is too large on this surface\n")


@pytest.mark.parametrize("argv, reason", [
    # Python floats that overflow or underflow on the way
    (["sphere", "--ka", "1e-200"], "the Gram matrix overflows double precision"),
    (["sphere", "--ka", "1e-200", "--bc", "hard"],
     "the series oracle has no finite coefficients at ka = 1e-200"),
    (["sphere", "--ka", "1e-200", "--basis_size", "3"],
     "the Gram matrix overflows double precision"),
    (["born", "--k", "1e-300"], "wavenumber k = 1e-300 must be positive, with k^2 and 1/k^2"),
    (["born", "--k", "1e300"], "wavenumber k = 1e+300 must be positive, with k^2 and 1/k^2"),
    (["born", "--width", "1e300"], "and width^2 finite and > 0"),
    (["spheroid", "--c_over_a", "1e300"], "c = 1e+300 need squares"),
    # sizes computed from float keys, refused before any array is built
    (["born", "--half_extent", "1e300"], "3.333e+301 nodes per axis at h = 0.06 needs about inf"),
    (["born", "--h", "1e-300"], "1.8e+300 nodes per axis at h = 1e-300 needs about inf bytes"),
    (["strip", "--kd", "1e300", "--with_bem", "false"],
     "kd = 1e+300 with 6.366e+299 plane-wave directions needs about 1.019e+301 bytes"),
    (["slit", "--kd", "1e300", "--with_bem", "false"],
     "kd = 1e+300 with 6.366e+299 plane-wave directions needs about 1.019e+301 bytes"),
    # |Xi|^2 and the ring's node distances overflow, and the Born fields are not finite
    (["born", "--amplitude", "1e300"], "non-finite values in approximation result"),
    (["born", "--ring_radius", "1e300"], "non-finite values in approximation result"),
    # the memory refusal comes before the oracle's least-angles rule, and a
    # 300-digit size is printed in 4 significant digits
    (["strip", "--kd", "1e300"],
     "kd = 1e+300 with 6.366e+299 plane-wave directions needs about 1.019e+301 bytes"),
    (["spheroid", "--ka", "1e300"],
     "the Gauss-Legendre rule of degree 8e+300 needs about inf bytes"),
    # a degree 8 ceil(ka) past the largest float is sized as inf, not converted
    (["spheroid", "--ka", "1e308"], "the Gauss-Legendre rule of degree inf needs about inf bytes"),
    (["spheroid", "--ka", "1.7976931348623157e308"],
     "the Gauss-Legendre rule of degree inf needs about inf bytes"),
    # a 300-digit mode order or least-angles count is printed in 4 significant digits
    (["sphere", "--ka", "1e300"], "mode order ceil(ka) + 8 = 1e+300 at ka = 1e+300 is above"),
    (["kernel-profile", "--ka", "1e300"], "mode order ceil(ka) + 8 = 1e+300 at ka = 1e+300"),
    (["strip", "--kd", "1e300", "--basis_size", "10", "--quad_resolution", "10"],
     "angles must be >= 2e+300 at kd = 1e+300 when with_bem is on"),
    # |std|^2 overflows in the Born term cosine, and the oracle then refuses the solve
    (["born", "--amplitude", "1e80"], "Lippmann-Schwinger GMRES left a relative residual of"),
])
def test_float_extremes_exit_2_with_one_line(argv, reason, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the way would be a second line
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert len(err) <= 201  # 200 characters and the newline
    assert reason in err


def test_sphere_at_the_last_finite_gram_passes():
    # basis_size 123 is the largest whose soft Gram matrix at ka = 5 is finite
    assert cli.main(["sphere", "--basis_size", "123"]) == 0


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


def test_output_into_a_missing_nested_directory_creates_it(tmp_path):
    out = tmp_path / "a" / "b" / "m.csv"
    assert cli.main(["kernel-profile", "--ka", "2", "--out", str(out)]) == 0
    assert os.listdir(out.parent) == ["m.csv"]
    assert os.listdir(tmp_path) == ["a"] and os.listdir(tmp_path / "a") == ["b"]


def test_written_table_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert cli.main(["kernel-profile", "--ka", "2", "--out", str(tmp_path / "m.csv")]) == 0
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "m.csv").st_mode & 0o777 == 0o644
    assert os.listdir(tmp_path) == ["m.csv"]


@pytest.mark.parametrize("scenario, overrides", [
    ("sphere", {"ka": "2", "angles": "11"}),
    ("born", {}),
    ("spheroid", {"ka": "2"}),
    ("riemann-decay", {}),
])
def test_report_json_is_the_text_of_asdict(scenario, overrides, tmp_path):
    """The report JSON, built from one walk over the fields, has the text of
    json.dumps(dataclasses.asdict(report)): every config value, metric,
    residual, warning and check field in the same order."""
    cfg = cli.build_config(scenario, overrides=overrides)
    cfg["report_out"] = str(tmp_path / "report.json")
    report = cli.run_scenario(scenario, cfg)
    assert report.checks and report.metrics
    with open(cfg["report_out"]) as f:
        written = f.read()
    # the report was written before its own path joined `outputs`
    assert report.outputs.pop() == cfg["report_out"]
    assert written == json.dumps(asdict(report), indent=1, default=cli._jsonable) + "\n"


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
    assert f"degree 1000000024 needs about {8.0 * (10**9 + 24) ** 2:.4g} bytes, more than" in err


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


def test_oversized_strip_oracle_exits_2_before_assembling(monkeypatch, capsys):
    def unreachable(*args):
        pytest.fail("the strip oracle was assembled")

    # room for the method's arrays at kd = 4 pi, not for the oracle's 3 (2 x 77)^2 entries
    monkeypatch.setattr(geo, "physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(orc, "_arc_far_field", unreachable)
    assert cli.main(["strip", "--kd", "12.566370614359172"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: not enough memory for this configuration: ")
    assert f"at 45 half-period nodes needs about {3 * 16 * 154**2:.4g} bytes" in err


def test_oversized_born_ring_exits_2_before_building_its_rows(monkeypatch, capsys):
    def unreachable(*args):
        pytest.fail("the ring's node distances were built")

    # 300000 ring points pass their count rule, but their Green rows on the
    # 31 x 31 grid take 32 bytes per (point, node), more than 1 GiB
    monkeypatch.setattr(geo, "physical_memory", lambda: 1 << 30)
    monkeypatch.setattr(orc, "_grid_distances", unreachable)
    assert cli.main(["born", "--ring_points", "300000"]) == 2
    assert capsys.readouterr().err == (
        "usage error: not enough memory for this configuration: a Green table of 300000 rows by "
        f"961 nodes needs about {32.0 * 300000 * 961:.4g} bytes, more than the {1 << 30} bytes "
        "of physical memory\n"
    )


def _memory_guard_calls():
    """Each call of geometry.require_memory, on inputs whose arrays would take 32 MB or more."""
    soft = cli.mth.BoundaryCondition.SOFT
    u0 = cli.mth.IncidentField(direction=np.array([0.0, -1.0]), k=1.0)
    curve = orc.bem_ellipse(1.0, 0.6, 2000)
    pot = orc.gaussian_potential(1.0, 0.3, 0.9, 0.09)
    ring = np.column_stack([np.full(20000, 5.0), np.linspace(-1.0, 1.0, 20000)])
    return {
        "per_wavelength": lambda: cli._per_wavelength(1e7, 8, "surface nodes"),
        "gauss_legendre": lambda: geo.gauss_legendre(2001),
        "gaussian_potential": lambda: orc.gaussian_potential(1.0, 0.3, 0.9, 0.0009),
        "strip_arc_solve": lambda: orc.strip_arc_solve(soft, 1000.0, 0.0, np.zeros(181)),
        "bem_dense_solve": lambda: orc.bem_dense_solve(curve, soft, 1.0, u0),
        "volume_green": lambda: orc.volume_green(pot, 1.0, ring),
    }


@pytest.mark.parametrize("site", ["per_wavelength", "gauss_legendre", "gaussian_potential",
                                  "strip_arc_solve", "bem_dense_solve", "volume_green"])
def test_every_memory_guard_refuses_in_one_line_before_allocating(site, monkeypatch):
    call = _memory_guard_calls()[site]
    monkeypatch.setattr(geo, "physical_memory", lambda: 0)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert re.fullmatch(r"[^\n]+ needs about \S+ bytes, more than the 0 bytes of physical memory",
                        str(refused.value))


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


def test_readme_library_block_runs():
    """The first python block under README's Library heading runs as written."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


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
    assert "after 2000000 steps" in lim.note
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
        while 3.0 * ka * specfun.sph_bessel_j_value(n, float(ka)) ** 2 > cli.FAR_TOL:
            n += 1
        basis, _ = cli._sphere_modes(cfg, float(ka), cli.FAR_TOL)
        assert basis.max_order == n, ka


@pytest.mark.parametrize("tol", [cli.FAR_TOL, math.inf, 1e-100])
def test_sphere_mode_window_chooses_the_full_scans_order(tol):
    """The first MODE_WINDOW candidates, then the rest: the order of one scan
    of every order from ceil(ka) + 8 to the cap (at 1e-100 the order of most
    ka lies past the window, and from ka = 89 none meets it)."""
    cfg = cli.build_config("sphere")
    for ka in np.linspace(0.1, 170.0, 300):
        orders = np.arange(math.ceil(ka) + 8, specfun.MAX_ORDER + 1)
        met = 3.0 * ka * specfun.sph_bessel_j_value(orders, ka) ** 2 <= tol
        if met.any():
            assert cli._sphere_modes(cfg, ka, tol)[0].max_order == orders[np.argmax(met)], ka
        else:
            with pytest.raises(DomainError, match="no mode order up to the supported cap"):
                cli._sphere_modes(cfg, ka, tol)


@pytest.mark.parametrize("ka,reason", [
    ("180", "no mode order up to the supported cap 200 meets the far-field bound 1.0e-08 "
            "at ka = 180.0"),
    ("193", "the automatic mode order ceil(ka) + 8 = 201 at ka = 193.0 is above the "
            "supported cap 200"),
])
def test_sphere_mode_order_refusals_keep_their_text(ka, reason, capsys):
    assert cli.main(["sphere", "--ka", ka]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sphere"], ["sphere", "--bc", "hard"], ["kernel-profile"]])
def test_sphere_runs_call_no_public_spherical_bessel_wrapper(argv, monkeypatch):
    from scipy import special

    def public(*args, **kwargs):
        raise AssertionError("a public spherical Bessel wrapper was called")

    monkeypatch.setattr(special, "spherical_jn", public)
    monkeypatch.setattr(special, "spherical_yn", public)
    assert cli.main(argv) == 0


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
    # the last refinement rises, from 1.29e-16 to 1.43e-16, both under the floor
    assert "metric im_ratio_npolar_8 = 1.428714e-16" in out
    assert "check im_ratio_decreases_under_refinement: PASS (0 == 0)" in out


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
    assert (cli._im_ratio_rises(ratios) == 0) is ok


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
    assert ("check solver_available: FAIL (no value to compare < inf; "
            "galerkin selected but unavailable") in out
    assert "metric solver_used = diagonal" in out
    assert cli.main(["sphere", "--ka", "2"]) == 0  # unselected, it stays a warning


def test_failed_strip_oracle_fails_oracle_available_and_writes_the_pattern(
    monkeypatch, tmp_path, capsys
):
    def singular(*args, **kwargs):
        raise SingularSystemError("dense oracle system is near-singular "
                                  "(condition number ~ 1.000e+17)")

    monkeypatch.setattr(orc, "strip_arc_solve", singular)
    out = tmp_path / "pattern.csv"
    assert cli.main(["strip", "--kd", repr(4 * math.pi), "--out", str(out)]) == 1
    failed = [line.strip() for line in capsys.readouterr().out.splitlines() if ": FAIL" in line]
    assert failed == ["check oracle_available: FAIL (no value to compare < inf; oracle failed: "
                      "dense oracle system is near-singular (condition number ~ 1.000e+17)), "
                      "margin +nan"]
    assert len(out.read_text().splitlines()) == 1 + 181


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
def test_strip_reports_oracle_rcond(overrides):
    cfg = cli.build_config("strip", overrides={"kd": repr(4 * math.pi), **overrides})
    rep = cli.run_scenario("strip", cfg)
    assert 0.0 < rep.metrics["oracle_rcond"] < 1.0
    # the arc oracle's half-period nodes at kd = 4 pi, and its gap to a larger order
    assert rep.metrics["oracle_nodes_used"] == 45
    assert rep.metrics["oracle_self_error"] <= 1e-12


@pytest.mark.parametrize("bc", ["soft", "hard"])
@pytest.mark.parametrize("ka", ["32", "40", "50", "70", "100"])
def test_sphere_passes_against_the_series_up_to_its_cap(ka, bc, capsys):
    # at ceil(ka) + 12 orders the series' own truncation failed ka = 32 hard (1.156e-8)
    assert cli.main(["sphere", "--ka", ka, "--bc", bc]) == 0
