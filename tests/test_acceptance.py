"""End-to-end acceptance run.

Each test exercises one numbered acceptance criterion through the public CLI
entry points and records a single PASS/FAIL verdict line; the conftest
terminal-summary hook replays all lines at the end of the run. Criteria that
the shipped scenarios genuinely cannot meet are asserted anyway, so their
tests fail loudly instead of being quietly relaxed.
"""

import json
import math
import os

import pytest

import _criteria
from waveortho import cli

BCS = ("soft", "hard")
KD_FACTORS = (4, 8, 16)


def _check(rep, name):
    found = {c.name: c for c in rep.checks}
    assert name in found, f"run is missing the {name} check"
    return found[name]


@pytest.fixture(scope="module")
def sphere_reports():
    """Criterion-1 runs: spherical-mode solves on the unit sphere, ka = 5."""
    return {
        bc: cli.run_scenario("sphere", cli.build_config("sphere", overrides={"bc": bc}))
        for bc in BCS
    }


@pytest.fixture(scope="module")
def strip_reports():
    """Criterion-3 runs: both conditions at kd in {4pi, 8pi, 16pi}, BEM on."""
    out = {}
    for bc in ("hard", "soft"):
        for m in KD_FACTORS:
            cfg = cli.build_config(
                "strip", overrides={"kd": str(m * math.pi), "bc": bc}
            )
            out[(bc, m)] = cli.run_scenario("strip", cfg)
    return out


def test_criterion_1_orthogonal_basis_exactness(sphere_reports):
    parts, ok = [], True
    for bc in BCS:
        rep = sphere_reports[bc]
        good = _check(rep, "far_field_matches_mie").passed and rep.wall_clock_s < 5.0
        ok = ok and good
        parts.append(
            f"{bc} far-field rel L2 {rep.metrics['far_rel_l2_vs_mie']:.2e} "
            f"in {rep.wall_clock_s:.1f}s"
        )
    line = _criteria.record(1, ok, "; ".join(parts) + " (tol 1e-08, budget 5s each)")
    assert ok, line


def test_criterion_2_kirchhoff_coincidence(strip_reports):
    rep = strip_reports[("hard", 16)]
    corr = rep.metrics["kirchhoff_corr"]
    fac = complex(
        rep.metrics["kirchhoff_factor_re"], rep.metrics["kirchhoff_factor_im"]
    )
    ok = _check(rep, "kirchhoff_correlation").passed and math.isfinite(abs(fac))
    line = _criteria.record(
        2,
        ok,
        f"hard strip kd=16pi aperture-density correlation {corr:.7f} (>= 0.999); "
        f"fitted constant factor {fac.real:+.5f}{fac.imag:+.5f}j, "
        f"modulus {abs(fac):.5f}",
    )
    assert ok, line


def test_criterion_3_strip_vs_bem(strip_reports):
    ok, parts = True, []
    for bc in ("hard", "soft"):
        l2 = [strip_reports[(bc, m)].metrics["oracle_pattern_rel_l2"] for m in KD_FACTORS]
        mono = all(b <= a for a, b in zip(l2, l2[1:]))
        feats = all(
            _check(strip_reports[(bc, m)], nm).passed
            for m in KD_FACTORS
            for nm in ("first_null_pos", "first_null_neg", "main_lobe_width")
        )
        walls = [strip_reports[(bc, m)].wall_clock_s for m in KD_FACTORS]
        ok = ok and mono and feats and max(walls) < 60.0
        parts.append(
            f"{bc} rel L2 " + "/".join(f"{x:.4f}" for x in l2)
            + (" monotone" if mono else " NOT monotone")
            + (", nulls and widths within one grid step" if feats else ", feature mismatch")
            + f", max wall {max(walls):.0f}s"
        )
    line = _criteria.record(3, ok, "; ".join(parts))
    assert ok, line


def test_criterion_4_gram_offdiagonal_decay():
    rep = cli.run_scenario("riemann-decay", cli.build_config("riemann-decay"))
    r1 = rep.metrics["decay_ratio_10_to_20"]
    r2 = rep.metrics["decay_ratio_20_to_40"]
    ok = (
        _check(rep, "decay_ka_10_to_20").passed
        and _check(rep, "decay_ka_20_to_40").passed
    )
    line = _criteria.record(
        4,
        ok,
        f"two-direction Gram off-diagonal fell {r1:.2f}x over ka 10->20 "
        f"and {r2:.2f}x over ka 20->40 (each doubling needs >= 2x)",
    )
    assert ok, line


def test_criterion_5_iteration_stability(sphere_reports, strip_reports):
    cases = [(f"sphere/{bc}", sphere_reports[bc]) for bc in BCS]
    cases += [
        (f"strip/{bc}/{m}pi", strip_reports[(bc, m)])
        for bc in ("hard", "soft")
        for m in KD_FACTORS
    ]
    basics = True
    limit_pass, limit_fail, exempt = [], [], []
    for label, rep in cases:
        basics = (
            basics
            and _check(rep, "iterate_step1_equals_diagonal").passed
            and _check(rep, "residual_history_nonincreasing").passed
        )
        rho = rep.metrics["iteration_spectral_radius"]
        lim = {c.name: c for c in rep.checks}.get("iterate_limit_matches_galerkin")
        if rho >= 1.0:
            exempt.append(label)
        elif lim is not None and lim.passed:
            limit_pass.append(label)
        else:
            why = f"gap {lim.value:.3e} {lim.note}" if lim is not None else "limit check missing"
            limit_fail.append(f"{label} at rho 1-{1 - rho:.1e} ({why})")
    ok = basics and not limit_fail
    detail = (
        f"step-1 bitwise equality and non-increasing 50-step history hold on all "
        f"{len(cases)} runs; Galerkin-limit clause passes on {len(limit_pass)}, "
        f"vacuous on {len(exempt)} (radius estimate >= 1)"
    )
    if limit_fail:
        detail += "; UNREACHABLE at desk scale on " + "; ".join(limit_fail)
    line = _criteria.record(5, ok, detail)
    assert ok, line


def test_criterion_6_spheroid_axial_sources(tmp_path_factory):
    rpt = str(tmp_path_factory.mktemp("sphd") / "report.json")
    rep = cli.run_scenario(
        "spheroid", cli.build_config("spheroid", overrides={"report_out": rpt})
    )
    r_d, r_g = rep.residuals["diagonal"], rep.residuals["galerkin"]
    emitted = os.path.exists(rpt) and json.load(open(rpt))["scenario"] == "spheroid"
    ratio_ok = _check(rep, "diagonal_within_ratio_of_galerkin").passed
    small_ok = (
        _check(rep, "diagonal_residual_small").passed
        and _check(rep, "galerkin_residual_small").passed
    )
    ok = ratio_ok and small_ok and emitted
    line = _criteria.record(
        6,
        ok,
        f"boundary residuals: diagonal {r_d:.4f}, Galerkin {r_g:.4f}; "
        f"ratio clause {'holds' if ratio_ok else 'fails'} "
        f"({r_d:.2f} <= 3 x {r_g:.2f}); absolute bound 0.2 "
        f"{'holds' if small_ok else 'FAILS for both solvers'}; "
        f"report {'emitted' if emitted else 'missing'}",
    )
    assert ok, line


def test_criterion_7_plane_wave_reflection_diagnostic():
    rep = cli.run_scenario(
        "sphere",
        cli.build_config("sphere", overrides={"basis": "plane-waves", "bc": "hard"}),
    )
    ratios = [rep.metrics[f"im_ratio_npolar_{n}"] for n in (4, 6, 8)]
    ok = _check(rep, "im_ratio_decreases_under_refinement").passed
    line = _criteria.record(
        7,
        ok,
        "hard-sphere reflection diagnostic max|Im v|/max|v| = "
        + " -> ".join(f"{r:.2e}" for r in ratios)
        + " over 4/6/8 polar direction nodes (reported, no threshold)",
    )
    assert ok, line


def test_criterion_8_born_pipeline():
    rep = cli.run_scenario("born", cli.build_config("born"))
    errs = {
        o: rep.metrics[f"err_vs_oracle_{o}"]
        for o in ("first", "second-standard", "second-modified")
    }
    need = (
        "first_equals_plain_born",
        "modified_second_term_phase_invariant",
        "standard_second_term_phase_sensitive",
        "second_terms_opposite_sign",
    )
    ok = (
        all(_check(rep, nm).passed for nm in need)
        and all(math.isfinite(v) for v in errs.values())
        and rep.wall_clock_s < 60.0
    )
    line = _criteria.record(
        8,
        ok,
        f"unit-weight first term deviates {rep.metrics['first_unit_beta_dev']:.1e} "
        f"from plain Born; modified second term is phase-invariant, standard is "
        f"not; term cosine {rep.metrics['second_terms_cosine']:+.3f}; errors vs "
        f"volume oracle: first {errs['first']:.2e}, standard "
        f"{errs['second-standard']:.2e}, modified {errs['second-modified']:.2e}; "
        f"wall {rep.wall_clock_s:.1f}s",
    )
    assert ok, line


def test_criterion_9_kernel_profile_golden(tmp_path_factory):
    d = tmp_path_factory.mktemp("kp")
    reps, blobs = [], []
    for name in ("one.csv", "two.csv"):
        p = str(d / name)
        rep = cli.run_scenario(
            "kernel-profile", cli.build_config("kernel-profile", overrides={"out": p})
        )
        reps.append(rep)
        with open(p, "rb") as fh:
            blobs.append(fh.read())
    identical = blobs[0] == blobs[1]
    ok = identical and all(
        _check(r, "peak_at_zero_distance").passed and _check(r, "gram_hermitian").passed
        for r in reps
    )
    line = _criteria.record(
        9,
        ok,
        f"kernel profile peaks at zero separation ({reps[0].metrics['peak_value']:.4f}), "
        f"Gram exactly Hermitian, {len(blobs[0])}-byte CSV byte-identical across reruns",
    )
    assert ok, line
