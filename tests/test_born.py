import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sp

import waveortho
from waveortho import born as brn
from waveortho import cli
from waveortho import method as mth
from waveortho import oracles as orc
from waveortho.errors import DomainError

K = 1.0


@pytest.fixture(scope="module")
def setup():
    """Weak Gaussian disturbance, 2D, with a ring of exterior points."""
    pot = orc.gaussian_potential(0.5, 0.3, 0.9, 0.06)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=K)
    th = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    pts = 5.4 * np.column_stack([np.sin(th), np.cos(th)])
    return pot, u0, orc.volume_green(pot, K, pts)


def test_beta_weight_properties(setup):
    pot, _, green = setup
    beta = brn.beta_weight(pot, green)
    assert beta.shape == (pot.n_cells,)
    assert np.all(beta > 0) and np.all(beta <= 1.0)
    # weight tends to one as the disturbance vanishes
    weak = orc.gaussian_potential(1e-6, 0.3, 0.9, 0.06)
    assert np.min(brn.beta_weight(weak, green)) > 1.0 - 1e-10
    # the wavenumber is refused where the tables are built
    with pytest.raises(DomainError):
        orc.volume_green(pot, -1.0, green.points)


@pytest.mark.parametrize("dim, h", [(2, 0.06)])
def test_beta_weight_matches_dense_row_sums(dim, h):
    pot = orc.gaussian_potential(2.0, 0.3, 0.6, h)
    pts = pot.points()
    r = orc._grid_distances(pot, pts)
    np.fill_diagonal(r, 1.0)
    g2 = np.abs(0.25j * sp.hankel1(0, K * r)) ** 2 * pot.h**2
    np.fill_diagonal(g2, orc._self_cell_green_sq(K, pot.h))
    ref = 1.0 / (1.0 + g2 @ np.abs(pot.flat()) ** 2)
    green = orc.volume_green(pot, K, np.empty((0, dim)))
    assert np.max(np.abs(brn.beta_weight(pot, green) - ref)) <= 1e-13 * np.max(1.0 - ref)


@pytest.mark.parametrize("overrides", [{}, {"amplitude": "4", "h": "0.045"}])
def test_born_run_builds_no_dense_green(overrides, monkeypatch):
    """No dense grid-Green matrix, one library call per potential (plain and
    phase-rotated), and each Green table evaluated once per run: the exterior
    rows and the lattice kernel, shared by both potentials and the oracle."""
    calls = []
    counts = {"_volume_green": 0, "born_approximation": 0}
    original = orc.grid_green_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(orc, "grid_green_matrix", counted)
    monkeypatch.setattr(brn, "grid_green_matrix", counted)
    monkeypatch.setattr(orc, "_volume_green", counting(orc, "_volume_green"))
    monkeypatch.setattr(brn, "born_approximation", counting(brn, "born_approximation"))
    rep = cli.run_scenario("born", cli.build_config("born", overrides=overrides))
    assert rep.passed
    assert len(calls) == 0
    assert counts == {"_volume_green": 2, "born_approximation": 2}
    assert rep.metrics["ls_residual"] <= 1e-12


@pytest.mark.parametrize("overrides, steps", [
    ({}, 5),
    ({"amplitude": "4", "h": "0.045"}, 7),
    # past the first 100-step GMRES cycle, and within the 1e-12 residual bound
    ({"amplitude": "1e5"}, 129),
])
def test_born_run_gmres_steps(overrides, steps):
    rep = cli.run_scenario("born", cli.build_config("born", overrides=overrides))
    assert rep.metrics["ls_iterations"] == steps
    assert rep.metrics["ls_residual"] <= 1e-12


@pytest.mark.parametrize("overrides, applications", [
    ({}, 6),  # 5 steps
    ({"amplitude": "4", "h": "0.045"}, 8),  # 7 steps
    ({"amplitude": "1e5"}, 131),  # 129 steps in two cycles
])
def test_born_run_solve_forms_one_true_residual_per_cycle(overrides, applications, monkeypatch):
    """Operator applications of the Lippmann-Schwinger solve: one per GMRES
    step and one true residual per cycle, which both the restart test and
    the refusal read."""
    count = {"solving": False, "applications": 0}
    matmul, solve = orc.LatticeOperator.__matmul__, orc.lippmann_schwinger

    def counted_matmul(self, x):
        if count["solving"]:
            count["applications"] += 1
        return matmul(self, x)

    def counted_solve(*args, **kwargs):
        count["solving"] = True
        try:
            return solve(*args, **kwargs)
        finally:
            count["solving"] = False

    monkeypatch.setattr(orc.LatticeOperator, "__matmul__", counted_matmul)
    monkeypatch.setattr(orc, "lippmann_schwinger", counted_solve)
    assert cli.run_scenario("born", cli.build_config("born", overrides=overrides)).passed
    assert count["applications"] == applications


def test_born_run_never_imports_scipy_sparse(tmp_path):
    """No scenario loads scipy.sparse, and only the strip oracle's LU loads
    scipy.linalg: every other run, in one process, leaves both out."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(waveortho.__file__)))
    code = ("import sys\n"
            "from waveortho import cli\n"
            "def loaded():\n"
            "    return sorted({m.split('.')[1] for m in sys.modules\n"
            "                   if m.startswith(('scipy.sparse', 'scipy.linalg'))})\n"
            "runs = [(argv[0], cli.main(argv), loaded()) for argv in (\n"
            "    ['born'], ['sphere'], ['kernel-profile'], ['riemann-decay'], ['spheroid'],\n"
            "    ['strip', '--with_bem', 'false'], ['strip'])]\n"
            "print(runs)\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    # the spheroid run fails criterion 6 (exit 1), a documented limitation of the method
    assert run.stdout.splitlines()[-1] == str([
        ("born", 0, []), ("sphere", 0, []), ("kernel-profile", 0, []), ("riemann-decay", 0, []),
        ("spheroid", 1, []), ("strip", 0, []), ("strip", 0, ["linalg"])])


def test_start_up_and_special_function_free_runs_never_import_scipy_special(tmp_path):
    """Importing the CLI, building every scenario's config, the runs that
    evaluate no special function and a refused config leave scipy.special
    and hashlib unloaded; the first sphere run loads scipy.special."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(waveortho.__file__)))
    code = ("import sys\n"
            "from waveortho import cli\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.special', 'hashlib') if m in sys.modules]\n"
            "configs = [cli.build_config(name) for name in sorted(cli.DEFAULTS)]\n"
            "runs = [('build_config', len(configs), loaded())]\n"
            "runs += [(argv[0], cli.main(argv), loaded()) for argv in (\n"
            "    ['spheroid'], ['strip', '--with_bem', 'false'], ['riemann-decay'],\n"
            "    ['sphere', '--basis', 'plane-waves', '--bc', 'hard'],\n"
            "    ['strip', '--kd', '1e300', '--with_bem', 'false'])]\n"
            "sphere = (cli.main(['sphere']), 'scipy.special' in sys.modules)\n"
            "print(runs, sphere)\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    # the spheroid run fails criterion 6 (exit 1), a documented limitation of the method
    runs = [("build_config", 7, []), ("spheroid", 1, []), ("strip", 0, []),
            ("riemann-decay", 0, []), ("sphere", 0, []), ("strip", 2, [])]
    assert run.stdout.splitlines()[-1] == f"{runs} (0, True)"


@pytest.mark.parametrize("overrides", [{}, {"amplitude": "4", "h": "0.045"}])
def test_born_run_builds_two_lattice_operators(overrides, monkeypatch):
    """The Green operator and the |G|^2 operator, each built once: the plain
    and the phase-rotated potential's beta weights share the second."""
    built = []
    init = orc.LatticeOperator.__init__

    def counted(self, kernel):
        built.append(kernel.shape)
        init(self, kernel)

    monkeypatch.setattr(orc.LatticeOperator, "__init__", counted)
    rep = cli.run_scenario("born", cli.build_config("born", overrides=overrides))
    assert rep.passed
    assert len(built) == 2


@pytest.mark.parametrize("overrides", [{}, {"amplitude": "4", "h": "0.045"}])
def test_born_run_transforms_at_5_smooth_lengths(overrides, monkeypatch):
    """Every FFT of a born run (the Green operator, beta's |G|^2 sums, each
    GMRES matvec) has lengths 2^a 3^b 5^c, none at which pocketfft falls back
    to Bluestein's algorithm."""
    lengths = set()

    def recording(fn, lengths_of):
        def wrapper(*args, **kwargs):
            lengths.update(lengths_of(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    def nd(a, s=None, *args, **kwargs):
        return np.shape(a) if s is None else s

    def one_d(a, n=None, axis=-1, *args, **kwargs):
        return [np.shape(a)[axis] if n is None else n]

    for name, lengths_of in (("fftn", nd), ("ifftn", nd), ("fft", one_d), ("ifft", one_d)):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name), lengths_of))
    assert cli.run_scenario("born", cli.build_config("born", overrides=overrides)).passed
    assert lengths
    for m in lengths:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert rest == 1, f"FFT length {m} is not 5-smooth"


@pytest.mark.parametrize("overrides", [{}, {"amplitude": "4", "h": "0.045"}])
def test_born_run_evaluates_no_amos_hankel(overrides, monkeypatch, tmp_path):
    """Every Bessel value of a born run comes from the cephes j0, y0, j1 and
    y1: with scipy's AMOS hankel1 made to raise the run still exits 0 with
    the check verdicts of an unpatched run."""

    def verdicts(name):
        path = tmp_path / f"{name}.json"
        argv = ["born"] + [a for kv in overrides.items() for a in (f"--{kv[0]}", kv[1])]
        assert cli.main(argv + ["--report_out", str(path)]) == 0
        with open(path) as f:
            return [(c["name"], c["passed"]) for c in json.load(f)["checks"]]

    plain = verdicts("plain")

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special.hankel1 called on the volume path")

    monkeypatch.setattr(sp, "hankel1", refuse)
    assert verdicts("patched") == plain
    assert all(passed for _, passed in plain)


def test_first_with_unit_weight_is_plain_born(setup):
    """The unit-weight first integral is the textbook first-order sum bit
    for bit, and the second-standard field builds on it."""
    pot, u0, green = setup
    pts = green.points
    r = brn.born_approximation(pot, u0, green)
    gout = orc._volume_green(pot, K, orc._grid_distances(pot, pts))
    plain = u0.values(pts) - gout @ (pot.flat() * u0.values(pot.points()))
    assert np.max(np.abs(u0.values(pts) + r.plain_term - plain)) == 0.0
    assert set(r.second_terms) == {"second-standard", "second-modified"}
    standard = (u0.values(pts) + r.plain_term) + r.second_terms["second-standard"]
    assert np.array_equal(r.fields["second-standard"], standard)


def test_weighted_first_differs_but_slightly(setup):
    pot, u0, green = setup
    pts = green.points
    r = brn.born_approximation(pot, u0, green)
    plain = u0.values(pts) + r.plain_term
    assert np.array_equal(r.fields["first"], u0.values(pts) + r.first_term)
    assert np.array_equal(r.beta, brn.beta_weight(pot, green))
    dev = np.max(np.abs(r.fields["first"] - plain))
    assert 0.0 < dev < 1e-2 * np.max(np.abs(plain - u0.values(pts)))


def test_modified_second_term_phase_invariant(setup):
    pot, u0, green = setup
    r0 = brn.born_approximation(pot, u0, green).second_terms["second-modified"]
    rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1.3j) * pot.values
    )
    r1 = brn.born_approximation(rot, u0, green).second_terms["second-modified"]
    scale = np.max(np.abs(r0))
    assert np.max(np.abs(r1 - r0)) < 1e-13 * scale


def test_standard_second_term_rotates_with_global_phase(setup):
    # quadratic in Xi: a global phase e^{i phi} multiplies the term by e^{2i phi}
    pot, u0, green = setup
    phi = 0.9
    r0 = brn.born_approximation(pot, u0, green).second_terms["second-standard"]
    rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1j * phi) * pot.values
    )
    r1 = brn.born_approximation(rot, u0, green).second_terms["second-standard"]
    assert np.allclose(r1, np.exp(2j * phi) * r0, rtol=1e-12)


def test_second_terms_have_opposite_sign(setup):
    pot, u0, green = setup
    terms = brn.born_approximation(pot, u0, green).second_terms
    std, mod = terms["second-standard"], terms["second-modified"]
    ip = np.vdot(std, mod).real
    assert ip < 0.0
    # pointwise the real parts disagree in sign at every ring point here
    sgn = np.sign((np.conj(std) * mod).real)
    assert np.all(sgn < 0)


def test_alt_reading_is_different(setup):
    pot, u0, green = setup
    a = brn.born_approximation(pot, u0, green)
    b = brn.born_approximation(pot, u0, green, alt_second_reading=True)
    mod_a, mod_b = a.second_terms["second-modified"], b.second_terms["second-modified"]
    assert np.max(np.abs(mod_a - mod_b)) > 0
    # the reading changes only the modified double integral
    assert np.array_equal(a.fields["first"], b.fields["first"])
    assert np.array_equal(a.fields["second-standard"], b.fields["second-standard"])


def test_errors_against_volume_equation(setup):
    """Iterated second order should beat first order on a weak disturbance;
    relative errors against the dense volume-equation solution."""
    pot, u0, green = setup
    u = orc.lippmann_schwinger(pot, u0, green)
    ref = orc.scattered_field_at(pot, u, u0, green)
    fields = brn.born_approximation(pot, u0, green).fields

    def rel(order):
        return np.linalg.norm(fields[order] - ref) / np.linalg.norm(ref)

    e1, e2s, e2m = rel("first"), rel("second-standard"), rel("second-modified")
    assert e2s < e1 < 0.01
    assert e2m < 0.05


def test_second_order_error_scales_as_alpha_squared():
    # first-order error ~ alpha^2 => relative error ~ alpha; the iterated
    # second order gains another power
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=K)
    pts = np.array([[0.0, 5.0], [4.0, -3.0], [-2.0, -4.0]])
    errs = []
    for amp in (0.4, 0.04):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09)
        green = orc.volume_green(pot, K, pts)
        u = orc.lippmann_schwinger(pot, u0, green)
        ref = orc.scattered_field_at(pot, u, u0, green) - u0.values(pts)
        res = brn.born_approximation(pot, u0, green)
        f = res.fields["second-standard"] - u0.values(pts)
        errs.append(np.linalg.norm(f - ref) / np.linalg.norm(ref))
    assert errs[0] / errs[1] > 50.0  # two orders for a 10x weaker potential


def test_points_inside_support_rejected(setup):
    pot = setup[0]
    with pytest.raises(DomainError, match="inside the potential support"):
        orc.volume_green(pot, K, np.array([[0.0, 0.0]]))
    with pytest.raises(DomainError, match="inside the potential support"):
        orc.volume_green(pot, K, np.array([[0.89, 0.89]]))


def test_dimension_mismatch(setup):
    pot, _, green = setup
    u0_3d = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=K)
    with pytest.raises(DomainError):
        brn.born_approximation(pot, u0_3d, green)
    with pytest.raises(DomainError):
        orc.volume_green(pot, K, np.array([[0.0, 0.0, 5.4]]))
    with pytest.raises(DomainError):
        orc.volume_green(pot, -1.0, green.points)


@pytest.mark.parametrize("change", ["h", "origin", "shape"])
def test_green_tables_refuse_another_grid(setup, change):
    pot, u0, green = setup
    other = {
        "h": orc.VolumePotential(origin=pot.origin, h=0.061, values=pot.values),
        "origin": orc.VolumePotential(origin=pot.origin + 0.01, h=pot.h, values=pot.values),
        "shape": orc.VolumePotential(origin=pot.origin, h=pot.h,
                                     values=np.pad(pot.values, ((0, 1), (0, 0)))),
    }[change]
    u_grid = np.zeros(other.values.shape, dtype=complex)
    for call in (lambda: brn.born_approximation(other, u0, green),
                 lambda: brn.beta_weight(other, green),
                 lambda: orc.lippmann_schwinger(other, u0, green),
                 lambda: orc.scattered_field_at(other, u_grid, u0, green)):
        with pytest.raises(DomainError, match="grid differs"):
            call()


@pytest.mark.parametrize("dim, h", [(2, 0.06)])
def test_shared_green_tables_match_fresh_ones(dim, h):
    """The phase-rotated potential read through the plain one's tables gives
    the same bits as through tables built for it alone."""
    pot = orc.gaussian_potential(0.5, 0.25, 0.6, h)
    u0 = mth.IncidentField(direction=np.eye(dim)[-1] * -1.0, k=K)
    pts = 4.0 * np.eye(dim)[:2]
    rot = orc.VolumePotential(origin=pot.origin, h=pot.h, values=np.exp(0.7j) * pot.values)
    for alt in (False, True):
        shared = brn.born_approximation(rot, u0, orc.volume_green(pot, K, pts), alt)
        fresh = brn.born_approximation(rot, u0, orc.volume_green(rot, K, pts), alt)
        for order in shared.fields:
            assert np.array_equal(shared.fields[order], fresh.fields[order])
        for order in shared.second_terms:
            assert np.array_equal(shared.second_terms[order], fresh.second_terms[order])
        assert np.array_equal(shared.plain_term, fresh.plain_term)
        assert np.array_equal(shared.first_term, fresh.first_term)
