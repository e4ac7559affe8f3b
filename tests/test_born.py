import numpy as np
import pytest
import scipy.special as sp

from waveortho import born as brn
from waveortho import cli
from waveortho import method as mth
from waveortho import oracles as orc
from waveortho.errors import DomainError, UnsupportedRegionError

K = 1.0


@pytest.fixture(scope="module")
def setup():
    """Weak Gaussian disturbance, 2D, with a ring of exterior points."""
    pot = orc.gaussian_potential(0.5, 0.3, 0.9, 0.06, dim=2)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=K)
    th = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    pts = 5.4 * np.column_stack([np.sin(th), np.cos(th)])
    return pot, u0, pts


def test_order_parsing():
    assert brn.BornOrder.from_string("first") is brn.BornOrder.FIRST
    assert brn.BornOrder.from_string("second-standard") is brn.BornOrder.SECOND_STANDARD
    assert brn.BornOrder.from_string("second-modified") is brn.BornOrder.SECOND_MODIFIED
    with pytest.raises(DomainError):
        brn.BornOrder.from_string("third")


def test_beta_weight_properties(setup):
    pot, u0, pts = setup
    beta = brn.beta_weight(pot, K)
    assert beta.shape == (pot.n_cells,)
    assert np.all(beta > 0) and np.all(beta <= 1.0)
    # weight tends to one as the disturbance vanishes
    weak = orc.gaussian_potential(1e-6, 0.3, 0.9, 0.06, dim=2)
    assert np.min(brn.beta_weight(weak, K)) > 1.0 - 1e-10
    with pytest.raises(DomainError):
        brn.beta_weight(pot, -1.0)


@pytest.mark.parametrize("dim, h", [(2, 0.06), (3, 0.12)])
def test_beta_weight_matches_dense_row_sums(dim, h):
    pot = orc.gaussian_potential(2.0, 0.3, 0.6, h, dim=dim)
    pts = pot.points()
    r = orc._grid_distances(pot, pts)
    np.fill_diagonal(r, 1.0)
    if dim == 2:
        g2 = np.abs(0.25j * sp.hankel1(0, K * r)) ** 2 * pot.h**2
    else:
        g2 = 1.0 / (4.0 * np.pi * r) ** 2 * pot.h**3
    np.fill_diagonal(g2, brn._self_cell_green_sq(dim, K, pot.h))
    ref = 1.0 / (1.0 + g2 @ np.abs(pot.flat()) ** 2)
    assert np.max(np.abs(brn.beta_weight(pot, K) - ref)) <= 1e-13 * np.max(1.0 - ref)


@pytest.mark.parametrize("overrides", [{}, {"amplitude": "4", "h": "0.045"}])
def test_born_run_builds_no_dense_green(overrides, monkeypatch):
    calls = []
    original = orc.grid_green_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(orc, "grid_green_matrix", counted)
    monkeypatch.setattr(brn, "grid_green_matrix", counted)
    rep = cli.run_scenario("born", cli.build_config("born", overrides=overrides))
    assert rep.passed
    assert len(calls) == 0
    assert rep.metrics["ls_residual"] <= 1e-12


def test_first_with_unit_weight_is_plain_born(setup):
    """Overriding the weight to one must reproduce the textbook first-order
    sum bit for bit, since both run through the same expression."""
    pot, u0, pts = setup
    r = brn.born_approximation(pot, u0, K, "first", pts, beta_override=1.0)
    gout = brn._exterior_green(pot, K, pts)
    plain = u0.values(pts) - gout @ (pot.flat() * u0.values(pot.points()))
    assert np.max(np.abs(r.field - plain)) == 0.0
    assert r.second_term is None
    assert np.all(r.beta_used == 1.0)


def test_weighted_first_differs_but_slightly(setup):
    pot, u0, pts = setup
    r_w = brn.born_approximation(pot, u0, K, "first", pts)
    r_1 = brn.born_approximation(pot, u0, K, "first", pts, beta_override=1.0)
    dev = np.max(np.abs(r_w.field - r_1.field))
    assert 0.0 < dev < 1e-2 * np.max(np.abs(r_1.field - u0.values(pts)))


def test_modified_second_term_phase_invariant(setup):
    pot, u0, pts = setup
    r0 = brn.born_approximation(pot, u0, K, "second-modified", pts)
    rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1.3j) * pot.values
    )
    r1 = brn.born_approximation(rot, u0, K, "second-modified", pts)
    scale = np.max(np.abs(r0.second_term))
    assert np.max(np.abs(r1.second_term - r0.second_term)) < 1e-13 * scale


def test_standard_second_term_rotates_with_global_phase(setup):
    # quadratic in Xi: a global phase e^{i phi} multiplies the term by e^{2i phi}
    pot, u0, pts = setup
    phi = 0.9
    r0 = brn.born_approximation(pot, u0, K, "second-standard", pts)
    rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1j * phi) * pot.values
    )
    r1 = brn.born_approximation(rot, u0, K, "second-standard", pts)
    assert np.allclose(r1.second_term, np.exp(2j * phi) * r0.second_term, rtol=1e-12)


def test_second_terms_have_opposite_sign(setup):
    pot, u0, pts = setup
    r_std = brn.born_approximation(pot, u0, K, "second-standard", pts)
    r_mod = brn.born_approximation(pot, u0, K, "second-modified", pts)
    ip = np.vdot(r_std.second_term, r_mod.second_term).real
    assert ip < 0.0
    # pointwise the real parts disagree in sign at every ring point here
    sgn = np.sign((np.conj(r_std.second_term) * r_mod.second_term).real)
    assert np.all(sgn < 0)


def test_alt_reading_is_different(setup):
    pot, u0, pts = setup
    a = brn.born_approximation(pot, u0, K, "second-modified", pts)
    b = brn.born_approximation(pot, u0, K, "second-modified", pts, alt_second_reading=True)
    assert np.max(np.abs(a.second_term - b.second_term)) > 0


def test_errors_against_volume_equation(setup):
    """Iterated second order should beat first order on a weak disturbance;
    relative errors against the dense volume-equation solution."""
    pot, u0, pts = setup
    u = orc.lippmann_schwinger(pot, u0, K)
    ref = orc.scattered_field_at(pot, u, u0, K, pts)

    def rel(order):
        f = brn.born_approximation(pot, u0, K, order, pts).field
        return np.linalg.norm(f - ref) / np.linalg.norm(ref)

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
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
        u = orc.lippmann_schwinger(pot, u0, K)
        ref = orc.scattered_field_at(pot, u, u0, K, pts) - u0.values(pts)
        f = brn.born_approximation(pot, u0, K, "second-standard", pts).field - u0.values(pts)
        errs.append(np.linalg.norm(f - ref) / np.linalg.norm(ref))
    assert errs[0] / errs[1] > 50.0  # two orders for a 10x weaker potential


def test_points_inside_support_rejected(setup):
    pot, u0, pts = setup
    with pytest.raises(UnsupportedRegionError):
        brn.born_approximation(pot, u0, K, "first", np.array([[0.0, 0.0]]))
    with pytest.raises(UnsupportedRegionError):
        brn.born_approximation(pot, u0, K, "first", np.array([[0.89, 0.89]]))


def test_bad_beta_override(setup):
    pot, u0, pts = setup
    with pytest.raises(DomainError):
        brn.born_approximation(pot, u0, K, "first", pts, beta_override=0.0)
    with pytest.raises(DomainError):
        brn.born_approximation(pot, u0, K, "first", pts, beta_override=1.5)


def test_dimension_mismatch(setup):
    pot, _, pts = setup
    u0_3d = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=K)
    with pytest.raises(DomainError):
        brn.born_approximation(pot, u0_3d, K, "first", pts)


def test_born_3d_first_order():
    pot = orc.gaussian_potential(0.05, 0.25, 0.6, 0.12, dim=3)
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=1.2)
    pts = np.array([[0.0, 0.0, 4.0], [3.0, 0.0, 0.0]])
    r = brn.born_approximation(pot, u0, 1.2, "first", pts)
    u = orc.lippmann_schwinger(pot, u0, 1.2)
    ref = orc.scattered_field_at(pot, u, u0, 1.2, pts)
    err = np.linalg.norm(r.field - ref) / np.linalg.norm(ref - u0.values(pts))
    assert err < 0.02
