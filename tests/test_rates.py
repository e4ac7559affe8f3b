"""The paper's claim as a measured rate: the diagonal solve's residual on the strip.

Solution constituents that oscillate along a long frontier are nearly
orthogonal, so the diagonal solve should improve as the frequency rises. At
two plane-wave directions per wavelength (basis_size = kd/pi, W = 1/2) the
strip's exact Gram matrix is diagonal, and the diagonal boundary residual
falls as r = 2 / sqrt(pi kd): the relative size of the edge-diffracted field
in Keller's geometrical theory of diffraction. On the default grid (four
directions per wavelength, W = 1/4) the hard residual instead rises toward 1,
a documented finding of the README.
"""

import math

import pytest

from waveortho import cli


def _diagonal_residual(kd: float, basis_size: int) -> float:
    cfg = cli.build_config("strip", overrides={
        "kd": repr(kd), "bc": "hard", "basis_size": str(basis_size), "with_bem": "false"})
    return cli.run_scenario("strip", cfg).residuals["diagonal"]


@pytest.mark.parametrize("kd_over_pi", [16, 64])
def test_half_wavelength_grid_residual_falls_as_edge_diffraction(kd_over_pi):
    r = _diagonal_residual(kd_over_pi * math.pi, kd_over_pi)
    assert r * math.sqrt(kd_over_pi) == pytest.approx(2.0 / math.pi, rel=0.01)


def test_default_grid_hard_residual_rises_with_frequency():
    residuals = [_diagonal_residual(n * math.pi, 0) for n in (4, 8, 16)]
    # measured 0.9613, 0.9777 and 0.9883: 1 - r halves per doubling of kd
    assert residuals[0] < residuals[1] < residuals[2] < 1.0
