"""Quadrature surfaces for the scatterers.

A Surface is a plain container of quadrature nodes: positions, unit outward
normals, and positive weights that sum to the surface measure. Axisymmetric
3D bodies (sphere, prolate spheroid) use a tensor grid of Gauss-Legendre
nodes in cos(theta) times a uniform azimuth grid, which integrates smooth
integrands spectrally and keeps Legendre products exactly orthogonal up to
the quadrature degree. The 2D strip uses endpoint-clustered nodes from the
cosine map, matching how the field varies fastest near the screen edges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import DomainError

MIN_RESOLUTION = 4


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")


@dataclass(frozen=True)
class Strip:
    """Zero-thickness planar screen of the given width, lying on the x axis."""

    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise DomainError("strip width must be positive")


@dataclass(frozen=True)
class Spheroid:
    """Prolate spheroid with equatorial radius a and polar radius c > a."""

    equatorial_radius: float
    polar_radius: float

    def __post_init__(self):
        if self.equatorial_radius <= 0:
            raise DomainError("spheroid radii must be positive")
        if self.polar_radius <= self.equatorial_radius:
            raise DomainError(
                "spheroid must be prolate: polar radius c must exceed "
                f"equatorial radius a (got a={self.equatorial_radius}, "
                f"c={self.polar_radius})"
            )


Shape = Union[Sphere, Strip, Spheroid]


@dataclass(frozen=True, eq=False)
class Surface:
    """Quadrature representation of a scattering surface.

    Attributes
    ----------
    positions : (N, dim) float array of node coordinates.
    normals : (N, dim) float array of unit outward normals per node.
    weights : (N,) positive quadrature weights summing to the surface measure.
    closed : whether the surface encloses a volume.
    char_size : characteristic size (largest chord) used for scale checks.

    The ambient dimension `dim` (2 or 3) is read off the positions.
    """

    positions: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    closed: bool
    char_size: float

    def __post_init__(self):
        p, n, w = self.positions, self.normals, self.weights
        if p.ndim != 2 or p.shape[1] not in (2, 3) or n.shape != p.shape or w.shape != p.shape[:1]:
            raise ValueError("surface arrays must be (N, dim) positions and normals with "
                             "dim 2 or 3, and (N,) weights")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        norms = np.linalg.norm(n, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("normals must be unit vectors")
        if self.char_size <= 0:
            raise ValueError("char_size must be positive")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]


def physical_memory() -> int:
    """Bytes of physical memory: the bound of the allocation guards."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].

    numpy solves an n x n companion matrix; a degree whose 8 n^2 bytes exceed
    physical memory raises MemoryError before numpy allocates anything.
    """
    need = 8 * int(n) ** 2
    have = physical_memory()
    if need > have:
        raise MemoryError(
            f"Gauss-Legendre degree {n} needs a {need}-byte companion matrix, "
            f"more than the {have} bytes of physical memory"
        )
    return np.polynomial.legendre.leggauss(n)


def _axisymmetric_grid(resolution: int, n_phi: int = 0, shift: float = 0.0):
    """Gauss nodes in u = cos(theta) crossed with a uniform azimuth grid.

    n_phi azimuths (default 2 * resolution) start shift cells from phi = 0.
    """
    u, wu = gauss_legendre(resolution)
    n_phi = n_phi or 2 * resolution
    phi = 2.0 * np.pi * (np.arange(n_phi) + shift) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    uu = np.repeat(u, n_phi)
    ww = np.repeat(wu, n_phi) * w_phi
    pp = np.tile(phi, resolution)
    return uu, pp, ww


def make_surface(shape: Shape, resolution: int) -> Surface:
    """Build the quadrature surface for a supported shape.

    resolution controls the polar node count for 3D bodies (azimuth gets
    twice that) and the node count for the 2D strip. Must be at least 4.
    """
    if resolution < MIN_RESOLUTION:
        raise DomainError(
            f"resolution {resolution} is below the minimum {MIN_RESOLUTION}"
        )
    if isinstance(shape, Sphere):
        return _sphere_surface(shape.radius, resolution)
    if isinstance(shape, Spheroid):
        return _spheroid_surface(shape.equatorial_radius, shape.polar_radius, resolution)
    if isinstance(shape, Strip):
        return _strip_surface(shape.width, resolution)
    raise ValueError(f"unsupported shape {shape!r}")


def _sphere_surface(radius: float, resolution: int, n_phi: int = 0, shift: float = 0.0) -> Surface:
    u, phi, w = _axisymmetric_grid(resolution, n_phi, shift)
    s = np.sqrt(1.0 - u * u)
    normals = np.column_stack((s * np.cos(phi), s * np.sin(phi), u))
    positions = radius * normals
    weights = radius * radius * w
    return Surface(
        positions=positions,
        normals=normals,
        weights=weights,
        closed=True,
        char_size=2.0 * radius,
    )


def odd_azimuth_sphere_surface(radius: float, resolution: int) -> Surface:
    """Sphere grid with 2 * resolution + 1 azimuths at cell midpoints.

    An even azimuth count makes the node set antipodally symmetric, which
    forces every quadrature pairing of plane-wave traces to be exactly real
    regardless of resolution; an odd count breaks the pairing so the
    imaginary-part diagnostic can actually measure quadrature error.
    """
    return _sphere_surface(radius, resolution, 2 * resolution + 1, 0.5)


def gauss_midpoint_directions(n_polar: int) -> np.ndarray:
    """Unit directions: Gauss nodes in cos(theta) times 2 n_polar midpoint azimuths."""
    return _sphere_surface(1.0, n_polar, 2 * n_polar, 0.5).normals


def _spheroid_surface(a: float, c: float, resolution: int) -> Surface:
    u, phi, w = _axisymmetric_grid(resolution)
    s = np.sqrt(1.0 - u * u)
    x = a * s * np.cos(phi)
    y = a * s * np.sin(phi)
    z = c * u
    positions = np.column_stack((x, y, z))
    # Outward normal direction is the gradient of (x^2+y^2)/a^2 + z^2/c^2.
    raw = np.column_stack((x / a**2, y / a**2, z / c**2))
    normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # dS = a * sqrt(c^2 (1-u^2) + a^2 u^2) du dphi
    weights = a * np.sqrt(c * c * (1.0 - u * u) + a * a * u * u) * w
    return Surface(
        positions=positions,
        normals=normals,
        weights=weights,
        closed=True,
        char_size=2.0 * c,
    )


def _strip_surface(width: float, resolution: int) -> Surface:
    # Cosine-map cells: edges at -w/2 cos(pi j / N) cluster nodes toward the
    # strip ends; node j sits at the cell's angular midpoint.
    j = np.arange(resolution)
    edges = -0.5 * width * np.cos(np.pi * np.arange(resolution + 1) / resolution)
    nodes_x = -0.5 * width * np.cos(np.pi * (j + 0.5) / resolution)
    weights = np.diff(edges)
    positions = np.column_stack((nodes_x, np.zeros(resolution)))
    normals = np.column_stack((np.zeros(resolution), np.ones(resolution)))
    return Surface(
        positions=positions,
        normals=normals,
        weights=weights,
        closed=False,
        char_size=width,
    )
