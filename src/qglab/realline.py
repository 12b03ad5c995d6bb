"""Time-dispersive models on the real line.

The homogenised fiber family is unitarily equivalent to a Fourier multiplier
on L^2(R): on the dual variable t (|t| <= pi/eps) the solution operator acts
as division by L (K(eps t, z) - z), with L the total stiff length.  For ex0
and ex2 the same operator is realised as a finite-difference-in-x model
whose symbol separates into a z-dependent coefficient times the symbol
2(cos(eps t) - 1) of the second difference, plus a z-dependent scalar; for
ex1 the eps -> 0 limit is the differential model
    sigma^2 t^2 - (l1+l3) z - 2 a2 sqrt(z) tan(l2 sqrt(z)/(2 a2)),
approximated at O(eps^2) by the eps-dependent multiplier.

All computations run on a periodic box [-X, X) with numpy's FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import k_closed
from .graphs import MetricGraph
from .mmatrix import ccot, ccsc, sqrt_upper


def stiff_length(graph: MetricGraph) -> float:
    """Total length of the stiff component (the multiplier prefactor L)."""
    return sum(e.length for e in graph.edges if e.is_stiff)


@dataclass(frozen=True)
class LineGrid:
    """Uniform periodic grid on [-half_width, half_width)."""

    half_width: float
    size: int

    def __post_init__(self):
        if self.size < 16 or self.size % 2:
            raise ValueError("size must be an even integer >= 16")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(
            -self.half_width, self.half_width, self.size, endpoint=False
        )

    @property
    def t(self) -> np.ndarray:
        """Dual (frequency) grid matching numpy's FFT ordering."""
        dx = 2.0 * self.half_width / self.size
        return 2.0 * math.pi * np.fft.fftfreq(self.size, d=dx)


def make_line_grid(half_width: float = 32.0, size: int = 4096) -> LineGrid:
    return LineGrid(half_width=half_width, size=size)


def gaussian_packet(grid: LineGrid, width: float = 1.0, carrier: float = 2.0) -> np.ndarray:
    """Band-concentrated test datum exp(-x^2/(2 w^2)) cos(carrier x)."""
    x = grid.x
    return np.exp(-(x**2) / (2.0 * width**2)) * np.cos(carrier * x) + 0j


def multiplier_symbol(
    graph: MetricGraph, eps: float, z: complex, t: np.ndarray
) -> np.ndarray:
    """The multiplier L (K(eps t, z) - z) on the dual grid."""
    length = stiff_length(graph)
    vals = k_closed(graph, eps * np.asarray(t, dtype=float), z, eps=eps)
    return length * (vals - z)


def psi_k_apply(
    graph: MetricGraph,
    eps: float,
    z: complex,
    f: np.ndarray,
    grid: LineGrid,
    alias_tol: float = 1e-8,
) -> np.ndarray:
    """Apply the solution operator of the time-dispersive model:
    u_hat(t) = f_hat(t) / [L (K(eps t, z) - z)] on |t| <= pi/eps, 0 beyond.

    Raises when the datum carries more than ``alias_tol`` relative energy
    outside the retained band (the model would alias it away silently).
    """
    f = np.asarray(f, dtype=complex)
    t = grid.t
    f_hat = np.fft.fft(f)
    mask = np.abs(t) <= math.pi / eps
    total = np.linalg.norm(f_hat)
    if total > 0:
        outside = np.linalg.norm(f_hat[~mask])
        if outside / total > alias_tol:
            raise ValueError(
                f"datum has {outside / total:.2e} relative energy beyond |t| = pi/eps"
            )
    u_hat = np.zeros_like(f_hat)
    sym = multiplier_symbol(graph, eps, z, t[mask])
    if np.min(np.abs(sym)) < 1e-12:
        raise ArithmeticError("multiplier symbol vanishes on the grid")
    u_hat[mask] = f_hat[mask] / sym
    return np.fft.ifft(u_hat)


def difference_symbol(
    graph: MetricGraph, eps: float, z: complex, t: np.ndarray
) -> np.ndarray:
    """Symbol of the finite-difference realisation for ex0/ex2.

    ex0: -(a2 sqrt(z)/sin(l2 sqrt(z)/a2)) 2(cos(eps t) - 1)
         - [l1 z + 2 a2 sqrt(z) tan(l2 sqrt(z)/(2 a2))]
    ex2: -(a1 sqrt(z)/sin(l1 sqrt(z)/a1)) 2(cos(eps t) - 1)
         - [l3 z + 2 sqrt(z)(a1 tan(l1 sqrt(z)/(2 a1)) + a2 tan(l2 sqrt(z)/(2 a2)))]
    Both equal L (K(eps t, z) - z) identically.
    """
    p = graph.params
    k = sqrt_upper(z)
    hop = 2.0 * (np.cos(eps * np.asarray(t)) - 1.0)
    if graph.example == "ex0":
        y = k * p["l2"] / p["a2"]
        coeff = p["a2"] * k * ccsc(y)
        const = p["l1"] * z + 2.0 * p["a2"] * k * (ccsc(y) - ccot(y))
        return -coeff * hop - const
    if graph.example == "ex2":
        y1 = k * p["l1"] / p["a1"]
        y2 = k * p["l2"] / p["a2"]
        coeff = p["a1"] * k * ccsc(y1)
        const = p["l3"] * z + 2.0 * k * (
            p["a1"] * (ccsc(y1) - ccot(y1)) + p["a2"] * (ccsc(y2) - ccot(y2))
        )
        return -coeff * hop - const
    raise ValueError("the difference realisation exists for ex0/ex2")


def solve_difference_model(
    graph: MetricGraph, eps: float, z: complex, f: np.ndarray, grid: LineGrid
) -> np.ndarray:
    """Solve the ex0/ex2 finite-difference model by Fourier division
    (band-limited to |t| <= pi/eps like the multiplier model)."""
    f = np.asarray(f, dtype=complex)
    t = grid.t
    f_hat = np.fft.fft(f)
    mask = np.abs(t) <= math.pi / eps
    u_hat = np.zeros_like(f_hat)
    sym = difference_symbol(graph, eps, z, t[mask])
    if np.min(np.abs(sym)) < 1e-12:
        raise ArithmeticError("difference symbol vanishes on the grid")
    u_hat[mask] = f_hat[mask] / sym
    return np.fft.ifft(u_hat)


def differential_symbol_ex1(
    graph: MetricGraph, z: complex, t: np.ndarray
) -> np.ndarray:
    """Symbol of the limiting second-order model for ex1:
    sigma^2 t^2 - (l1+l3) z - 2 a2 sqrt(z) tan(l2 sqrt(z)/(2 a2)),
    which equals (l1+l3)(K_limit(t, z) - z)."""
    if graph.example != "ex1":
        raise ValueError("the differential model exists for ex1")
    p = graph.params
    k = sqrt_upper(z)
    sigma_sq = 1.0 / (p["l1"] / p["a1"] ** 2 + p["l3"] / p["a3"] ** 2)
    y = k * p["l2"] / p["a2"]
    const = (p["l1"] + p["l3"]) * z + 2.0 * p["a2"] * k * (ccsc(y) - ccot(y))
    return sigma_sq * np.asarray(t) ** 2 - const


def solve_differential_model_ex1(
    graph: MetricGraph, z: complex, f: np.ndarray, grid: LineGrid
) -> np.ndarray:
    """Solve the limiting ex1 model by Fourier division (full dual line)."""
    f = np.asarray(f, dtype=complex)
    sym = differential_symbol_ex1(graph, z, grid.t)
    if np.min(np.abs(sym)) < 1e-12:
        raise ArithmeticError("differential symbol vanishes on the grid")
    return np.fft.ifft(np.fft.fft(f) / sym)


def symbol_identity_defect(
    graph: MetricGraph, eps: float, z: complex, grid: LineGrid
) -> float:
    """max |model symbol - L (K(eps t, z) - z)| over the retained band.

    For ex0/ex2 the model is the finite-difference symbol at the same eps;
    for ex1 it is the limiting differential symbol against L (K_limit - z),
    where K_limit replaces the fraction (tau/eps) by the dual variable t
    directly (theta at tau = 0, i.e. cos y - 1 in the trigonometric part).
    """
    t = grid.t
    mask = np.abs(t) <= math.pi / eps
    tt = t[mask]
    if graph.example in ("ex0", "ex2"):
        model = difference_symbol(graph, eps, z, tt)
        target = multiplier_symbol(graph, eps, z, tt)
        return float(np.max(np.abs(model - target)))
    # ex1: K restricted to tau = eps*t reproduces sigma^2 t^2 exactly; the
    # limiting symbol drops the O(eps^2) part of Re(theta(eps t)), so compare
    # against the closed form with theta frozen at 1.
    p = graph.params
    k = sqrt_upper(z)
    y = k * p["l2"] / p["a2"]
    sigma_sq = 1.0 / (p["l1"] / p["a1"] ** 2 + p["l3"] / p["a3"] ** 2)
    target = (
        sigma_sq * tt**2
        + 2.0 * p["a2"] * k * (np.cos(y) - 1.0) * ccsc(y)
        - (p["l1"] + p["l3"]) * z
    )
    model = differential_symbol_ex1(graph, z, tt)
    return float(np.max(np.abs(model - target)))


def ex1_model_distance(
    graph: MetricGraph,
    eps: float,
    z: complex,
    grid: LineGrid,
    f: np.ndarray | None = None,
) -> float:
    """||Psi_K^eps f - Psi_K_limit f|| / ||f|| for a band-concentrated datum;
    decays at O(eps^2) as the eps-multiplier converges to the limit model."""
    if f is None:
        f = gaussian_packet(grid)
    u_eps = psi_k_apply(graph, eps, z, f, grid)
    u_lim = solve_differential_model_ex1(graph, z, f, grid)
    return float(np.linalg.norm(u_eps - u_lim) / np.linalg.norm(f))
