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

All computations run on a periodic box [-X, X) with numpy's FFT.  The three
solvers share one band-limited Fourier division: it refuses a datum with
energy beyond the band (ArithmeticError) and raises PoleError where the
symbol vanishes.  Each solver takes the datum as an array or as a
``LineDatum``, which transforms it once for every division that reads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dispersion import k_closed
from .graphs import MetricGraph, stiff_length
from .mmatrix import PoleError, ccot, ccsc, sqrt_upper


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


MIN_GRID_SIZE = 16


@dataclass(frozen=True)
class LineGrid:
    """Uniform periodic grid on [-half_width, half_width)."""

    half_width: float
    size: int

    def __post_init__(self):
        if self.size < MIN_GRID_SIZE or self.size % 2:
            raise ValueError(f"size must be an even integer >= {MIN_GRID_SIZE}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @cached_property
    def x(self) -> np.ndarray:
        """The grid points, computed once per grid (read-only)."""
        return _read_only(np.linspace(
            -self.half_width, self.half_width, self.size, endpoint=False
        ))

    @cached_property
    def t(self) -> np.ndarray:
        """Dual (frequency) grid matching numpy's FFT ordering, computed once
        per grid (read-only)."""
        dx = 2.0 * self.half_width / self.size
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.size, d=dx))


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


class LineDatum:
    """A datum f on a line grid whose discrete Fourier transform is taken on
    first read and kept, so that every Fourier division of f reads the one
    transform.  ``f_hat`` is read-only; ``energy`` is its 2-norm and
    ``norm`` that of f."""

    def __init__(self, f: np.ndarray):
        self.f = f

    @cached_property
    def f_hat(self) -> np.ndarray:
        return _read_only(np.fft.fft(np.asarray(self.f, dtype=complex)))

    @cached_property
    def energy(self) -> float:
        return np.linalg.norm(self.f_hat)

    @cached_property
    def norm(self) -> float:
        return np.linalg.norm(self.f)


def _datum(f: np.ndarray | LineDatum) -> LineDatum:
    return f if isinstance(f, LineDatum) else LineDatum(f)


ALIAS_TOL = 1e-8


def _band_divide(f, grid: LineGrid, band: float, symbol):
    """Fourier division u_hat = f_hat / symbol(t) on |t| <= band, 0 beyond,
    of a datum given as an array or a ``LineDatum``.

    Raises ArithmeticError when the datum carries more than ALIAS_TOL
    relative energy outside the band (the division would drop it silently),
    and PoleError when the symbol vanishes on the band.
    """
    datum = _datum(f)
    t = grid.t
    f_hat = datum.f_hat
    mask = np.abs(t) <= band
    total = datum.energy
    if total > 0:
        outside = np.linalg.norm(f_hat[~mask])
        if outside / total > ALIAS_TOL:
            raise ArithmeticError(
                f"datum has {outside / total:.2e} relative energy beyond |t| = {band:g}"
            )
    u_hat = np.zeros_like(f_hat)
    sym = symbol(t[mask])
    if np.min(np.abs(sym)) < 1e-12:
        raise PoleError("model symbol vanishes on the grid")
    u_hat[mask] = f_hat[mask] / sym
    return np.fft.ifft(u_hat)


def psi_k_apply(
    graph: MetricGraph, eps: float, z: complex, f: np.ndarray | LineDatum,
    grid: LineGrid,
) -> np.ndarray:
    """Apply the solution operator of the time-dispersive model:
    u_hat(t) = f_hat(t) / [L (K(eps t, z) - z)] on |t| <= pi/eps, 0 beyond.

    Raises ArithmeticError when the datum carries more than ALIAS_TOL
    relative energy outside the retained band (the model would alias it
    away silently).
    """
    return _band_divide(
        f, grid, math.pi / eps, lambda t: multiplier_symbol(graph, eps, z, t)
    )


def _symbol_constant(graph: MetricGraph, z: complex, k: complex) -> complex:
    """L z + 2 k sum_soft a tan(k l/(2 a)), the t-independent part shared by
    the difference and differential symbols (sum over the soft edges)."""
    tan_sum = 0.0
    for e in graph.edges:
        if not e.is_stiff:
            y = k * e.length / e.speed_a
            tan_sum = tan_sum + e.speed_a * (ccsc(y) - ccot(y))  # a tan(y/2)
    return stiff_length(graph) * z + 2.0 * k * tan_sum


def difference_symbol(
    graph: MetricGraph, eps: float, z: complex, t: np.ndarray
) -> np.ndarray:
    """Symbol of the finite-difference realisation for cells without a
    stiff cycle (ex0/ex2): with (l_s, a_s) the soft chain edge,

        -(a_s sqrt(z)/sin(l_s sqrt(z)/a_s)) 2(cos(eps t) - 1)
        - [L z + 2 sqrt(z) sum_soft a tan(l sqrt(z)/(2 a))],

    which equals L (K(eps t, z) - z) identically.
    """
    if graph.cell.germ:
        raise ValueError("the difference realisation exists for ex0/ex2")
    s = graph.cell.chain
    k = sqrt_upper(z)
    hop = 2.0 * (np.cos(eps * np.asarray(t)) - 1.0)
    coeff = s.speed_a * k * ccsc(k * s.length / s.speed_a)
    return -coeff * hop - _symbol_constant(graph, z, k)


def solve_difference_model(
    graph: MetricGraph, eps: float, z: complex, f: np.ndarray | LineDatum,
    grid: LineGrid,
) -> np.ndarray:
    """Solve the ex0/ex2 finite-difference model by Fourier division,
    band-limited to |t| <= pi/eps (and alias-checked) like the multiplier
    model."""
    return _band_divide(
        f, grid, math.pi / eps, lambda t: difference_symbol(graph, eps, z, t)
    )


def differential_symbol_ex1(
    graph: MetricGraph, z: complex, t: np.ndarray
) -> np.ndarray:
    """Symbol of the limiting second-order model for ex1:
    sigma^2 t^2 - (l1+l3) z - 2 a2 sqrt(z) tan(l2 sqrt(z)/(2 a2)),
    which equals (l1+l3)(K_limit(t, z) - z)."""
    if not graph.cell.germ:
        raise ValueError("the differential model exists for ex1")
    constant = _symbol_constant(graph, z, sqrt_upper(z))
    return graph.cell.germ * np.asarray(t) ** 2 - constant


def solve_differential_model_ex1(
    graph: MetricGraph, z: complex, f: np.ndarray | LineDatum, grid: LineGrid
) -> np.ndarray:
    """Solve the limiting ex1 model by Fourier division (full dual line)."""
    return _band_divide(
        f, grid, math.inf, lambda t: differential_symbol_ex1(graph, z, t)
    )


def symbol_identity_defect(
    graph: MetricGraph, eps: float, z: complex, grid: LineGrid
) -> float:
    """max |model symbol - L (K(eps t, z) - z)| over the retained band.

    Without a stiff cycle (ex0/ex2) the model is the finite-difference
    symbol at the same eps; with one (ex1, sigma^2 != 0) it is the limiting
    differential symbol against L (K_limit - z), where K_limit replaces the
    fraction (tau/eps) by the dual variable t directly (theta at tau = 0,
    i.e. cos y - 1 in the trigonometric part).
    """
    t = grid.t
    mask = np.abs(t) <= math.pi / eps
    tt = t[mask]
    cell = graph.cell
    if not cell.germ:
        model = difference_symbol(graph, eps, z, tt)
        target = multiplier_symbol(graph, eps, z, tt)
        return float(np.max(np.abs(model - target)))
    # ex1: K restricted to tau = eps*t reproduces sigma^2 t^2 exactly; the
    # limiting symbol drops the O(eps^2) part of Re(theta(eps t)), so compare
    # against the closed form with theta frozen at 1.
    s = cell.chain
    k = sqrt_upper(z)
    y = k * s.length / s.speed_a
    target = (
        cell.germ * tt**2
        + 2.0 * s.speed_a * k * (np.cos(y) - 1.0) * ccsc(y)
        - stiff_length(graph) * z
    )
    model = differential_symbol_ex1(graph, z, tt)
    return float(np.max(np.abs(model - target)))


def ex1_model_distance(
    graph: MetricGraph,
    eps: float,
    z: complex,
    grid: LineGrid,
    f: np.ndarray | LineDatum | None = None,
    limit: Callable[[], np.ndarray] | None = None,
) -> float:
    """||Psi_K^eps f - Psi_K_limit f|| / ||f|| for a band-concentrated datum
    (default ``gaussian_packet(grid)``); decays at O(eps^2) as the
    eps-multiplier converges to the limit model.

    The limit solution Psi_K_limit f does not depend on eps.  ``limit``, when
    given, returns it (for this graph, z, datum and grid), so that a sweep
    over eps can solve it once; it is called after the eps-model is solved.
    """
    datum = _datum(gaussian_packet(grid) if f is None else f)
    u_eps = psi_k_apply(graph, eps, z, datum, grid)
    if limit is None:
        u_lim = solve_differential_model_ex1(graph, z, datum, grid)
    else:
        u_lim = limit()
    return float(np.linalg.norm(u_eps - u_lim) / datum.norm)
