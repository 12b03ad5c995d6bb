"""Dispersion functions K(tau, z) of the effective fiber models.

Both routes are implemented: a spectral series over the Dirichlet
eigenfunctions of the soft component and a closed trigonometric form, with
the auxiliary lattice sums that connect them.  The closed forms carry the
soft-edge speeds explicitly and reduce to the unit-speed expressions when
a = 1.  ``band_roots`` solves K(tau, z) = z on the positive half-line, which
yields the limiting band structure.  Since 1/(K - z) is Herglotz, K - z
strictly decreases between consecutive poles of K, so every root is simple
and a sign-change scan of each pole interval finds them all; ``band_roots``
checks that decrease on its scan and raises ArithmeticError where it fails.
Each root is refined by ``_refine``, false position with the Illinois step
from the two scan values that bracket it, so the module needs only numpy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .graphs import EdgeSpec, MetricGraph, stiff_length
from .mmatrix import POLE_GUARD, cot_csc, sqrt_upper


def _cos(x):
    """cos of a complex scalar (cmath) or of an ndarray."""
    return np.cos(x) if isinstance(x, np.ndarray) else cmath.cos(x)


def _need_eps(cell, eps) -> None:
    if cell.germ and eps is None:
        raise ValueError(
            "a cell with a stiff cycle needs eps (quasimomentum t = tau/eps)"
        )


def k_closed(graph: MetricGraph, tau, z, eps: float | None = None):
    """Closed form of the dispersion function,

        K = [2 a_s k (cos y_s - c(tau)) csc y_s - 2 a_l k tan(y_l/2)
             + sigma^2 (tau/eps)^2] / L,      k = sqrt(z),  y_e = k l_e/a_e,

    with s the soft chain edge, l the soft loop edge, c(tau) the boundary
    coupling, sigma^2 the effective mass and L the stiff length, all read
    from the cell record.  The loop term is present for ex2 only, the germ
    term for ex1 only; it needs ``eps``, since t = tau/eps.

    ``tau`` and ``z`` may each be a scalar or an array; arrays broadcast
    against each other and give a complex ndarray, two scalars give a
    complex.  sqrt(z) is taken with Im >= 0.  PoleError is raised when any
    trigonometric argument lies within POLE_GUARD of a pole of cot/csc, or
    when tau is on the ex1 equal-impedance exclusion set.
    """
    cell = graph.cell
    _need_eps(cell, eps)
    if np.ndim(tau):
        tau = np.asarray(tau, dtype=float)
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)
    k = sqrt_upper(z)
    s = cell.chain
    y = k * s.length / s.speed_a
    _, csc = cot_csc(y)
    total = 2.0 * s.speed_a * k * (_cos(y) - cell.coupling(tau)) * csc
    if cell.loop is not None:
        cot, csc = cot_csc(k * cell.loop.length / cell.loop.speed_a)
        total = total - 2.0 * cell.loop.speed_a * k * (csc - cot)
    if cell.germ:
        total = total + cell.germ * (tau / eps) ** 2
    return total / stiff_length(graph)


def k_series(
    graph: MetricGraph,
    tau: float,
    z: complex,
    n_terms: int,
    eps: float | None = None,
):
    """Spectral-series form of the dispersion function, truncated at n_terms.

    K = (1/rho^2) { z * sum_j <v, phi_j> G(phi_j) / (mu_j - z) + G(v) },
    with phi_j the Dirichlet modes of the soft component, v the
    zero-energy lift of psi, and G the co-derivative boundary functional.
    On the chain edge (l, a) the summand products collapse to
    -(4 a^2/l)(1 - (-1)^j c(tau)) with mu_j = (a pi j/l)^2 and G(v) =
    (2 a^2/l)(1 - c(tau)); on the loop edge only odd modes couple, with
    product -8 a^2/l; the cell's germ adds sigma^2 (tau/eps)^2, and rho^2 is
    the stiff length L.  The truncation error decays like 1/n_terms.

    ``tau`` and ``z`` broadcast as in ``k_closed``.  The chain term is
    -(4 a^2/l) z (S - c(tau) A) with S = sum_j 1/(mu_j - z) and
    A = sum_j (-1)^j/(mu_j - z): the mode sums depend on z alone, so they
    are taken once per z, over a (z, J) stack, and then combined with c(tau)
    for every tau.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    cell = graph.cell
    _need_eps(cell, eps)
    if np.ndim(tau):
        tau = np.asarray(tau, dtype=float)
    z = np.asarray(z, dtype=complex)
    j = np.arange(1, n_terms + 1, dtype=float)

    def inverse_gaps(length, speed, modes):
        """The (z, J) stack 1/(mu_j - z), mu_j = (speed pi j/length)^2."""
        terms = (speed * math.pi * modes / length) ** 2 - z[..., None]
        return np.reciprocal(terms, out=terms)

    coupling = cell.coupling(tau)
    l, a = cell.chain.length, cell.chain.speed_a
    terms = inverse_gaps(l, a, j)
    plain = np.sum(terms, axis=-1)
    alt = np.sum(terms[..., 1::2], axis=-1) - np.sum(terms[..., ::2], axis=-1)
    total = -(4.0 * a**2 / l) * z * (plain - coupling * alt)
    if cell.loop is not None:
        l_l, a_l = cell.loop.length, cell.loop.speed_a
        odd = np.sum(inverse_gaps(l_l, a_l, j[::2]), axis=-1)
        total = total - (8.0 * a_l**2 / l_l) * z * odd
    total = total + (2.0 * a**2 / l) * (1.0 - coupling)
    if cell.germ:
        total = total + cell.germ * (tau / eps) ** 2
    return total / stiff_length(graph)


def on_lattice(x: float) -> bool:
    """Whether x^2 lies within 1e-12 of a lattice point (pi j)^2, j >= 0,
    where the closed forms of ``verify_sum_identities`` have a pole."""
    p = round(abs(x) / math.pi) * math.pi
    return abs(p * p - x * x) < 1e-12


# terms per block of the streamed lattice sums of ``verify_sum_identities``;
# at least numpy's pairwise leaf of 128 terms, so every block is one subtree
SUM_BLOCK = 1 << 15


def _pairwise(leaf, lo: int, n: int):
    """np.sum of the n terms lo, lo + 1, ... of a sequence, bit for bit,
    from ``leaf(lo, m)`` = np.sum of the m <= SUM_BLOCK terms from lo.

    numpy sums a run of more than 128 terms as the sum of its two halves,
    split at n//2 rounded down to a multiple of 8.  Splitting the same way
    down to runs of at most SUM_BLOCK terms, each of them one subtree of
    numpy's tree, gives numpy's total without holding the whole sequence.
    """
    if n <= SUM_BLOCK:
        return leaf(lo, n)
    h = n // 2
    h -= h % 8
    return _pairwise(leaf, lo, h) + _pairwise(leaf, lo + h, n - h)


def verify_sum_identities(x, n_terms: int) -> dict:
    """Deviation of the truncated lattice sums from their closed forms.

    sum_{j>=1} 1/((pi j)^2 - x^2)        = (1/x^2 - cos x/(x sin x)) / 2
    sum_{j>=1} (-1)^j/((pi j)^2 - x^2)   = (1/x^2 - 1/(x sin x)) / 2

    ``x`` is a scalar (float deviations) or an array (arrays of deviations
    of its shape).  The alternating sum is the sum over even j minus the
    sum over odd j.  Each sum streams its terms in blocks of SUM_BLOCK
    through ``_pairwise``, so it equals np.sum of the full array of terms
    while the working set stays two blocks (one lattice block serves every
    x) and a partial sum per x and tree level, whatever ``n_terms``.  An x
    ``on_lattice`` raises ValueError, as does n_terms < 1.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    xs = np.asarray(x, dtype=float)
    if any(map(on_lattice, xs.flat)):
        raise ValueError("x lies on a lattice point pi*j")
    squares = xs.ravel() * xs.ravel()
    denom = np.empty(min(n_terms, SUM_BLOCK))

    def lattice_sums(first: int, step: int, count: int) -> np.ndarray:
        """Per x, np.sum of 1/((pi j)^2 - x^2) over j = first, first + step,
        ... (count terms)."""

        def leaf(lo: int, m: int) -> np.ndarray:
            lattice = np.arange(first + step * lo, first + step * (lo + m), step, dtype=float)
            lattice *= math.pi
            lattice *= lattice
            block = denom[:m]
            sums = np.empty(squares.size)
            for i, square in enumerate(squares):
                np.subtract(lattice, square, out=block)
                sums[i] = np.sum(np.reciprocal(block, out=block))
            return sums

        return _pairwise(leaf, 0, count)

    plain_sums = lattice_sums(1, 1, n_terms)
    alt_sums = lattice_sums(2, 2, n_terms // 2) - lattice_sums(1, 2, (n_terms + 1) // 2)
    plain, alt = np.empty(xs.shape), np.empty(xs.shape)
    for i, xv in enumerate(xs.flat):
        closed_plain = 0.5 * (1.0 / xv**2 - math.cos(xv) / (xv * math.sin(xv)))
        closed_alt = 0.5 * (1.0 / xv**2 - 1.0 / (xv * math.sin(xv)))
        plain.flat[i] = abs(plain_sums[i] - closed_plain)
        alt.flat[i] = abs(alt_sums[i] - closed_alt)
    return {"plain": plain[()], "alternating": alt[()]}


# samples of the sign-change scan on each interval between consecutive poles,
# the absolute width below which a refined bracket is closed, and the most
# false-position steps a bracket may take
SCAN_POINTS = 256
ROOT_TOL = 1e-12
REFINE_STEPS = 100


def _refine(f, a: float, b: float, fa: float, fb: float) -> float:
    """The root of f in the bracket [a, b] from the values fa = f(a) and
    fb = f(b) of opposite signs, by false position with the Illinois step
    (Dowell & Jarratt, BIT 11, 1971).  b is always the newest point (at the
    start, the upper end).  The step x replaces whichever end has the sign
    of f(x); when that end is b, the value at the end kept, a, is halved,
    so a cannot stall as the end of plain false position does.

    The midpoint is returned once the bracket is narrower than
    ROOT_TOL + 1e-15 |midpoint|; an exact zero (an end or a step) is
    returned as it is.  A NaN value, or a bracket still open after
    REFINE_STEPS steps, raises ArithmeticError naming the bracket.
    """
    bracket = f"the bracket [{a:.17g}, {b:.17g}]"
    for _ in range(REFINE_STEPS):
        if fa == 0.0 or fb == 0.0:
            return a if fa == 0.0 else b
        mid = 0.5 * (a + b)
        if abs(b - a) < ROOT_TOL + 1e-15 * abs(mid):
            return mid
        x = b - fb * (b - a) / (fb - fa)
        fx = float(f(x))
        if math.isnan(fx):
            raise ArithmeticError(f"NaN value at z={x:.17g} in {bracket}")
        if (fx < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            fa /= 2
        b, fb = x, fx
    raise ArithmeticError(f"false position did not close {bracket} in {REFINE_STEPS} steps")


def _levels(edge: EdgeSpec, z_max: float, first: int = 1, step: int = 1):
    """(j, (a pi j/l)^2) for j = first, first + step, ... while the Dirichlet
    level of the soft edge (l, a) stays <= z_max."""
    j = first
    while (z := (edge.speed_a * math.pi * j / edge.length) ** 2) <= z_max:
        yield j, z
        j += step


def _pole_list(graph: MetricGraph, z_max: float):
    """Positive poles of z -> K(tau, z) up to z_max (tau-independent), as
    sorted (pole, parity, dz/dy) triples.

    A sine pole of index j couples through (1 - (-1)^j cos tau), so it is
    removable -- and then hosts a decoupled Dirichlet eigenvalue -- exactly
    when cos tau = parity = (-1)^j.  Odd half-poles of tan couple
    tau-independently and are never removable (parity None).  dz/dy =
    2 a sqrt(z)/l converts the trig pole guard into a distance in z.
    """
    chain, loop = graph.cell.chain, graph.cell.loop
    poles = [
        (z_p, (-1) ** j, 2.0 * chain.speed_a * math.sqrt(z_p) / chain.length)
        for j, z_p in _levels(chain, z_max)
    ]
    if loop is not None:
        poles += [
            (z_p, None, 2.0 * loop.speed_a * math.sqrt(z_p) / loop.length)
            for _, z_p in _levels(loop, z_max, step=2)
        ]
    poles.sort(key=lambda t: t[0])
    return poles


def flat_levels(graph: MetricGraph, z_max: float) -> list[float]:
    """tau-independent fiber eigenvalues carried by Dirichlet modes with
    identically vanishing boundary coupling (loop modes of even index)."""
    loop = graph.cell.loop
    if loop is None:
        return []
    return [z for _, z in _levels(loop, z_max, first=2, step=2)]


def band_roots(
    graph: MetricGraph,
    tau: float,
    z_max: float,
    eps: float | None = None,
) -> np.ndarray:
    """Limiting fiber eigenvalues in [0, z_max], sorted ascending.

    These are the roots of K(tau, z) = z between consecutive poles of K,
    together with the decoupled Dirichlet levels: removable poles at the
    symmetry points cos tau = +-1 and the tau-independent flat levels.
    z = 0 itself is reported as a root when K(tau, 0) vanishes.

    1/(K - z) is Herglotz (``lab.run_schur_check`` certifies it), so K - z
    strictly decreases in real z between its poles and each of its roots
    is simple: one sign-change scan of SCAN_POINTS samples per pole
    interval, each sign change refined by ``_refine`` from its two scan
    values, finds them all.  The scan values must decrease strictly; where
    they do not, ArithmeticError names tau and the interval instead of
    returning roots that may miss a tangency.  A refinement that meets a
    NaN or does not close its bracket raises ArithmeticError naming the
    bracket.  A z_max that is not positive and finite raises ValueError.
    """
    if not 0.0 < z_max < math.inf:
        raise ValueError(f"z_max must be positive and finite, got {z_max!r}")
    pole_data = _pole_list(graph, z_max * (1.0 + 1e-9))
    edges = [0.0] + [z for z, _, _ in pole_data] + [z_max]
    # smallest z-distance from each pole at which the trig guards stay clear
    pads = [10.0 * POLE_GUARD * slope for _, _, slope in pole_data]

    def f(z):
        # scalar for the refinement, array for the scans
        return (k_closed(graph, tau, z + 0j, eps=eps) - z).real

    roots: list[float] = list(flat_levels(graph, z_max))
    for z_p, parity, _ in pole_data:
        if parity is not None and abs(math.cos(tau) - parity) < 1e-9:
            roots.append(z_p)
    z0 = 1e-9
    if abs(f(z0)) <= 10.0 * z0:
        roots.append(0.0)
    n_poles = len(pole_data)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi <= lo:
            continue
        a = lo + pads[i - 1] if i >= 1 else max(lo, 1e-12)
        b = hi - pads[i] if i + 1 <= n_poles else hi
        if b <= a:
            continue
        grid = np.linspace(a, b, SCAN_POINTS)
        vals = f(grid)
        if not np.all(np.diff(vals) < 0.0):
            raise ArithmeticError(
                f"K(tau, z) - z is not strictly decreasing at tau={tau:.17g} "
                f"on the scan of [{a:.17g}, {b:.17g}]"
            )
        for j in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
            roots.append(_refine(f, *grid[j:j + 2].tolist(), *vals[j:j + 2].tolist()))
    return np.array(sorted(roots))
