"""Closed-form resolvent machinery on graph components.

Every per-edge solve uses the substitution u = e^{-i tau x} phi, which turns
-(c^2)(d/dx + i tau)^2 into -c^2 d^2/dx^2.  Kernel fields (solutions of the
homogeneous equation) are then phi = p cos(kappa x) + q sin(kappa x) with
kappa = k/c; the affine zero-energy field p + q x is needed only by the
stiff lift of ``effective.PsiEmbedding``, which forms it there.  The
Dirichlet decoupling is solved by the explicit sin-product Green kernel.

The boundary maps are
    Gamma0[V] = w_V(e) u_e(V)                  (common weighted value),
    Gamma1[V] = sum over incident edges of the signed weighted co-derivative
                w_V(e) c^2 (d/dx + i tau) u_e at V  (+ at coordinate 0,
                - at coordinate l_e).
Resolvents are realised as dense matrices acting on concatenated per-edge
trapezoid sample grids.  They are assembled from their structure: each edge
block of the Dirichlet kernel is rank one on either triangle, so it is built
from per-edge sine vectors by outer products, and the resolvent adds a
rank-N_vertices correction gamma(z) (M(z) - B)^{-1} Gamma1; the
weighted-Kirchhoff (Krein) resolvent is the case B = 0.

``ComponentKernels`` holds what needs no grid (end coefficients, M(z));
``ResolventWorkspace`` adds the grid it builds from a resolution, with the
phase e^{-i tau x} on it, and its ``_edge_samples`` is the one place where
the other trig functions meet the samples (the effective layer reads it).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeSpec, MetricGraph, datta_weights
from .mmatrix import FiberParams, PoleError, guard_pole, sqrt_upper


@dataclass(frozen=True)
class ComponentGrid:
    """Concatenated per-edge trapezoid sample grids for a component."""

    edges: tuple[EdgeSpec, ...]
    x: np.ndarray  # concatenated local coordinates
    w: np.ndarray  # trapezoid quadrature weights
    slices: tuple[slice, ...]

    @property
    def size(self) -> int:
        return self.x.size


def make_grid(component: MetricGraph, resolution: int) -> ComponentGrid:
    """Per-edge uniform grids with >= resolution*length intervals per edge."""
    xs, ws, slices = [], [], []
    start = 0
    for e in component.edges:
        m = max(4, int(round(resolution * e.length)))
        x = np.linspace(0.0, e.length, m + 1)
        h = e.length / m
        w = np.full(m + 1, h)
        w[0] = w[-1] = h / 2.0
        xs.append(x)
        ws.append(w)
        slices.append(slice(start, start + m + 1))
        start += m + 1
    return ComponentGrid(
        edges=tuple(component.edges),
        x=np.concatenate(xs),
        w=np.concatenate(ws),
        slices=tuple(slices),
    )


class ComponentKernels:
    """The closed-form kernel-field data of one component (the full graph, or
    its stiff or soft part): per-edge wavenumbers and end coefficients, and
    the M-matrix.  Needs no sample grid.  Its Datta weights are those of
    the component at the fiber's tau."""

    def __init__(self, component: MetricGraph, fiber: FiberParams):
        self.component = component
        self.weights = datta_weights(component, fiber.tau)
        self.fiber = fiber
        self.vertices = tuple(sorted(component.vertices))
        self._vidx = {v: i for i, v in enumerate(self.vertices)}

    @property
    def nvert(self) -> int:
        return len(self.vertices)

    def _kappa(self, edge: EdgeSpec, z: complex) -> complex:
        return sqrt_upper(z) / self.fiber.speed(edge)

    def _end_coeffs(self, edge: EdgeSpec, kappa: complex):
        """(cos kappa l, sin kappa l, e^{-i tau l}, q_l, q_r) on ``edge``.

        The kernel field with Gamma0 = e_V at the left end V is
        e^{-i tau x}(conj(w_l) cos kappa x + q_l sin kappa x); the one with
        Gamma0 = e_V at the right end is e^{-i tau x} q_r sin kappa x.
        """
        guard_pole(kappa * edge.length)
        cos_l = cmath.cos(kappa * edge.length)
        sin_l = cmath.sin(kappa * edge.length)
        e_l = cmath.exp(-1j * self.fiber.tau * edge.length)
        q_l = -np.conj(self.weights[(edge.left, edge.id)]) * cos_l / sin_l
        q_r = np.conj(e_l) * np.conj(self.weights[(edge.right, edge.id)]) / sin_l
        return cos_l, sin_l, e_l, q_l, q_r

    def m_matrix(self, z: complex) -> np.ndarray:
        """M(z) = Gamma1 of the kernel fields, one edge at a time."""
        out = np.zeros((self.nvert, self.nvert), dtype=complex)
        for e in self.component.edges:
            kappa = self._kappa(e, z)
            cos_l, sin_l, e_l, q_l, q_r = self._end_coeffs(e, kappa)
            c2 = self.fiber.speed(e) ** 2
            il, ir = self._vidx[e.left], self._vidx[e.right]
            wl, wr = self.weights[(e.left, e.id)], self.weights[(e.right, e.id)]
            # + w c^2 (d/dx + i tau) u at coordinate 0, - at coordinate l
            out[il, il] += wl * c2 * (kappa * q_l)
            out[ir, il] -= wr * c2 * (
                e_l * (kappa * (-np.conj(wl) * sin_l + q_l * cos_l))
            )
            out[il, ir] += wl * c2 * (kappa * q_r)
            out[ir, ir] -= wr * c2 * (e_l * (kappa * (q_r * cos_l)))
        return out


class ResolventWorkspace(ComponentKernels):
    """The resolvent maps of one component as dense matrices on its sample
    grid ``make_grid(component, resolution)``, which it builds itself."""

    def __init__(self, component: MetricGraph, fiber: FiberParams, resolution: int):
        super().__init__(component, fiber)
        self.grid = make_grid(component, resolution)
        # e^{-i tau x} on every sample: the only z-independent trig factor
        self.phase = np.exp(-1j * fiber.tau * self.grid.x)

    def _edge_samples(self, z: complex):
        """Per grid edge: (edge, slice, c, kappa, e^{-i tau x}, cos(kappa x),
        sin(kappa x), sin(kappa (l - x)), sin(kappa l)) on the edge's samples
        x.  The phase is the workspace's; the rest is evaluated here."""
        g = self.grid
        for e, sl in zip(g.edges, g.slices):
            c = self.fiber.speed(e)
            kappa = self._kappa(e, z)
            guard_pole(kappa * e.length)
            x = g.x[sl]
            yield (
                e, sl, c, kappa,
                self.phase[sl],
                np.cos(kappa * x),
                np.sin(kappa * x),
                np.sin(kappa * (e.length - x)),
                np.sin(kappa * e.length),
            )

    # -- Dirichlet decoupling, kernel lift and its dual ----------------

    def dirichlet_matrix(self, z: complex) -> np.ndarray:
        """Sample-space matrix of the Dirichlet (decoupled) resolvent.

        Block-diagonal over edges, kernel
        e^{-i tau (x - y)} sin(kappa x_<) sin(kappa (l - x_>))
        / (c^2 kappa sin(kappa l)), composed with trapezoid weights in y.
        The kernel is rank one on each triangle of an edge block: with
        a = sin(kappa x) and b = sin(kappa (l - x)) on the ascending edge
        grid, the upper triangle is a_i b_j and the lower one a_j b_i.  The
        phase e^{-i tau x_i} and the factor e^{i tau y_j} w_j / (c^2 kappa
        sin(kappa l)) ride on those vectors, so each block is two outer
        products, one copied into the strict lower triangle, with no n^2
        transcendental calls.
        """
        g = self.grid
        out = np.zeros((g.size, g.size), dtype=complex)
        for e, sl, c, kappa, left, _, a, b, sin_l in self._edge_samples(z):
            right = np.conj(left) * g.w[sl] / (c * c * kappa * sin_l)
            block = out[sl, sl]
            np.multiply.outer(left * a, b * right, out=block)
            lower = np.tri(a.size, k=-1, dtype=bool)
            np.copyto(block, np.outer(left * b, a * right), where=lower)
        return out

    def gamma_matrix(self, z: complex) -> np.ndarray:
        """n x N matrix of samples of gamma(z) e_V."""
        g = self.grid
        out = np.zeros((g.size, self.nvert), dtype=complex)
        for e, sl, _, kappa, phase, cos_x, a, _, _ in self._edge_samples(z):
            _, _, _, q_l, q_r = self._end_coeffs(e, kappa)
            wl_bar = np.conj(self.weights[(e.left, e.id)])
            out[sl, self._vidx[e.left]] += phase * (wl_bar * cos_x + q_l * a)
            out[sl, self._vidx[e.right]] += phase * (q_r * a)
        return out

    def gamma1_dirichlet_rows(self, z: complex) -> np.ndarray:
        """N x n matrix of Gamma1 (A_inf - z)^{-1} as quadrature functionals.

        Row V applied to samples f gives the signed weighted co-derivative
        sum of the Dirichlet solution at V.
        """
        g = self.grid
        out = np.zeros((self.nvert, g.size), dtype=complex)
        for e, sl, _, _, phase, _, a, b, sin_l in self._edge_samples(z):
            base = np.conj(phase) * g.w[sl] / sin_l
            # left endpoint: + w c^2 e^{-i tau 0} dphi(0) with
            # dphi(0) = int sin(kappa (l - y)) g(y) dy / (c^2 sin kappa l)
            wl = self.weights[(e.left, e.id)]
            out[self._vidx[e.left], sl] += wl * base * b
            # right endpoint: - w c^2 e^{-i tau l} dphi(l) with
            # dphi(l) = -int sin(kappa y) g(y) dy / (c^2 sin kappa l)
            wr = self.weights[(e.right, e.id)]
            out[self._vidx[e.right], sl] += (
                wr * cmath.exp(-1j * self.fiber.tau * e.length) * base * a
            )
        return out

    # -- resolvent ---------------------------------------------------------

    def generalized_matrix(self, z: complex, b_of_z: np.ndarray | float) -> np.ndarray:
        """Generalised resolvent with z-dependent boundary matrix B(z).

        R(z) = Dirichlet - gamma(z) (M(z) - B(z))^{-1} Gamma1 Dirichlet,
        computed on this (sub)component.  B = 0 gives the resolvent of the
        weighted-Kirchhoff extension (the Krein formula); with B = -M_stiff
        of the full graph it is the sandwiched soft-component resolvent.
        """
        denom = self.m_matrix(z) - b_of_z
        cond = np.linalg.cond(denom)
        if not np.isfinite(cond) or cond > 1e14:
            raise PoleError(f"M(z) - B(z) nearly singular (cond={cond:.2e})")
        return self.dirichlet_matrix(z) - self.gamma_matrix(z) @ np.linalg.solve(
            denom, self.gamma1_dirichlet_rows(z)
        )
