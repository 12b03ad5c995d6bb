"""Closed-form resolvent machinery on graph components.

Every per-edge solve uses the substitution u = e^{-i tau x} phi, which turns
-(c^2)(d/dx + i tau)^2 into -c^2 d^2/dx^2.  Kernel fields (solutions of the
homogeneous equation) are then phi = p cos(kappa x) + q sin(kappa x) with
kappa = k/c, or affine p + q x at z = 0.  The Dirichlet decoupling is solved
by the explicit sin-product Green kernel.

The boundary maps are
    Gamma0[V] = w_V(e) u_e(V)                  (common weighted value),
    Gamma1[V] = sum over incident edges of the signed weighted co-derivative
                w_V(e) c^2 (d/dx + i tau) u_e at V  (+ at coordinate 0,
                - at coordinate l_e).
Resolvents are realised as dense matrices acting on concatenated per-edge
trapezoid sample grids.  They are assembled from their structure: each edge
block of the Dirichlet kernel is rank one on either triangle, so it is built
from per-edge sine vectors by outer products, and the Krein and generalised
resolvents add a rank-N_vertices correction gamma(z) (M(z) - B)^{-1} Gamma1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeSpec, MetricGraph
from .mmatrix import FiberParams, PoleError, guard_pole

_SMALL = 1e-8


def _int_exp(mu: complex, l: float) -> complex:
    """Integral of e^{mu x} over [0, l], stable for small mu."""
    if abs(mu) * l < 1e-8:
        return l * (1.0 + mu * l / 2.0 + (mu * l) ** 2 / 6.0)
    return (cmath.exp(mu * l) - 1.0) / mu


def _int_x_exp(mu: complex, l: float) -> complex:
    """Integral of x e^{mu x} over [0, l], stable for small mu."""
    if abs(mu) * l < 1e-6:
        return l * l * (0.5 + mu * l / 3.0 + (mu * l) ** 2 / 8.0)
    e = cmath.exp(mu * l)
    return (l * e - (e - 1.0) / mu) / mu


@dataclass(frozen=True)
class ExactField:
    """Closed-form field on one edge: u(x) = e^{-i tau x} phi(x).

    kappa is None for the affine (zero-energy) case phi = p + q x;
    otherwise phi = p cos(kappa x) + q sin(kappa x).
    """

    edge: EdgeSpec
    tau: float
    kappa: complex | None
    p: complex
    q: complex

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        if self.kappa is None:
            return self.p + self.q * x
        return self.p * np.cos(self.kappa * x) + self.q * np.sin(self.kappa * x)

    def dphi(self, x):
        x = np.asarray(x, dtype=float)
        if self.kappa is None:
            return self.q * np.ones_like(x, dtype=complex)
        return self.kappa * (
            -self.p * np.sin(self.kappa * x) + self.q * np.cos(self.kappa * x)
        )

    def u(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-1j * self.tau * x) * self.phi(x)

    def du(self, x):
        """The modified derivative (d/dx + i tau) u = e^{-i tau x} phi'."""
        x = np.asarray(x, dtype=float)
        return np.exp(-1j * self.tau * x) * self.dphi(x)

    def _exp_coeffs(self):
        """phi as A_plus e^{i kappa x} + A_minus e^{-i kappa x}."""
        return (self.p - 1j * self.q) / 2.0, (self.p + 1j * self.q) / 2.0


def field_inner(f: ExactField, g: ExactField) -> complex:
    """Exact L2 inner product <f, g> = int u_f conj(u_g) on the shared edge."""
    if f.edge.id != g.edge.id or abs(f.edge.length - g.edge.length) > 0:
        raise ValueError("fields live on different edges")
    l = f.edge.length
    if f.kappa is None and g.kappa is None:
        p1, q1, p2, q2 = f.p, f.q, np.conj(g.p), np.conj(g.q)
        return (
            p1 * p2 * l
            + (p1 * q2 + q1 * p2) * l * l / 2.0
            + q1 * q2 * l**3 / 3.0
        )
    if f.kappa is not None and g.kappa is not None:
        af = f._exp_coeffs()
        ag = tuple(np.conj(c) for c in g._exp_coeffs())
        kf, kg = f.kappa, np.conj(g.kappa)
        total = 0.0 + 0.0j
        for sf, cf in zip((1, -1), af):
            for sg, cg in zip((1, -1), ag):
                total += cf * cg * _int_exp(1j * (sf * kf - sg * kg), l)
        return total
    if f.kappa is None:  # affine x oscillatory
        ag = tuple(np.conj(c) for c in g._exp_coeffs())
        kg = np.conj(g.kappa)
        total = 0.0 + 0.0j
        for sg, cg in zip((1, -1), ag):
            mu = -1j * sg * kg
            total += cg * (f.p * _int_exp(mu, l) + f.q * _int_x_exp(mu, l))
        return total
    return np.conj(field_inner(g, f))


class ComponentFrame:
    """Boundary-triple frame on a component (full, stiff, or soft subgraph)."""

    def __init__(
        self,
        component: MetricGraph,
        weights: dict[tuple[int, int], complex],
        fiber: FiberParams,
    ):
        self.component = component
        self.weights = weights
        self.fiber = fiber
        self.vertices = tuple(sorted(component.vertices))
        self._vidx = {v: i for i, v in enumerate(self.vertices)}

    @property
    def nvert(self) -> int:
        return len(self.vertices)

    def _kappa(self, edge: EdgeSpec, z: complex) -> complex:
        fz = FiberParams(self.fiber.eps, self.fiber.tau, z)
        return fz.k / self.fiber.speed(edge)

    def gamma_fields(self, z: complex, data) -> list[ExactField]:
        """The kernel field with Gamma0 = data (one ExactField per edge)."""
        data = np.asarray(data, dtype=complex)
        tau = self.fiber.tau
        fields = []
        for e in self.component.edges:
            wl = self.weights[(e.left, e.id)]
            wr = self.weights[(e.right, e.id)]
            phi0 = np.conj(wl) * data[self._vidx[e.left]]
            phil = cmath.exp(1j * tau * e.length) * np.conj(wr) * data[
                self._vidx[e.right]
            ]
            if z == 0:
                p = phi0
                q = (phil - phi0) / e.length
                fields.append(ExactField(e, tau, None, p, q))
            else:
                kappa = self._kappa(e, z)
                guard_pole(kappa * e.length)
                p = phi0
                q = (phil - p * cmath.cos(kappa * e.length)) / cmath.sin(
                    kappa * e.length
                )
                fields.append(ExactField(e, tau, kappa, p, q))
        return fields

    def gamma0(self, fields: list[ExactField]) -> np.ndarray:
        """Common weighted vertex values w_V(e) u_e(V)."""
        out = np.zeros(self.nvert, dtype=complex)
        seen = set()
        for f in fields:
            e = f.edge
            for v, x in ((e.left, 0.0), (e.right, e.length)):
                if v not in seen:
                    out[self._vidx[v]] = self.weights[(v, e.id)] * complex(
                        f.u(x)
                    )
                    seen.add(v)
        return out

    def gamma1(self, fields: list[ExactField]) -> np.ndarray:
        """Signed weighted co-derivative sums at the component vertices."""
        out = np.zeros(self.nvert, dtype=complex)
        for f in fields:
            e = f.edge
            c2 = self.fiber.speed(e) ** 2
            out[self._vidx[e.left]] += (
                self.weights[(e.left, e.id)] * c2 * complex(f.du(0.0))
            )
            out[self._vidx[e.right]] -= (
                self.weights[(e.right, e.id)] * c2 * complex(f.du(e.length))
            )
        return out

    def m_matrix(self, z: complex) -> np.ndarray:
        """M(z) = Gamma1 composed with the kernel lift (columnwise)."""
        cols = []
        for j in range(self.nvert):
            data = np.zeros(self.nvert, dtype=complex)
            data[j] = 1.0
            cols.append(self.gamma1(self.gamma_fields(z, data)))
        return np.array(cols).T


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


class ResolventWorkspace:
    """Dense sample-space realisations of the component resolvent maps."""

    def __init__(
        self,
        frame: ComponentFrame,
        resolution: int = 256,
        grid: ComponentGrid | None = None,
    ):
        self.frame = frame
        self.grid = grid if grid is not None else make_grid(
            frame.component, resolution
        )

    # -- Dirichlet decoupling -------------------------------------------

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
        fiber = self.frame.fiber
        out = np.zeros((g.size, g.size), dtype=complex)
        for e, sl in zip(g.edges, g.slices):
            c = fiber.speed(e)
            kappa = self.frame._kappa(e, z)
            guard_pole(kappa * e.length)
            x = g.x[sl]
            denom = c * c * kappa * np.sin(kappa * e.length)
            left = np.exp(-1j * fiber.tau * x)
            right = np.conj(left) * g.w[sl] / denom
            a = np.sin(kappa * x)
            b = np.sin(kappa * (e.length - x))
            block = out[sl, sl]
            np.multiply.outer(left * a, b * right, out=block)
            lower = np.tri(x.size, k=-1, dtype=bool)
            np.copyto(block, np.outer(left * b, a * right), where=lower)
        return out

    # -- kernel lift and its dual ----------------------------------------

    def gamma_matrix(self, z: complex) -> np.ndarray:
        """n x N matrix of samples of gamma(z) e_V."""
        g = self.grid
        n_v = self.frame.nvert
        out = np.zeros((g.size, n_v), dtype=complex)
        for j in range(n_v):
            data = np.zeros(n_v, dtype=complex)
            data[j] = 1.0
            fields = self.frame.gamma_fields(z, data)
            for f, sl in zip(fields, g.slices):
                out[sl, j] = f.u(g.x[sl])
        return out

    def gamma1_dirichlet_rows(self, z: complex) -> np.ndarray:
        """N x n matrix of Gamma1 (A_inf - z)^{-1} as quadrature functionals.

        Row V applied to samples f gives the signed weighted co-derivative
        sum of the Dirichlet solution at V.
        """
        g = self.grid
        frame = self.frame
        fiber = frame.fiber
        out = np.zeros((frame.nvert, g.size), dtype=complex)
        for e, sl in zip(g.edges, g.slices):
            kappa = frame._kappa(e, z)
            guard_pole(kappa * e.length)
            y = g.x[sl]
            sin_l = np.sin(kappa * e.length)
            base = np.exp(1j * fiber.tau * y) * g.w[sl] / sin_l
            # left endpoint: + w c^2 e^{-i tau 0} dphi(0) with
            # dphi(0) = int sin(kappa (l - y)) g(y) dy / (c^2 sin kappa l)
            wl = frame.weights[(e.left, e.id)]
            out[frame._vidx[e.left], sl] += wl * base * np.sin(
                kappa * (e.length - y)
            )
            # right endpoint: - w c^2 e^{-i tau l} dphi(l) with
            # dphi(l) = -int sin(kappa y) g(y) dy / (c^2 sin kappa l)
            wr = frame.weights[(e.right, e.id)]
            out[frame._vidx[e.right], sl] += (
                wr * cmath.exp(-1j * fiber.tau * e.length) * base * np.sin(kappa * y)
            )
        return out

    # -- resolvents -------------------------------------------------------

    def krein_matrix(self, z: complex) -> np.ndarray:
        """Resolvent of the weighted-Kirchhoff (B = 0) extension.

        (A - z)^{-1} = Dirichlet - gamma(z) M(z)^{-1} Gamma1 Dirichlet.
        """
        m = self.frame.m_matrix(z)
        return self.dirichlet_matrix(z) - self.gamma_matrix(z) @ np.linalg.solve(
            m, self.gamma1_dirichlet_rows(z)
        )

    def generalized_matrix(self, z: complex, b_of_z: np.ndarray) -> np.ndarray:
        """Generalised resolvent with z-dependent boundary matrix B(z).

        R(z) = Dirichlet - gamma(z) (M(z) - B(z))^{-1} Gamma1 Dirichlet,
        computed on this (sub)component.  With B = -M_stiff of the full
        graph this is the sandwiched soft-component resolvent.
        """
        m = self.frame.m_matrix(z)
        denom = m - b_of_z
        cond = np.linalg.cond(denom)
        if not np.isfinite(cond) or cond > 1e14:
            raise PoleError(f"M(z) - B(z) nearly singular (cond={cond:.2e})")
        return self.dirichlet_matrix(z) - self.gamma_matrix(z) @ np.linalg.solve(
            denom, self.gamma1_dirichlet_rows(z)
        )
