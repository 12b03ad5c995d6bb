"""Effective (homogenised) models on the soft component.

Three objects, all realised as dense matrices on the soft sample grid:

* ``r_eff_matrix``: the effective generalised resolvent, i.e. the solution
  operator of the per-edge ODE -(a^2)(d/dx + i tau)^2 u - z u = f subject to
  the example's z-dependent boundary conditions (quasi-periodicity ties and
  a co-derivative balance carrying the macroscopic spectral weight).

* ``a_hom_matrix``: the self-adjoint homogenised operator on H_soft + C^1,
  whose soft-soft compression is r_eff (Schur-complement consistency) and
  whose boundary-to-boundary block is the reciprocal of the dispersion
  function shifted by z.

* ``dilation_blocks``: the same out-of-space resolvent assembled through an
  independent route - the block formula of the dilated resolvent, built
  from r_eff, the Dirichlet soft resolvent, the rank-one boundary
  coordinate, and the scalar embedding Pi = sqrt(L/2).

``compose`` multiplies two of these resolvents exactly (the function-space
composition is carried out in closed form, not by quadrature), so that the
resolvent identity can be certified to solver precision.

``PsiEmbedding`` supplies the partial isometry between the full-graph sample
space and the homogenised space (identity on the soft part, rank-one onto
the normalized stiff zero-energy lift); ``sandwich`` forms Psi* a Psi from
those index maps without dense products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import MetricGraph, stiff_length, xi_ex1  # noqa: F401  xi_ex1 re-exported
from .krein import (
    ComponentFrame,
    ComponentGrid,
    ResolventWorkspace,
)
from .mmatrix import FiberParams


@dataclass(frozen=True)
class EffectiveParams:
    """Scalars of the homogenised boundary condition, read from the cell record."""

    rho: float  # sqrt(L), L the stiff length
    omega: complex  # psi = (1, omega)/sqrt(2); the soft-edge tie phase
    germ: float  # coefficient of the (tau/eps)^2 term in the beta row
    psi: np.ndarray  # rank-one boundary projection vector, (V1, V2)
    xi1: complex = 0.0  # tie of the soft chain to the loop, when there is one


def effective_params(graph: MetricGraph, fiber: FiberParams) -> EffectiveParams:
    cell = graph.cell
    omega = cell.omega(fiber.tau)
    psi = np.array([1.0, omega]) / math.sqrt(2.0)
    xi1 = 0.0 if cell.xi1 is None else cell.xi1(fiber.tau)
    return EffectiveParams(
        math.sqrt(stiff_length(graph)), omega, cell.germ, psi, xi1
    )


class EffectiveModel:
    """Effective resolvents and the homogenised operator on the soft grid."""

    def __init__(
        self,
        graph: MetricGraph,
        weights: dict[tuple[int, int], complex],
        fiber: FiberParams,
        resolution: int = 256,
        grid: ComponentGrid | None = None,
    ):
        self.graph = graph
        self.weights = weights
        self.fiber = fiber
        self.soft = graph.subgraph("soft")
        self.params = effective_params(graph, fiber)
        self.frame = ComponentFrame(self.soft, weights, fiber)
        self.workspace = ResolventWorkspace(
            self.frame, resolution=resolution, grid=grid
        )
        self.grid = self.workspace.grid
        self.n_edges = len(self.grid.edges)

    # -- per-edge ingredients --------------------------------------------

    def _edge_data(self, z: complex) -> list[dict]:
        """Per-edge trig scalars and homogeneous-field samples at kappa(z)."""
        g = self.grid
        tau = self.fiber.tau
        out = []
        for e, sl in zip(g.edges, g.slices):
            kappa = self.frame._kappa(e, z)
            x = g.x[sl]
            ph = np.exp(-1j * tau * x)
            out.append(
                dict(
                    edge=e,
                    sl=sl,
                    kappa=kappa,
                    e_l=cmath.exp(-1j * tau * e.length),
                    cos_l=cmath.cos(kappa * e.length),
                    sin_l=cmath.sin(kappa * e.length),
                    h=(ph * np.cos(kappa * x), ph * np.sin(kappa * x)),
                )
            )
        return out

    def _t_rows(self, z: complex, ed) -> np.ndarray:
        """(2E x n) quadrature rows producing the modified derivatives
        (du(0), du(l)) of the per-edge Dirichlet particular solution."""
        g = self.grid
        tau = self.fiber.tau
        rows = np.zeros((2 * self.n_edges, g.size), dtype=complex)
        for i, item in enumerate(ed):
            e, sl = item["edge"], item["sl"]
            c = self.fiber.speed(e)
            y = g.x[sl]
            base = np.exp(1j * tau * y) * g.w[sl] / (c * c * item["sin_l"])
            rows[2 * i, sl] = base * np.sin(item["kappa"] * (e.length - y))
            rows[2 * i + 1, sl] = (
                -item["e_l"] * base * np.sin(item["kappa"] * y)
            )
        return rows

    def _hom_columns(self, ed) -> np.ndarray:
        """n x m matrix of the sampled homogeneous fields (2 per edge)."""
        n = self.grid.size
        cols = []
        for item in ed:
            for h in item["h"]:
                col = np.zeros(n, dtype=complex)
                col[item["sl"]] = h
                cols.append(col)
        return np.array(cols).T

    def _structure(self, z: complex, with_beta: bool):
        """Boundary system: A x = -Lam t(f) (+ e_c c for the beta row).

        Returns (A, Lam, ed) where x stacks the homogeneous coefficients
        (2 per soft edge, beta last when requested), t(f) is the 2E-vector
        of particular-solution modified derivatives, and Lam maps t-data
        into the rows of the system.
        """
        par = self.params
        fiber = self.fiber
        ed = self._edge_data(z)
        germ_term = par.germ * (fiber.tau / fiber.eps) ** 2
        rho = par.rho

        def vals(item):
            """Boundary functionals of (h1, h2): value/derivative rows."""
            kappa, e_l = item["kappa"], item["e_l"]
            cos_l, sin_l = item["cos_l"], item["sin_l"]
            return dict(
                val0=np.array([1.0, 0.0], dtype=complex),
                vall=np.array([e_l * cos_l, e_l * sin_l]),
                d0=np.array([0.0, kappa], dtype=complex),
                dl=np.array([-e_l * kappa * sin_l, e_l * kappa * cos_l]),
            )

        if self.n_edges == 1:
            (item,) = ed
            v = vals(item)
            wbar = np.conj(par.omega)
            if not with_beta:
                a = np.zeros((2, 2), dtype=complex)
                lam = np.zeros((2, 2), dtype=complex)
                a[0] = v["val0"] - wbar * v["vall"]
                a[1] = (
                    -v["d0"]
                    + wbar * v["dl"]
                    + (germ_term - z * rho * rho) * v["val0"]
                )
                lam[1] = [-1.0, wbar]
                return a, lam, ed
            a = np.zeros((3, 3), dtype=complex)
            lam = np.zeros((3, 2), dtype=complex)
            a[0, :2] = v["val0"] - wbar * v["vall"]
            a[1, :2] = rho * v["val0"]
            a[1, 2] = -1.0
            a[2, :2] = (-v["d0"] + wbar * v["dl"]) / rho
            a[2, 2] = germ_term / (rho * rho) - z
            lam[2] = [-1.0 / rho, wbar / rho]
            return a, lam, ed

        # chain e1 and loop e2: coefficients (c11, c12, c21, c22[, beta]);
        # t-order (t0_e1, tl_e1, t0_e2, tl_e2)
        it1, it2 = ed
        v1, v2 = vals(it1), vals(it2)
        a1sq = it1["edge"].speed_a ** 2
        a2sq = it2["edge"].speed_a ** 2
        xi1b, xi2b = np.conj(par.xi1), np.conj(par.omega)
        mdim = 5 if with_beta else 4
        a = np.zeros((mdim, mdim), dtype=complex)
        lam = np.zeros((mdim, 4), dtype=complex)
        # ties: u2(0) = xi2bar u2(l2) = xi1bar u1(0) = u1(l1)
        a[0, 2:4] = v2["val0"] - xi2b * v2["vall"]
        a[1, 0:2] = -xi1b * v1["val0"]
        a[1, 2:4] = v2["val0"]
        a[2, 0:2] = -v1["vall"]
        a[2, 2:4] = v2["val0"]
        g_e1 = a1sq * (v1["dl"] - xi1b * v1["d0"])
        g_e2 = a2sq * (-v2["d0"] + xi2b * v2["dl"])
        lam_g = np.array([-a1sq * xi1b, a1sq, -a2sq, a2sq * xi2b])
        if not with_beta:
            a[3, 0:2] = g_e1
            a[3, 2:4] = g_e2 - z * rho * rho * v2["val0"]
            lam[3] = lam_g
            return a, lam, ed
        a[3, 2:4] = rho * v2["val0"]
        a[3, 4] = -1.0
        a[4, 0:2] = g_e1 / rho
        a[4, 2:4] = g_e2 / rho
        a[4, 4] = -z
        lam[4] = lam_g / rho
        return a, lam, ed

    # -- public matrices ----------------------------------------------------

    def r_eff_matrix(self, z: complex) -> np.ndarray:
        """Sample-space matrix of the effective generalised resolvent."""
        a, lam, ed = self._structure(z, with_beta=False)
        g = self.workspace.dirichlet_matrix(z)
        t = self._t_rows(z, ed)
        coeffs = np.linalg.solve(a, -lam @ t)
        return g + self._hom_columns(ed) @ coeffs

    def a_hom_matrix(self, z: complex) -> np.ndarray:
        """(n+1) x (n+1) resolvent matrix of the homogenised operator.

        Acts on (soft samples, beta scalar); the last row/column carry the
        boundary coordinate.
        """
        a, lam, ed = self._structure(z, with_beta=True)
        n = self.grid.size
        g = self.workspace.dirichlet_matrix(z)
        h = self._hom_columns(ed)
        mdim = a.shape[0]
        rhs = np.zeros((mdim, n + 1), dtype=complex)
        rhs[:, :n] = -lam @ self._t_rows(z, ed)
        rhs[-1, n] = 1.0  # the scalar forcing c enters the beta row
        coeffs = np.linalg.solve(a, rhs)
        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :] = h @ coeffs[:-1, :]
        out[:n, :n] += g
        out[n, :] = coeffs[-1, :]
        return out

    def schur_frobenius(self, z: complex) -> complex:
        """beta response to unit scalar forcing: equals 1/(K(tau,z) - z)."""
        return complex(self.a_hom_matrix(z)[-1, -1])

    # -- exact composition (for resolvent-identity certificates) ------------

    def _dirichlet_of_hom(self, z: complex, ed_z, ed_w):
        """Closed-form (A_D - z)^{-1} applied to the kernel fields of w.

        Returns (cols, tdata): cols is n x m samples, tdata is (2E x m)
        modified-derivative data of the resolved fields.
        """
        g = self.grid
        tau = self.fiber.tau
        m = 2 * self.n_edges
        cols = np.zeros((g.size, m), dtype=complex)
        tdata = np.zeros((m, m), dtype=complex)
        for i, (iz, iw) in enumerate(zip(ed_z, ed_w)):
            e, sl = iz["edge"], iz["sl"]
            c = self.fiber.speed(e)
            kz, kw = iz["kappa"], iw["kappa"]
            wmz = (c * c) * (kw * kw - kz * kz)  # w - z on this edge
            x = g.x[sl]
            ph = np.exp(-1j * tau * x)
            for j, (p, q) in enumerate(((1.0, 0.0), (0.0, 1.0))):
                col_idx = 2 * i + j
                vh0 = p
                vhl = p * iw["cos_l"] + q * iw["sin_l"]
                dh0 = q * kw
                dhl = kw * (-p * iw["sin_l"] + q * iw["cos_l"])
                ps = -vh0 / wmz
                qs = (-vhl / wmz - ps * iz["cos_l"]) / iz["sin_l"]
                phi = (
                    p * np.cos(kw * x) + q * np.sin(kw * x)
                ) / wmz + ps * np.cos(kz * x) + qs * np.sin(kz * x)
                cols[sl, col_idx] = ph * phi
                tdata[2 * i, col_idx] = dh0 / wmz + qs * kz
                tdata[2 * i + 1, col_idx] = iz["e_l"] * (
                    dhl / wmz
                    + kz * (-ps * iz["sin_l"] + qs * iz["cos_l"])
                )
        return cols, tdata

    def compose(self, z: complex, w: complex) -> np.ndarray:
        """Exact (n+1)^2 matrix of R_hom(z) R_hom(w).

        Function-space compositions use the closed-form resolvent identity
        of the Dirichlet decoupling and the closed-form action on kernel
        fields, so no quadrature error enters beyond the one already present
        in the factors themselves.
        """
        if z == w:
            raise ValueError("compose requires distinct spectral points")
        n = self.grid.size
        a_z, lam_z, ed_z = self._structure(z, with_beta=True)
        a_w, lam_w, ed_w = self._structure(w, with_beta=True)
        g_z = self.workspace.dirichlet_matrix(z)
        g_w = self.workspace.dirichlet_matrix(w)
        h_z = self._hom_columns(ed_z)
        h_w = self._hom_columns(ed_w)
        t_z = self._t_rows(z, ed_z)
        t_w = self._t_rows(w, ed_w)
        gh, th = self._dirichlet_of_hom(z, ed_z, ed_w)

        mdim = a_w.shape[0]
        # inner solve X_w : (f, c) -> coefficients (+ beta last)
        rhs_w = np.zeros((mdim, n + 1), dtype=complex)
        rhs_w[:, :n] = -lam_w @ t_w
        rhs_w[-1, n] = 1.0
        x_w = np.linalg.solve(a_w, rhs_w)
        xc = x_w[:-1, :]  # homogeneous coefficients of the inner solve
        beta1 = x_w[-1:, :]

        # t-data of the inner output u1 = G_w f + H_w xc under parameter z
        t_u1 = np.zeros((t_z.shape[0], n + 1), dtype=complex)
        t_u1[:, :n] = (t_z - t_w) / (z - w)
        t_u1 += th @ xc

        rhs_z = -lam_z @ t_u1
        rhs_z[-1, :] += beta1[0]
        y = np.linalg.solve(a_z, rhs_z)

        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :n] = (g_z - g_w) / (z - w)
        out[:n, :] += gh @ xc + h_z @ y[:-1, :]
        out[n, :] = y[-1, :]
        return out

    # -- dilated resolvent (independent assembly route) ----------------------

    def _vertex_rows(self) -> np.ndarray:
        """2 x n extraction of the common weighted vertex values."""
        g = self.grid
        rows = np.zeros((2, g.size), dtype=complex)
        seen = set()
        for e, sl in zip(g.edges, g.slices):
            for v, pos in ((e.left, sl.start), (e.right, sl.stop - 1)):
                if v not in seen:
                    rows[self.frame._vidx[v], pos] = self.weights[(v, e.id)]
                    seen.add(v)
        return rows

    def dilation_blocks(self, z: complex) -> np.ndarray:
        """The (n+1) x (n+1) out-of-space resolvent from the block formula.

        Built independently of a_hom_matrix: (1,1) block is r_eff; the
        off-diagonal blocks are Pi times the rank-one boundary coordinate of
        the defect part R - G (at z and conj z); the corner repeats the
        coordinate extraction on the adjoint column.
        """
        n = self.grid.size
        pi_scal = self.params.rho / math.sqrt(2.0)
        psi_row = self.params.psi.conj() @ self._vertex_rows()  # 1 x n
        g_z = self.workspace.dirichlet_matrix(z)
        r_z = self.r_eff_matrix(z)
        zb = np.conj(z)
        g_zb = self.workspace.dirichlet_matrix(zb)
        r_zb = self.r_eff_matrix(zb)
        w = self.grid.w

        row21 = pi_scal * (psi_row @ (r_z - g_z))  # 1 x n
        row21_zb = pi_scal * (psi_row @ (r_zb - g_zb))
        col12 = np.conj(row21_zb) / w  # weighted adjoint of the zbar row
        corner = pi_scal * (psi_row @ col12)

        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :n] = r_z
        out[n, :n] = row21
        out[:n, n] = col12
        out[n, n] = corner
        return out


class PsiEmbedding:
    """Partial isometry between full-graph samples and the homogenised space.

    Identity on the soft component; on the stiff component, rank-one onto
    the grid-normalized zero-energy lift of the boundary vector psi, mapped
    to the beta coordinate.
    """

    def __init__(
        self,
        graph: MetricGraph,
        weights: dict[tuple[int, int], complex],
        fiber: FiberParams,
        full_grid: ComponentGrid,
    ):
        self.graph = graph
        self.full_grid = full_grid
        par = effective_params(graph, fiber)
        stiff = graph.subgraph("stiff")
        stiff_frame = ComponentFrame(stiff, weights, fiber)
        fields = stiff_frame.gamma_fields(0.0, par.psi)

        soft_parts, stiff_parts = [], []
        for e, sl in zip(full_grid.edges, full_grid.slices):
            (stiff_parts if e.is_stiff else soft_parts).append(
                np.arange(sl.start, sl.stop)
            )
        self.soft_idx = np.concatenate(soft_parts)
        self.stiff_idx = np.concatenate(stiff_parts)

        g_samples = np.zeros(full_grid.size, dtype=complex)
        fiter = iter(fields)
        for e, sl in zip(full_grid.edges, full_grid.slices):
            if e.is_stiff:
                fld = next(fiter)
                g_samples[sl] = fld.u(full_grid.x[sl])
        w_st = full_grid.w[self.stiff_idx]
        nrm = math.sqrt(
            float(np.sum(w_st * np.abs(g_samples[self.stiff_idx]) ** 2))
        )
        self.lift = g_samples / nrm  # grid-normalized, supported on stiff

    @property
    def n_soft(self) -> int:
        return self.soft_idx.size

    def forward_matrix(self) -> np.ndarray:
        """(n_soft + 1) x n_full matrix of Psi."""
        nf = self.full_grid.size
        out = np.zeros((self.n_soft + 1, nf), dtype=complex)
        out[np.arange(self.n_soft), self.soft_idx] = 1.0
        out[-1, self.stiff_idx] = (
            np.conj(self.lift[self.stiff_idx]) * self.full_grid.w[self.stiff_idx]
        )
        return out

    def adjoint_matrix(self) -> np.ndarray:
        """n_full x (n_soft + 1) matrix of Psi^* (weighted adjoint)."""
        nf = self.full_grid.size
        out = np.zeros((nf, self.n_soft + 1), dtype=complex)
        out[self.soft_idx, np.arange(self.n_soft)] = 1.0
        out[self.stiff_idx, -1] = self.lift[self.stiff_idx]
        return out

    def sandwich(self, a: np.ndarray) -> np.ndarray:
        """Psi^* a Psi for an (n_soft + 1) x (n_soft + 1) matrix a.

        Equal to ``adjoint_matrix() @ a @ forward_matrix()``, built by index
        maps: the soft block is a[:n, :n], the stiff rows are
        lift (x) a[n, :n], the stiff columns a[:n, n] (x) conj(lift) w, and
        the stiff block is a[n, n] times the outer product of the two.
        """
        n = self.n_soft
        soft, stiff = self.soft_idx, self.stiff_idx
        lift = self.lift[stiff]
        dual = np.conj(lift) * self.full_grid.w[stiff]
        nf = self.full_grid.size
        out = np.empty((nf, nf), dtype=complex)
        out[np.ix_(soft, soft)] = a[:n, :n]
        out[np.ix_(stiff, soft)] = np.outer(lift, a[n, :n])
        out[np.ix_(soft, stiff)] = np.outer(a[:n, n], dual)
        out[np.ix_(stiff, stiff)] = np.outer(a[n, n] * lift, dual)
        return out
