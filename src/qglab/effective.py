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
  from r_eff, its defect part R - G over the Dirichlet soft resolvent, the
  rank-one boundary coordinate, and the scalar embedding Pi = sqrt(L/2).

Each is a Dirichlet kernel plus kernel fields fixed by a small
``BoundarySystem``.  The sampled fields come from the Krein workspace's
per-edge samples (``ResolventWorkspace._edge_samples``); the boundary system
reads only per-edge scalars, so the Schur scalar needs no sample grid.

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

from .graphs import MetricGraph, stiff_length
from .krein import ComponentGrid, ComponentKernels, ResolventWorkspace
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


class BoundarySystem:
    """The homogenised boundary system on the soft component.

    Its rows tie the kernel fields of the soft edges (two per edge) and,
    with the beta row, the boundary coordinate.  It reads only the per-edge
    scalars kappa, e^{-i tau l}, cos kappa l and sin kappa l, so it needs no
    sample grid.
    """

    def __init__(
        self,
        graph: MetricGraph,
        weights: dict[tuple[int, int], complex],
        fiber: FiberParams,
    ):
        self.weights = weights
        self.fiber = fiber
        self.soft = graph.subgraph("soft")
        self.params = effective_params(graph, fiber)
        self.kernels = ComponentKernels(self.soft, weights, fiber)

    def _structure(self, z: complex, with_beta: bool):
        """Boundary system: A x = -Lam t(f) (+ e_c c for the beta row).

        Returns (A, Lam, ends) where x stacks the homogeneous coefficients
        (2 per soft edge, beta last when requested), t(f) is the 2E-vector
        of particular-solution modified derivatives, Lam maps t-data into
        the rows of the system, and ends lists the per-edge scalars
        (kappa, e^{-i tau l}, cos kappa l, sin kappa l).
        """
        par = self.params
        fiber = self.fiber
        ends = []
        for e in self.soft.edges:
            kappa = self.kernels._kappa(e, z)
            cos_l, sin_l, e_l, _, _ = self.kernels._end_coeffs(e, kappa)
            ends.append((kappa, e_l, cos_l, sin_l))
        germ_term = par.germ * (fiber.tau / fiber.eps) ** 2
        rho = par.rho

        def vals(end):
            """Boundary functionals of (h1, h2): value/derivative rows."""
            kappa, e_l, cos_l, sin_l = end
            return dict(
                val0=np.array([1.0, 0.0], dtype=complex),
                vall=np.array([e_l * cos_l, e_l * sin_l]),
                d0=np.array([0.0, kappa], dtype=complex),
                dl=np.array([-e_l * kappa * sin_l, e_l * kappa * cos_l]),
            )

        if len(ends) == 1:
            v = vals(ends[0])
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
                return a, lam, ends
            a = np.zeros((3, 3), dtype=complex)
            lam = np.zeros((3, 2), dtype=complex)
            a[0, :2] = v["val0"] - wbar * v["vall"]
            a[1, :2] = rho * v["val0"]
            a[1, 2] = -1.0
            a[2, :2] = (-v["d0"] + wbar * v["dl"]) / rho
            a[2, 2] = germ_term / (rho * rho) - z
            lam[2] = [-1.0 / rho, wbar / rho]
            return a, lam, ends

        # chain e1 and loop e2: coefficients (c11, c12, c21, c22[, beta]);
        # t-order (t0_e1, tl_e1, t0_e2, tl_e2)
        v1, v2 = vals(ends[0]), vals(ends[1])
        a1sq = self.soft.edges[0].speed_a ** 2
        a2sq = self.soft.edges[1].speed_a ** 2
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
            return a, lam, ends
        a[3, 2:4] = rho * v2["val0"]
        a[3, 4] = -1.0
        a[4, 0:2] = g_e1 / rho
        a[4, 2:4] = g_e2 / rho
        a[4, 4] = -z
        lam[4] = lam_g / rho
        return a, lam, ends

    def schur_frobenius(self, z: complex) -> complex:
        """beta response to unit scalar forcing: equals 1/(K(tau,z) - z).

        The last entry of one small solve on the beta system; the soft data
        t(f) do not enter, so no sample grid is built."""
        a, _, _ = self._structure(z, with_beta=True)
        return complex(np.linalg.solve(a, np.eye(a.shape[0])[-1])[-1])


class EffectiveModel(BoundarySystem):
    """Effective resolvents and the homogenised operator on the soft grid."""

    def __init__(
        self,
        graph: MetricGraph,
        weights: dict[tuple[int, int], complex],
        fiber: FiberParams,
        grid: ComponentGrid,
    ):
        """``grid`` is the soft sample grid, ``make_grid(graph.subgraph("soft"),
        resolution)``."""
        super().__init__(graph, weights, fiber)
        self.workspace = ResolventWorkspace(self.soft, weights, fiber, grid)
        self.grid = grid

    def _fields(self, z: complex, ends):
        """(h, t) from one pass over the workspace's per-edge samples.

        h is the n x 2E matrix of the sampled homogeneous fields
        e^{-i tau x}(cos kappa x, sin kappa x) on each edge; t is the 2E x n
        matrix of quadrature rows producing the modified derivatives
        (du(0), du(l)) of the per-edge Dirichlet particular solution.
        """
        g = self.grid
        m = 2 * len(ends)
        h = np.zeros((g.size, m), dtype=complex)
        t = np.zeros((m, g.size), dtype=complex)
        samples = self.workspace._edge_samples(z)
        for i, ((_, sl, c, _, phase, cos_x, a, b, _), end) in enumerate(
            zip(samples, ends)
        ):
            _, e_l, _, sin_l = end
            h[sl, 2 * i] = phase * cos_x
            h[sl, 2 * i + 1] = phase * a
            base = np.conj(phase) * g.w[sl] / (c * c * sin_l)
            t[2 * i, sl] = base * b
            t[2 * i + 1, sl] = -e_l * base * a
        return h, t

    def _defect(self, z: complex):
        """(h, coeffs): r_eff(z) minus the Dirichlet resolvent is h @ coeffs."""
        a, lam, ends = self._structure(z, with_beta=False)
        h, t = self._fields(z, ends)
        return h, np.linalg.solve(a, -lam @ t)

    # -- public matrices ----------------------------------------------------

    def r_eff_matrix(self, z: complex) -> np.ndarray:
        """Sample-space matrix of the effective generalised resolvent."""
        h, coeffs = self._defect(z)
        return self.workspace.dirichlet_matrix(z) + h @ coeffs

    def a_hom_matrix(self, z: complex) -> np.ndarray:
        """(n+1) x (n+1) resolvent matrix of the homogenised operator.

        Acts on (soft samples, beta scalar); the last row/column carry the
        boundary coordinate.
        """
        a, lam, ends = self._structure(z, with_beta=True)
        n = self.grid.size
        g = self.workspace.dirichlet_matrix(z)
        h, t = self._fields(z, ends)
        mdim = a.shape[0]
        rhs = np.zeros((mdim, n + 1), dtype=complex)
        rhs[:, :n] = -lam @ t
        rhs[-1, n] = 1.0  # the scalar forcing c enters the beta row
        coeffs = np.linalg.solve(a, rhs)
        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :] = h @ coeffs[:-1, :]
        out[:n, :n] += g
        out[n, :] = coeffs[-1, :]
        return out

    # -- exact composition (for resolvent-identity certificates) ------------

    def _dirichlet_of_hom(self, ends_z, ends_w, h_z, h_w):
        """Closed-form (A_D - z)^{-1} applied to the kernel fields of w.

        Returns (cols, tdata): cols is n x m samples, tdata is (2E x m)
        modified-derivative data of the resolved fields.  The resolved field
        is h_w / (w - z) plus the kernel field at z that restores the
        Dirichlet ends, so no trig function is evaluated on the samples.
        """
        m = h_z.shape[1]
        cols = np.zeros((self.grid.size, m), dtype=complex)
        tdata = np.zeros((m, m), dtype=complex)
        for i, (e, (kz, e_l, cz, sz), (kw, _, cw, sw)) in enumerate(
            zip(self.grid.edges, ends_z, ends_w)
        ):
            c = self.fiber.speed(e)
            wmz = (c * c) * (kw * kw - kz * kz)  # w - z on this edge
            for j, (p, q) in enumerate(((1.0, 0.0), (0.0, 1.0))):
                col_idx = 2 * i + j
                vhl = p * cw + q * sw
                dh0 = q * kw
                dhl = kw * (-p * sw + q * cw)
                ps = -p / wmz
                qs = (-vhl / wmz - ps * cz) / sz
                cols[:, col_idx] = (
                    h_w[:, col_idx] / wmz
                    + ps * h_z[:, 2 * i]
                    + qs * h_z[:, 2 * i + 1]
                )
                tdata[2 * i, col_idx] = dh0 / wmz + qs * kz
                tdata[2 * i + 1, col_idx] = e_l * (
                    dhl / wmz + kz * (-ps * sz + qs * cz)
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
        a_z, lam_z, ends_z = self._structure(z, with_beta=True)
        a_w, lam_w, ends_w = self._structure(w, with_beta=True)
        g_z = self.workspace.dirichlet_matrix(z)
        g_w = self.workspace.dirichlet_matrix(w)
        h_z, t_z = self._fields(z, ends_z)
        h_w, t_w = self._fields(w, ends_w)
        gh, th = self._dirichlet_of_hom(ends_z, ends_w, h_z, h_w)

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
                    rows[self.workspace._vidx[v], pos] = self.weights[(v, e.id)]
                    seen.add(v)
        return rows

    def dilation_blocks(self, z: complex) -> np.ndarray:
        """The (n+1) x (n+1) out-of-space resolvent from the block formula.

        Built independently of a_hom_matrix: (1,1) block is r_eff; the
        off-diagonal blocks are Pi times the rank-one boundary coordinate of
        the defect part R - G = h @ coeffs (at z and conj z); the corner
        repeats the coordinate extraction on the adjoint column.
        """
        n = self.grid.size
        pi_scal = self.params.rho / math.sqrt(2.0)
        psi_row = self.params.psi.conj() @ self._vertex_rows()  # 1 x n
        h_z, c_z = self._defect(z)
        h_zb, c_zb = self._defect(np.conj(z))

        row21 = pi_scal * ((psi_row @ h_z) @ c_z)  # 1 x n
        row21_zb = pi_scal * ((psi_row @ h_zb) @ c_zb)
        col12 = np.conj(row21_zb) / self.grid.w  # weighted adjoint of the zbar row
        corner = pi_scal * (psi_row @ col12)

        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :n] = self.workspace.dirichlet_matrix(z) + h_z @ c_z
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
        vidx = {v: i for i, v in enumerate(sorted(graph.vertices))}

        # the zero-energy kernel field with Gamma0 = psi on each stiff edge:
        # e^{-i tau x}(p + (phi_l - p) x/l), affine between the weighted ends
        soft_parts, stiff_parts = [], []
        g_samples = np.zeros(full_grid.size, dtype=complex)
        for e, sl in zip(full_grid.edges, full_grid.slices):
            if not e.is_stiff:
                soft_parts.append(np.arange(sl.start, sl.stop))
                continue
            stiff_parts.append(np.arange(sl.start, sl.stop))
            x = full_grid.x[sl]
            p = np.conj(weights[(e.left, e.id)]) * par.psi[vidx[e.left]]
            phi_l = cmath.exp(1j * fiber.tau * e.length) * np.conj(
                weights[(e.right, e.id)]
            ) * par.psi[vidx[e.right]]
            g_samples[sl] = np.exp(-1j * fiber.tau * x) * (
                p + (phi_l - p) / e.length * x
            )
        self.soft_idx = np.concatenate(soft_parts)
        self.stiff_idx = np.concatenate(stiff_parts)
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
