"""Effective (homogenised) models on the soft component.

Three objects, all realised as dense matrices on the soft sample grid:

* ``r_eff_matrix``: the effective generalised resolvent, i.e. the solution
  operator of the per-edge ODE -(a^2)(d/dx + i tau)^2 u - z u = f subject to
  the z-dependent boundary conditions below.

* ``a_hom_matrix``: the self-adjoint homogenised operator on H_soft + C^1,
  whose soft-soft compression is r_eff (Schur-complement consistency) and
  whose boundary-to-boundary block is the reciprocal of the dispersion
  function shifted by z.

* ``dilation_blocks``: the same out-of-space resolvent assembled through an
  independent route - the block formula of the dilated resolvent, built
  from r_eff, its defect part R - G over the Dirichlet soft resolvent, the
  rank-one boundary coordinate, and the scalar embedding Pi = sqrt(L/2).

Each is a Dirichlet kernel plus kernel fields fixed by a small
``BoundarySystem``, assembled the same way for every cell from the soft edge
ends and their Datta weights: the weighted end values agree at each vertex,
Gamma0 u = (U1, U2) lies in span psi, and one flux row couples the
psi-component of Gamma1 u to the stiff part (see ``_structure``).  The
sampled fields come from the Krein workspace's per-edge samples
(``ResolventWorkspace._edge_samples``); the boundary system reads only
per-edge scalars, so the Schur scalar needs no sample grid.

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


def effective_params(graph: MetricGraph, fiber: FiberParams) -> EffectiveParams:
    cell = graph.cell
    omega = cell.omega(fiber.tau)
    psi = np.array([1.0, omega]) / math.sqrt(2.0)
    return EffectiveParams(math.sqrt(stiff_length(graph)), omega, cell.germ, psi)


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
        (p_e, q_e) of the fields e^{-i tau x}(p_e cos kappa x + q_e sin kappa x),
        2 per soft edge, with beta last when requested; t(f) is the 2E-vector
        of particular-solution modified derivatives (at 0, then at l, per
        edge), Lam maps t-data into the rows of the system, and ends lists
        the per-edge scalars (kappa, e^{-i tau l}, cos kappa l, sin kappa l).

        Each edge end at V contributes its weighted value w_V(e) u_e(V) and
        its signed weighted co-derivative +-w_V(e) c_e^2 (d/dx + i tau) u_e
        (+ at coordinate 0, - at l); the latter sum over the ends at V to
        Gamma1 u_V.  The rows are the equal weighted values of the ends at
        each vertex, the tie U1 - conj(omega) U2 = 0 (Gamma0 u in span psi),
        and the flux row
            -sum_V sqrt(2) conj(psi_V) Gamma1 u_V + (germ (tau/eps)^2 - z rho^2) U1.
        With beta the flux row becomes the pair beta = rho U1 and
        flux / rho + (germ (tau/eps)^2 / rho^2 - z) beta.
        """
        par, kern = self.params, self.kernels
        m = 2 * len(self.soft.edges)
        nu = dict(zip(kern.vertices, np.conj([1.0, par.omega])))  # sqrt(2) conj(psi)
        ends, values = [], {v: [] for v in kern.vertices}
        flux_x = np.zeros(m, dtype=complex)
        flux_t = np.zeros(m, dtype=complex)
        for i, e in enumerate(self.soft.edges):
            kappa = kern._kappa(e, z)
            cos_l, sin_l, e_l, _, _ = kern._end_coeffs(e, kappa)
            ends.append((kappa, e_l, cos_l, sin_l))
            c2 = self.fiber.speed(e) ** 2
            # per end: t index, vertex, sign, value and modified derivative
            # as rows on (p_e, q_e)
            for col, v, sign, val, der in (
                (2 * i, e.left, 1.0, (1.0, 0.0), (0.0, kappa)),
                (2 * i + 1, e.right, -1.0, (e_l * cos_l, e_l * sin_l),
                 (-e_l * kappa * sin_l, e_l * kappa * cos_l)),
            ):
                w = self.weights[(v, e.id)]
                row = np.zeros(m, dtype=complex)
                row[2 * i:2 * i + 2] = val
                values[v].append(w * row)
                coef = -nu[v] * sign * w * c2
                flux_x[2 * i:2 * i + 2] += coef * np.array(der, dtype=complex)
                flux_t[col] += coef
        u1, u2 = (at_v[0] for at_v in values.values())
        rows = [first - u for first, *rest in values.values() for u in rest]
        rows.append(u1 - np.conj(par.omega) * u2)
        germ_term = par.germ * (self.fiber.tau / self.fiber.eps) ** 2
        rho = par.rho
        a = np.zeros((m + with_beta, m + with_beta), dtype=complex)
        lam = np.zeros((m + with_beta, m), dtype=complex)
        a[:m - 1, :m] = rows
        if with_beta:
            a[m - 1, :m] = rho * u1
            a[m - 1, m] = -1.0
            a[m, :m] = flux_x / rho
            a[m, m] = germ_term / (rho * rho) - z
            lam[m] = flux_t / rho
        else:
            a[m - 1] = flux_x + (germ_term - z * rho * rho) * u1
            lam[m - 1] = flux_t
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

    def _hom_solve(self, z: complex):
        """(ends, h, t, x) at z: x maps the data (f, c) to the homogeneous
        coefficients of R_hom(z) (f, c), beta last."""
        a, lam, ends = self._structure(z, with_beta=True)
        h, t = self._fields(z, ends)
        rhs = np.zeros((a.shape[0], t.shape[1] + 1), dtype=complex)
        rhs[:, :-1] = -lam @ t
        rhs[-1, -1] = 1.0  # the scalar forcing c enters the beta row
        return ends, h, t, np.linalg.solve(a, rhs)

    def a_hom_matrix(self, z: complex) -> np.ndarray:
        """(n+1) x (n+1) resolvent matrix of the homogenised operator.

        Acts on (soft samples, beta scalar); the last row/column carry the
        boundary coordinate.
        """
        n = self.grid.size
        _, h, _, coeffs = self._hom_solve(z)
        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :] = h @ coeffs[:-1, :]
        out[:n, :n] += self.workspace.dirichlet_matrix(z)
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
        g_z = self.workspace.dirichlet_matrix(z)
        g_w = self.workspace.dirichlet_matrix(w)
        h_z, t_z = self._fields(z, ends_z)
        # inner solve X_w : (f, c) -> coefficients (+ beta last)
        ends_w, h_w, t_w, x_w = self._hom_solve(w)
        gh, th = self._dirichlet_of_hom(ends_z, ends_w, h_z, h_w)
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
