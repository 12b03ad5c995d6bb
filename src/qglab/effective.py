"""Effective (homogenised) models on the soft component.

Three objects on the soft sample grid:

* ``r_eff``: the effective generalised resolvent, i.e. the solution
  operator of the per-edge ODE -(a^2)(d/dx + i tau)^2 u - z u = f subject to
  the z-dependent boundary conditions below, as a ``KernelOperator``.

* ``a_hom``: the resolvent of the self-adjoint homogenised operator on
  H_soft + C^1, as a ``KernelOperator`` whose soft-soft compression is
  r_eff (Schur-complement consistency) and whose boundary-to-boundary
  block is the reciprocal of the dispersion function shifted by z.

* ``dilation_blocks``: the same out-of-space resolvent as a dense matrix,
  assembled through an independent route - the block formula of the
  dilated resolvent, built from r_eff, its defect part R - G over the
  Dirichlet soft resolvent, the rank-one boundary coordinate, and the
  scalar embedding Pi = sqrt(L/2).

One model class, ``EffectiveModel``, holds them.  Each is a Dirichlet
kernel plus kernel fields fixed by a small boundary system, assembled the
same way for every cell from the soft edge ends and their Datta weights:
the weighted end values agree at each vertex, Gamma0 u = (U1, U2) lies in
span psi, and one flux row couples the psi-component of Gamma1 u to the
stiff part (see ``_structure``).  The model holds the full graph's
``ResolventWorkspace`` as ``workspace`` and its soft part as ``kernels``,
which share one store, so system and fields read the one edge record of
each soft edge, the ``EdgeKernel`` of the full graph's resolvent: the
system its end scalars, the fields its samples.  So the Schur scalar
builds no sample grid.  eps enters only the germ term of the flux row:
``at_eps`` gives a sibling at another contrast that shares ``kernels``
(no eps enters the soft component) and finds the boundary rows and the
fields at each z in their store, under ("rows", z) and ("fields", z).

``compose`` multiplies two of these resolvents exactly (the function-space
composition is carried out in closed form, not by quadrature), so that the
resolvent identity can be certified to solver precision.

``PsiEmbedding`` supplies the partial isometry between the full-graph sample
space and the homogenised space (identity on the soft part, rank-one onto
the normalized stiff zero-energy lift) on the grid of the full graph's
workspace; ``sandwich`` maps an operator a of the homogenised space to
Psi* a Psi on the full grid through those index maps, keeping its Dirichlet
blocks and low-rank factors.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .graphs import MetricGraph, stiff_length
from .krein import KernelOperator, ResolventWorkspace
from .mmatrix import FiberParams, PoleError


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a boundary system a: an exactly
    singular one raises ``PoleError``, which a sweep reports as a FAIL line."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"boundary system singular ({exc})") from exc


class EffectiveModel:
    """Effective resolvents and the homogenised operator on the soft grid,
    and the homogenised boundary system they share.

    ``workspace`` is the full graph's ``ResolventWorkspace`` at the
    resolution, and ``kernels`` its soft part, sharing its store.  The
    boundary system's rows tie the kernel fields of the soft edges (two per
    edge) and, with the beta row, the boundary coordinate.  They read only
    the end scalars of the soft edges' ``EdgeKernel``s, so the Schur scalar
    builds no grid and evaluates no sample.
    """

    def __init__(self, graph: MetricGraph, fiber: FiberParams, resolution: int):
        self.fiber = fiber
        # the boundary condition's scalars, from the cell record
        self.omega = graph.cell.omega(fiber.tau)  # the soft-edge tie phase
        self.psi = np.array([1.0, self.omega]) / math.sqrt(2.0)  # boundary vector on (V1, V2)
        self.rho = math.sqrt(stiff_length(graph))  # sqrt(L), L the stiff length
        self.germ = graph.cell.germ  # sigma^2, of the (tau/eps)^2 term in the beta row
        self.workspace = ResolventWorkspace(graph, fiber, resolution)
        self.kernels = self.workspace.soft_part()

    @property
    def grid(self):
        return self.kernels.grid

    def at_eps(self, eps: float) -> "EffectiveModel":
        """This model at contrast eps (same graph, tau and z), holding the
        ``at_eps`` sibling of its full workspace and this model's
        ``kernels``: the soft component has no stiff edge, so no eps enters
        them.  eps enters only the germ term of the flux row (and the stiff
        speeds), so in the store the sibling finds the boundary rows and the
        fields at each z."""
        sibling = object.__new__(type(self))
        sibling.__dict__.update(
            self.__dict__, fiber=FiberParams(eps, self.fiber.tau, self.fiber.z),
            workspace=self.workspace.at_eps(eps),
        )
        return sibling

    def _structure(self, z: complex, with_beta: bool):
        """Boundary system: A x = -Lam t(f) (+ e_c c for the beta row).

        Returns (A, Lam) where x stacks the homogeneous coefficients
        (p_e, q_e) of the fields e^{-i tau x}(p_e cos kappa x + q_e sin kappa x),
        2 per soft edge, with beta last when requested; t(f) is the 2E-vector
        of particular-solution modified derivatives (at 0, then at l, per
        edge), and Lam maps t-data into the rows of the system.

        Each edge end at V contributes its weighted value w_V(e) u_e(V) and
        its signed weighted co-derivative +-w_V(e) c_e^2 (d/dx + i tau) u_e
        (+ at coordinate 0, - at l); the latter sum over the ends at V to
        Gamma1 u_V.  The rows are the equal weighted values of the ends at
        each vertex, the tie U1 - conj(omega) U2 = 0 (Gamma0 u in span psi),
        and the flux row
            -sum_V sqrt(2) conj(psi_V) Gamma1 u_V + (germ (tau/eps)^2 - z rho^2) U1.
        With beta the flux row becomes the pair beta = rho U1 and
        flux / rho + (germ (tau/eps)^2 / rho^2 - z) beta.  Only the germ
        term depends on eps: the rest comes from ``_rows``, once per z.
        """
        rows, u1, flux_x, flux_t = self._rows(z)
        m = u1.size
        germ_term = self.germ * (self.fiber.tau / self.fiber.eps) ** 2
        rho = self.rho
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
        return a, lam

    def _rows(self, z: complex):
        """(rows, u1, flux_x, flux_t): what eps does not enter of the system
        at z (see ``_structure``), kept under ("rows", z)."""
        return self.kernels._kept(("rows", z), self._assemble_rows, z)

    def _assemble_rows(self, z: complex):
        soft = self.kernels
        kernels = soft.edge_kernels(z)
        m = 2 * len(kernels)
        nu = dict(zip(soft.vertices, np.conj([1.0, self.omega])))  # sqrt(2) conj(psi)
        values = {v: [] for v in soft.vertices}
        flux_x = np.zeros(m, dtype=complex)
        flux_t = np.zeros(m, dtype=complex)
        for i, k in enumerate(kernels):
            e, kappa, e_l, cos_l, sin_l = k.edge, k.kappa, k.e_l, k.cos_l, k.sin_l
            c2 = k.c ** 2
            # per end: t index, vertex, weight, sign, value and modified
            # derivative as rows on (p_e, q_e)
            for col, v, w, sign, val, der in (
                (2 * i, e.left, k.wl, 1.0, (1.0, 0.0), (0.0, kappa)),
                (2 * i + 1, e.right, k.wr, -1.0, (e_l * cos_l, e_l * sin_l),
                 (-e_l * kappa * sin_l, e_l * kappa * cos_l)),
            ):
                row = np.zeros(m, dtype=complex)
                row[2 * i:2 * i + 2] = val
                values[v].append(w * row)
                coef = -nu[v] * sign * w * c2
                flux_x[2 * i:2 * i + 2] += coef * np.array(der, dtype=complex)
                flux_t[col] += coef
        u1, u2 = (at_v[0] for at_v in values.values())
        rows = [first - u for first, *rest in values.values() for u in rest]
        rows.append(u1 - np.conj(self.omega) * u2)
        return rows, u1, flux_x, flux_t

    def schur_frobenius(self, z: complex) -> complex:
        """beta response to unit scalar forcing: equals 1/(K(tau,z) - z).

        The last entry of one small solve on the beta system; the soft data
        t(f) do not enter, so no sample grid is built."""
        a, _ = self._structure(z, with_beta=True)
        return complex(_solve(a, np.eye(a.shape[0])[-1])[-1])

    def _fields(self, z: complex):
        """(h, t) from one pass over the soft ``EdgeKernel``s, once per z for
        the model and its siblings.

        h is the n x 2E matrix of the sampled homogeneous fields
        e^{-i tau x}(cos kappa x, sin kappa x) on each edge; t is the 2E x n
        matrix of quadrature rows producing the modified derivatives
        (du(0), du(l)) of the per-edge Dirichlet particular solution.
        """
        return self.kernels._kept(("fields", z), self._sample_fields, z)

    def _sample_fields(self, z: complex):
        g = self.grid
        kernels = self.kernels.edge_kernels(z)
        m = 2 * len(kernels)
        h = np.zeros((g.size, m), dtype=complex)
        t = np.zeros((m, g.size), dtype=complex)
        for i, (k, sl) in enumerate(zip(kernels, g.slices)):
            _, w, phase, a, b = k.samples
            h[sl, 2 * i] = phase * k.cos_x
            h[sl, 2 * i + 1] = phase * a
            base = np.conj(phase) * w / (k.c * k.c * k.sin_l)
            t[2 * i, sl] = base * b
            t[2 * i + 1, sl] = -k.e_l * base * a
        return h, t

    def _defect(self, z: complex):
        """(h, coeffs): r_eff(z) minus the Dirichlet resolvent is h @ coeffs."""
        a, lam = self._structure(z, with_beta=False)
        h, t = self._fields(z)
        return h, _solve(a, -lam @ t)

    # -- public resolvents ----------------------------------------------------

    def r_eff(self, z: complex) -> KernelOperator:
        """The effective generalised resolvent: the soft Dirichlet blocks
        plus h @ coeffs."""
        h, coeffs = self._defect(z)
        return KernelOperator(self.kernels.dirichlet_blocks(z), h, coeffs)

    def _hom_solve(self, z: complex):
        """(h, t, x) at z: x maps the data (f, c) to the homogeneous
        coefficients of R_hom(z) (f, c), beta last."""
        a, lam = self._structure(z, with_beta=True)
        h, t = self._fields(z)
        rhs = np.zeros((lam.shape[0], t.shape[1] + 1), dtype=complex)
        rhs[:, :-1] = -lam @ t
        rhs[-1, -1] = 1.0  # the scalar forcing c enters the beta row
        return h, t, _solve(a, rhs)

    def a_hom(self, z: complex) -> KernelOperator:
        """The (n+1) x (n+1) resolvent of the homogenised operator.

        Acts on (soft samples, beta scalar); the last row/column carry the
        boundary coordinate.  The soft Dirichlet blocks plus H @ coeffs, with
        H = [[h, 0], [0, 1]]: the hom fields on the samples, and beta.
        """
        h, _, coeffs = self._hom_solve(z)
        n = self.grid.size
        u = np.zeros((n + 1, h.shape[1] + 1), dtype=complex)
        u[:n, :-1] = h
        u[n, -1] = 1.0
        return KernelOperator(self.kernels.dirichlet_blocks(z), u, coeffs)

    # -- exact composition (for resolvent-identity certificates) ------------

    def _dirichlet_of_hom(self, z, w, h_z, h_w):
        """Closed-form (A_D - z)^{-1} applied to the kernel fields of w.

        Returns (cols, tdata): cols is n x m samples, tdata is (2E x m)
        modified-derivative data of the resolved fields.  The resolved field
        is h_w / (w - z) plus the kernel field at z that restores the
        Dirichlet ends, so no trig function is evaluated on the samples.
        """
        m = h_z.shape[1]
        cols = np.zeros((self.grid.size, m), dtype=complex)
        tdata = np.zeros((m, m), dtype=complex)
        for i, (at_z, at_w) in enumerate(
            zip(self.kernels.edge_kernels(z), self.kernels.edge_kernels(w))
        ):
            c, kz, e_l, cz, sz = at_z.c, at_z.kappa, at_z.e_l, at_z.cos_l, at_z.sin_l
            kw, cw, sw = at_w.kappa, at_w.cos_l, at_w.sin_l
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
        a_z, lam_z = self._structure(z, with_beta=True)
        g_z = self.kernels.dirichlet_matrix(z)
        g_w = self.kernels.dirichlet_matrix(w)
        h_z, t_z = self._fields(z)
        # inner solve X_w : (f, c) -> coefficients (+ beta last)
        h_w, t_w, x_w = self._hom_solve(w)
        gh, th = self._dirichlet_of_hom(z, w, h_z, h_w)
        xc = x_w[:-1, :]  # homogeneous coefficients of the inner solve
        beta1 = x_w[-1:, :]

        # t-data of the inner output u1 = G_w f + H_w xc under parameter z
        t_u1 = np.zeros((t_z.shape[0], n + 1), dtype=complex)
        t_u1[:, :n] = (t_z - t_w) / (z - w)
        t_u1 += th @ xc

        rhs_z = -lam_z @ t_u1
        rhs_z[-1, :] += beta1[0]
        y = _solve(a_z, rhs_z)

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
                    rows[self.kernels._vidx[v], pos] = self.kernels.weights[(v, e.id)]
                    seen.add(v)
        return rows

    def dilation_blocks(self, z: complex) -> np.ndarray:
        """The (n+1) x (n+1) out-of-space resolvent from the block formula.

        Built independently of a_hom: (1,1) block is r_eff; the
        off-diagonal blocks are Pi times the rank-one boundary coordinate of
        the defect part R - G = h @ coeffs (at z and conj z); the corner
        repeats the coordinate extraction on the adjoint column.
        """
        n = self.grid.size
        pi_scal = self.rho / math.sqrt(2.0)
        psi_row = self.psi.conj() @ self._vertex_rows()  # 1 x n
        h_z, c_z = self._defect(z)
        h_zb, c_zb = self._defect(np.conj(z))

        row21 = pi_scal * ((psi_row @ h_z) @ c_z)  # 1 x n
        row21_zb = pi_scal * ((psi_row @ h_zb) @ c_zb)
        col12 = np.conj(row21_zb) / self.grid.w  # weighted adjoint of the zbar row
        corner = pi_scal * (psi_row @ col12)

        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:n, :n] = self.kernels.dirichlet_matrix(z) + h_z @ c_z
        out[n, :n] = row21
        out[:n, n] = col12
        out[n, n] = corner
        return out


class PsiEmbedding:
    """Partial isometry between full-graph samples and the homogenised space.

    Identity on the soft component; on the stiff component, rank-one onto
    the grid-normalized zero-energy lift of the boundary vector psi, mapped
    to the beta coordinate, read off the full graph's ``workspace``.
    """

    def __init__(self, workspace: ResolventWorkspace):
        self.grid = grid = workspace.grid
        sizes = [sl.stop - sl.start for sl in grid.slices]
        on_stiff = np.repeat([e.is_stiff for e in grid.edges], sizes)
        if on_stiff.all() or not on_stiff.any():
            raise ValueError("PsiEmbedding needs the workspace of the full graph")
        self.soft_idx, self.stiff_idx = np.flatnonzero(~on_stiff), np.flatnonzero(on_stiff)
        weights, vidx, tau = workspace.weights, workspace._vidx, workspace.fiber.tau
        psi = np.array([1.0, workspace.component.cell.omega(tau)]) / math.sqrt(2.0)

        # the zero-energy kernel field with Gamma0 = psi on each stiff edge:
        # e^{-i tau x}(p + (phi_l - p) x/l), affine between the weighted ends
        g_samples = np.zeros(grid.size, dtype=complex)
        for e, sl in zip(grid.edges, grid.slices):
            if not e.is_stiff:
                continue
            p = np.conj(weights[(e.left, e.id)]) * psi[vidx[e.left]]
            phi_l = cmath.exp(1j * tau * e.length) * np.conj(
                weights[(e.right, e.id)]
            ) * psi[vidx[e.right]]
            g_samples[sl] = workspace.phase[sl] * (p + (phi_l - p) / e.length * grid.x[sl])
        w_st = grid.w[self.stiff_idx]
        nrm = math.sqrt(float(np.sum(w_st * np.abs(g_samples[self.stiff_idx]) ** 2)))
        self.lift = g_samples / nrm  # grid-normalized, supported on stiff
        # the lift on the stiff samples, and its weighted dual
        self._lift_stiff = self.lift[self.stiff_idx]
        self._dual = np.conj(self._lift_stiff) * grid.w[self.stiff_idx]

    @property
    def n_soft(self) -> int:
        return self.soft_idx.size

    def sandwich(self, a: KernelOperator) -> KernelOperator:
        """Psi^* a Psi for an operator a on the (n_soft + 1) homogenised space.

        Equal to the dense product of the three, built by index maps: each
        soft Dirichlet block moves to its edge's samples on the full grid,
        and the factors become Psi^* u (u[:n] on the soft rows, lift (x) u[n]
        on the stiff ones) and v Psi (v[:, :n] on the soft columns,
        v[:, n] (x) conj(lift) w on the stiff ones).  Any other shape (a
        model at another resolution) raises ``ValueError``.
        """
        n = self.n_soft
        if a.shape != (n + 1, n + 1):
            raise ValueError(f"need a {n + 1} x {n + 1} operator (n_soft = {n}), got {a.shape}")
        soft, stiff = self.soft_idx, self.stiff_idx
        nf = self.grid.size
        u = np.zeros((nf, a.rank), dtype=complex)
        u[soft] = a.u[:n]
        u[stiff] = np.outer(self._lift_stiff, a.u[n])
        v = np.zeros((a.rank, nf), dtype=complex)
        v[:, soft] = a.v[:, :n]
        v[:, stiff] = np.outer(a.v[:, n], self._dual)
        # each soft edge's samples are contiguous on the full grid
        blocks = [
            (slice(int(soft[sl.start]), int(soft[sl.stop - 1]) + 1), vectors)
            for sl, vectors in a.blocks
        ]
        return KernelOperator(blocks, u, v)
