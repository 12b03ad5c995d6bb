"""Independent discretized oracle for the fiber operator on the full graph.

P1 finite elements on per-edge uniform grids.  The sesquilinear form
a(u, v) = sum over edges of int c_e^2 (u' + i tau u) conj(v' + i tau v) dx
is assembled exactly (the element matrices are exactly Hermitian), with the
weighted vertex continuity u_e(V) = conj(w_V(e)) U_V built into the
prolongation from global unknowns to edge-local nodal values.  The weighted
co-derivative sum condition is then the natural (weak) vertex condition, so
the discrete operator is the weighted-Kirchhoff extension.

Sample-space convention: functions are exchanged as concatenated per-edge
nodal samples (endpoints included) on the same grids as qglab.krein, with
trapezoid quadrature weights defining the discrete inner product.

The discrete resolvent R = P (K - z M)^{-1} P^* W is applied matrix-free
(``resolvent``): K - z M is factored once with ``splu``, and each apply is
one sparse solve whose residual is checked, so a z at a discrete level
raises NearSingularError on the first apply, not when the operator is built.

Conjugate symmetry: the Datta weights at -tau are the conjugates of those at
tau, and tau enters the element matrices only through i tau and tau^2, so the
pencil (K, M) and the prolongation at -tau are the entrywise conjugates of
those at tau, bit for bit (the products are taken in plain real arithmetic,
where conj(x) conj(y) = conj(x y) exactly).  A Hermitian pencil and its
conjugate have the same real spectrum, so ``lab.run_bands`` solves one
spectrum per distinct |tau| of its grid (``lab.tau_grid`` is exactly
antisymmetric) and gives it to the row at -tau as well.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING

import numpy as np

from .graphs import MetricGraph, datta_weights
from .krein import ComponentGrid, make_grid
from .mmatrix import FiberParams

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator


# the coarsest resolution (intervals per unit length) the FEM oracle takes
MIN_RESOLUTION = 16


class NearSingularError(ArithmeticError):
    """The shifted system is numerically singular (z at a discrete level)."""


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise complex product in plain real arithmetic.

    numpy's vectorised complex multiply may fuse multiply-adds, so its last
    bits can differ from a scalar (or sparse-product) complex multiply; at
    eps = 1/64 such last-bit changes in the stiff vertex entries move the
    lowest discrete eigenvalues by ~1e-9 relative.
    """
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


class DiscretizedOperator:
    """FEM discretization of the fiber operator with weighted vertex coupling,
    the Datta weights of the graph at the fiber's tau."""

    def __init__(self, graph: MetricGraph, fiber: FiberParams, resolution: int = 256):
        if resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
        self.graph = graph
        self.weights = datta_weights(graph, fiber.tau)
        self.fiber = fiber
        self.resolution = resolution
        self.grid: ComponentGrid = make_grid(graph, resolution)
        self._assemble()

    def _assemble(self) -> None:
        import scipy.sparse as sp

        g = self.grid
        verts = sorted(self.graph.vertices)
        vidx = {v: i for i, v in enumerate(verts)}
        # global unknowns: interior nodes of every edge, then one value per vertex
        n_int = g.size - 2 * len(g.slices)
        self.ndof = n_int + len(verts)
        tau = self.fiber.tau

        # prolongation P: samples <- dofs, one entry per sample row; an edge
        # endpoint carries its vertex value times the conjugate weight
        col = np.empty(g.size, dtype=np.intp)
        val = np.ones(g.size, dtype=complex)
        interior = np.ones(g.size, dtype=bool)
        for e, sl in zip(g.edges, g.slices):
            for node, v in ((sl.start, e.left), (sl.stop - 1, e.right)):
                interior[node] = False
                col[node] = n_int + vidx[v]
                val[node] = np.conj(self.weights[(v, e.id)])
        col[interior] = np.arange(n_int)
        self.prolong = sp.csr_matrix(
            (val, col, np.arange(g.size + 1)), shape=(g.size, self.ndof)
        )

        # P^* K_block P and P^* M_block P assembled directly in dof space:
        # the (a, b) entry of the element on samples (r, c) lands on
        # (col[r], col[c]) times conj(val[r]) val[c]; tocsc sums duplicates
        first, h, c2 = [], [], []
        for e, sl in zip(g.edges, g.slices):
            m = sl.stop - sl.start - 1  # intervals on this edge
            first.append(np.arange(sl.start, sl.stop - 1))
            h.append(np.full(m, e.length / m))
            c2.append(np.full(m, self.fiber.speed(e) ** 2))
        first, h, c2 = (np.concatenate(x) for x in (first, h, c2))
        s = np.array([[1, -1], [-1, 1]])  # times 1/h
        d_skew = np.array([[0, -1], [1, 0]])  # D^T - D for P1 elements
        m_el = np.array([[2, 1], [1, 2]])  # times h/6
        rows, cols, k_vals, m_vals = [], [], [], []
        for a in range(2):
            for b in range(2):
                r, c = first + a, first + b
                mass = m_el[a, b] * h / 6.0
                stiff = c2 * (s[a, b] / h + 1j * tau * d_skew[a, b] + tau * tau * mass)
                rows.append(col[r])
                cols.append(col[c])
                k_vals.append(_cmul(_cmul(np.conj(val[r]), stiff), val[c]))
                m_vals.append(_cmul(np.conj(val[r]) * mass, val[c]))
        # element-major order lists the duplicates in ascending sample order,
        # the order in which the sample-space product P^* K_block P sums them
        rows, cols, k_vals, m_vals = (
            np.stack(x, axis=1).ravel() for x in (rows, cols, k_vals, m_vals)
        )
        shape = (self.ndof, self.ndof)
        self.k_mat = sp.coo_matrix((k_vals, (rows, cols)), shape).tocsc()
        self.m_mat = sp.coo_matrix((m_vals, (rows, cols)), shape).tocsc()

    # -- basic certificates ------------------------------------------------

    def symmetry_defect(self, n_pairs: int = 10, seed: int = 0) -> float:
        """max |<Au, v> - <u, Av>| over random unit-M-norm coefficient pairs."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_pairs):
            u = rng.standard_normal(self.ndof) + 1j * rng.standard_normal(self.ndof)
            v = rng.standard_normal(self.ndof) + 1j * rng.standard_normal(self.ndof)
            u /= np.sqrt(abs(np.vdot(u, self.m_mat @ u)))
            v /= np.sqrt(abs(np.vdot(v, self.m_mat @ v)))
            lhs = np.vdot(v, self.k_mat @ u)
            rhs = np.vdot(self.k_mat @ v, u)
            worst = max(worst, abs(lhs - rhs))
        return worst

    def vertex_flux_residual(self, u_dofs: np.ndarray, f_samples: np.ndarray, z: complex) -> float:
        """Residual of the discrete co-derivative balance at the vertices.

        The vertex rows of (K - z M) u = P^* M_block f are exactly the
        discrete signed weighted co-derivative sums; their residual after a
        solve certifies the vertex condition.
        """
        rhs = self.prolong.conj().T @ (self.grid.w * f_samples)
        res = (self.k_mat - z * self.m_mat) @ u_dofs - rhs
        return float(np.max(np.abs(res[-len(self.graph.vertices):])))

    # -- solves -------------------------------------------------------------

    def _solve(self, z: complex):
        """Factor K - z M once; return ``solve(rhs, trans="N")``.

        ``solve`` applies (K - z M)^{-1} (``trans="N"``) or its adjoint
        (``trans="H"``) to one right-hand side and checks the residual of the
        system it solved: a relative residual above 1e-8 (z at a discrete
        level) raises NearSingularError.
        """
        from scipy.sparse.linalg import splu

        a = (self.k_mat - z * self.m_mat).tocsc()
        try:
            lu = splu(a)
        except RuntimeError as exc:  # pragma: no cover - splu failure path
            raise NearSingularError(str(exc)) from exc
        systems = {"N": a, "H": a.conj().T}

        def solve(rhs: np.ndarray, trans: str = "N") -> np.ndarray:
            u = lu.solve(rhs, trans=trans)
            res = np.linalg.norm(systems[trans] @ u - rhs)
            scale = np.linalg.norm(rhs)
            if scale > 0 and res / scale > 1e-8:
                raise NearSingularError(
                    f"shifted system nearly singular: rel residual {res / scale:.2e}"
                )
            return u

        return solve

    def resolvent(self, z: complex) -> LinearOperator:
        """The discrete resolvent R = P (K - z M)^{-1} P^* W on samples,
        applied matrix-free: one sparse solve per matvec, and one adjoint
        solve per rmatvec, R^H y = W P (K - z M)^{-H} P^* y.  Each apply
        raises NearSingularError where ``_solve``'s residual check fails
        (a column vector (n, 1) is applied as a flat one)."""
        from scipy.sparse.linalg import LinearOperator

        solve, p, w = self._solve(z), self.prolong, self.grid.w
        p_adj = p.conj().T
        return LinearOperator(
            (self.grid.size, self.grid.size),
            matvec=lambda x: p @ solve(p_adj @ (w * x.ravel())),
            rmatvec=lambda y: w * (p @ solve(p_adj @ y.ravel(), "H")),
            dtype=complex,
        )

    def eigenvalues(self, count: int) -> np.ndarray:
        """Lowest ``count`` discrete eigenvalues (generalized, Hermitian),
        by shift-invert about -1.

        ARPACK starts from a seeded vector, so repeated calls agree exactly.
        ARPACK without convergence raises ArithmeticError.

        scipy keeps a call's ARPACK state (the Krylov basis, the workspaces
        and the factor of K + M) in a reference cycle.  The young collections
        that run during the call would promote it to the old generation,
        which only a full collection frees.  So ``eigsh`` runs with the
        collector paused, and a generation-0 collection frees that state as
        the call returns; the collector is then left as it was found.
        """
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(self.ndof) + 1j * rng.standard_normal(self.ndof)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            vals = eigsh(
                self.k_mat,
                k=count,
                M=self.m_mat,
                sigma=-1.0,
                which="LM",
                v0=v0,
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise ArithmeticError(f"eigsh did not converge: {exc}") from exc
        finally:
            gc.collect(0)
            if was_enabled:
                gc.enable()
        return np.sort(vals.real)
