"""Independent discretized oracle for the fiber operator on the full graph.

P1 finite elements on per-edge uniform grids.  The sesquilinear form
a(u, v) = sum over edges of int c_e^2 (u' + i tau u) conj(v' + i tau v) dx
is assembled exactly (the element matrices are exactly Hermitian), with the
weighted vertex continuity u_e(V) = conj(w_V(e)) U_V built into the
prolongation from global unknowns to edge-local nodal values.  The weighted
co-derivative sum condition is then the natural (weak) vertex condition, so
the discrete operator is the weighted-Kirchhoff extension.

The sparsity pattern of the pencil depends on the graph and the resolution
only, not on eps or tau.  A ``FemLayout`` holds it, with the order in which
each entry's duplicates are summed; ``DiscretizedOperator(layout, fiber)``
assembles only the Datta weights and the element values at its fiber, so
operators that share a layout equal operators on fresh ones bit for bit.

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
from functools import cached_property
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


class FemLayout:
    """What the FEM pencil of a graph at a resolution shares at every fiber:
    its sparsity pattern, which neither eps nor tau enters.  A resolution
    below MIN_RESOLUTION raises ValueError.

    That is the graph, the grid and the prolongation's column map (``col``:
    the dof of each sample), the edge ends, the element arrays (``first``
    sample and length ``h`` of each element, ``intervals`` per edge, the
    ``end_elements`` that have a sample at an edge end), the CSC
    ``indptr``/``indices`` of the pencil (int32, which ``csc_matrix`` takes
    as they are, so every matrix of the layout shares them; read-only, so
    none can change them) and, for each CSC slot, the element entries that
    sum into it.
    ``csc`` sums them as scipy's COO -> CSC conversion does, left to right
    in COO input order (``fills[j]`` holds the j-th entry of every slot that
    has one), so the matrix equals ``coo_matrix(...).tocsc()`` bit for bit;
    np.add.reduceat would sum a + (b + c) and differ in the last bit at the
    degree-3 vertex diagonals.
    """

    def __init__(self, graph: MetricGraph, resolution: int):
        if resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
        self.graph = graph
        g = self.grid = make_grid(graph, resolution)
        vidx = {v: i for i, v in enumerate(sorted(graph.vertices))}
        # global unknowns: interior nodes of every edge, then one value per vertex
        n_int = g.size - 2 * len(g.slices)
        self.ndof = n_int + len(vidx)
        # an edge end carries its vertex value (times a Datta weight)
        self.ends = []  # (sample, vertex, edge id)
        col = np.empty(g.size, dtype=np.intp)
        interior = np.ones(g.size, dtype=bool)
        for e, sl in zip(g.edges, g.slices):
            for node, v in ((sl.start, e.left), (sl.stop - 1, e.right)):
                interior[node] = False
                col[node] = n_int + vidx[v]
                self.ends.append((node, v, e.id))
        col[interior] = np.arange(n_int)
        self.col = col

        self.intervals = [sl.stop - sl.start - 1 for sl in g.slices]
        self.first = np.concatenate([np.arange(sl.start, sl.stop - 1) for sl in g.slices])
        self.end_elements = np.flatnonzero(~interior[self.first] | ~interior[self.first + 1])
        self.h = np.concatenate(
            [np.full(m, e.length / m) for e, m in zip(g.edges, self.intervals)]
        )
        # element-major entries: the (a, b) entry of the element on samples
        # (r, c) lands on (col[r], col[c]); this order lists the duplicates
        # in ascending sample order, as the product P^* K_block P sums them
        ab = [(a, b) for a in range(2) for b in range(2)]
        rows = np.stack([col[self.first + a] for a, _ in ab], axis=1).ravel()
        cols = np.stack([col[self.first + b] for _, b in ab], axis=1).ravel()
        order = np.lexsort((rows, cols))  # stable: duplicates keep input order
        r, c = rows[order], cols[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        slot = np.cumsum(new) - 1
        self.indices = r[new].astype(np.int32)
        self.indptr = np.searchsorted(c[new], np.arange(self.ndof + 1)).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        rank = np.arange(order.size) - np.flatnonzero(new)[slot]
        self.fills = [(slot[rank == j], order[rank == j]) for j in range(rank.max() + 1)]

    def csc(self, values: np.ndarray):
        """The ndof x ndof CSC matrix with the element-major entries
        ``values`` summed into their slots."""
        import scipy.sparse as sp

        data = np.empty(self.indices.size, dtype=values.dtype)
        (slots, idx), *rest = self.fills
        data[slots] = values[idx]
        for slots, idx in rest:
            data[slots] += values[idx]
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.ndof, self.ndof))


class DiscretizedOperator:
    """FEM discretization of the fiber operator with weighted vertex coupling,
    the Datta weights of the layout's graph at the fiber's tau.

    The pattern comes from ``layout``, which the caller builds once per
    (graph, resolution); the operator assembles only the weights and the
    values.  The prolongation ``prolong`` is built on its first read (by
    ``resolvent``); the spectrum needs only K and M.
    """

    def __init__(self, layout: FemLayout, fiber: FiberParams):
        self.layout = layout
        self.fiber = fiber
        self.weights = datta_weights(layout.graph, fiber.tau)
        self.grid: ComponentGrid = layout.grid
        self.ndof = layout.ndof
        self._assemble()

    def _assemble(self) -> None:
        lay, tau = self.layout, self.fiber.tau
        # the prolongation values of the samples: an edge endpoint carries
        # its vertex value times the conjugate weight, every other sample 1
        val = self._prolong_values = np.ones(lay.grid.size, dtype=complex)
        for node, v, e_id in lay.ends:
            val[node] = np.conj(self.weights[(v, e_id)])

        # P^* K_block P and P^* M_block P assembled directly in dof space:
        # the (a, b) entry of the element on samples (r, c) is scaled by
        # conj(val[r]) val[c].  That is 1 off the end elements, where the
        # scaled entry of an element value x is x + 0.0 (the same bits,
        # signed zeros included, and mass + 0j for a positive real mass)
        h, ends = lay.h, lay.end_elements
        first = lay.first[ends]
        c2 = np.repeat([self.fiber.speed(e) ** 2 for e in lay.grid.edges], lay.intervals)
        s = np.array([[1, -1], [-1, 1]])  # times 1/h
        d_skew = np.array([[0, -1], [1, 0]])  # D^T - D for P1 elements
        m_el = np.array([[2, 1], [1, 2]])  # times h/6
        k_vals, m_vals = [], []
        for a in range(2):
            for b in range(2):
                r, c = first + a, first + b
                mass = m_el[a, b] * h / 6.0
                stiff = c2 * (s[a, b] / h + 1j * tau * d_skew[a, b] + tau * tau * mass)
                k_ab, m_ab = stiff + 0.0, mass + 0j
                k_ab[ends] = _cmul(_cmul(np.conj(val[r]), stiff[ends]), val[c])
                m_ab[ends] = _cmul(np.conj(val[r]) * mass[ends], val[c])
                k_vals.append(k_ab)
                m_vals.append(m_ab)
        self.k_mat = lay.csc(np.stack(k_vals, axis=1).ravel())
        self.m_mat = lay.csc(np.stack(m_vals, axis=1).ravel())

    @cached_property
    def prolong(self):
        """The prolongation P: samples <- dofs (CSR), one entry per sample
        row, the sample's prolongation value in its dof's column."""
        import scipy.sparse as sp

        size = self.grid.size
        return sp.csr_matrix(
            (self._prolong_values, self.layout.col, np.arange(size + 1)),
            shape=(size, self.ndof),
        )

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
