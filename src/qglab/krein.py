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
Resolvents act on concatenated per-edge trapezoid sample grids as
``KernelOperator``s, which hold their structure and form no n x n array:
each edge block of the Dirichlet kernel is rank one on either triangle, so
it is kept as four per-edge vectors and applied by running sums, and the
resolvent adds a low-rank term, gamma(z) (M(z) - B)^{-1} Gamma1 D for the
generalised resolvent (rank N_vertices); the weighted-Kirchhoff (Krein)
resolvent is the case B = 0.  ``KernelOperator.dense`` forms the matrix
where a certificate reads entries.

One workspace class, ``ResolventWorkspace``, holds a component's maps: M(z)
and, on the grid it builds from a resolution when something first reads
it, the grid products and resolvents.  One edge record, ``EdgeKernel``,
one per (edge, speed, z), is the one place where trig functions of an edge
are evaluated: its end scalars (cos kappa l, sin kappa l, e^{-i tau l} and
the end coefficients) at construction, its sampled arrays on first read.
M(z), the grid products and the effective layer's boundary rows and fields
all read it.

Every kept value lives in one store, a dict shared by a workspace, its
``at_eps`` siblings and its ``soft_part``, keyed by what the value depends
on beside tau and the resolution: an edge kernel under (edge id, speed, z),
the resolvent's inputs under (z, (edge id, speed) per edge).  eps enters
only the stiff speeds a/eps, so a sweep over eps evaluates each soft edge
once, and on a component without a stiff edge the resolvent's inputs once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property

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


class KernelOperator:
    """A resolvent on a sample space: per-edge Dirichlet blocks plus u @ v.

    Each block ``(sl, vectors)`` acts on the samples ``sl`` of one edge,
    with ``vectors`` the 4 x len rows (la, br, lb, ar): its upper triangle
    (diagonal included) is la_i br_j and its strict lower triangle
    lb_i ar_j, as ``ResolventWorkspace.dirichlet_blocks`` forms them.
    ``matvec`` and ``rmatvec`` apply the blocks by running sums along each
    edge, sum_{j >= i} br_j x_j from the right and sum_{j < i} ar_j x_j
    from the left, and the low-rank term as u @ (v @ x): O(n (1 + rank))
    work and no n x n array.  Where |Im kappa| l is large the sines grow
    like e^{|Im kappa| x}, so br and ar decay away from the far end and
    each running sum is dominated by its newest term: no sum cancels.
    ``dense`` rebuilds the matrix the way the outer products of the
    Dirichlet kernel always have, bit for bit.
    """

    def __init__(self, blocks, u: np.ndarray, v: np.ndarray):
        self.blocks = tuple(blocks)
        self.u, self.v = u, v
        self.shape = (u.shape[0], v.shape[1])

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @cached_property
    def _layout(self):
        """The blocks padded to (edges x longest edge) arrays, so that one
        cumsum along the last axis gives both running sums of every edge.

        Returns, for matvec and then for rmatvec, (gather, weight, factor,
        rows): the sum over the samples ``gather`` of ``weight`` times the
        vector, accumulated and multiplied by ``factor``, belongs to
        ``rows``.  The sums from the right run on the edge reversed; the
        strict ones read the samples shifted one place, so that the
        inclusive cumsum leaves out the diagonal.  Padding reads and writes
        sample 0 with zero weight and factor.
        """
        sizes = np.array([sl.stop - sl.start for sl, _ in self.blocks])
        width = sizes.max()
        idx = np.zeros((sizes.size, width), dtype=np.intp)
        padded = np.zeros((4, sizes.size, width), dtype=complex)
        for row, (sl, vectors) in enumerate(self.blocks):
            idx[row, :sizes[row]] = np.arange(sl.start, sl.stop)
            padded[:, row, :sizes[row]] = vectors
        la, br, lb, ar = padded

        def shifted(a):
            out = np.zeros_like(a)
            out[:, 1:] = a[:, :-1]
            return out

        rev = idx[:, ::-1]
        # matvec: la_i sum_{j >= i} br_j x_j + lb_i sum_{j < i} ar_j x_j
        apply = (
            np.array([rev, shifted(idx)]),
            np.array([br[:, ::-1], shifted(ar)]),
            np.array([la[:, ::-1], lb]),
            np.array([rev, idx]).ravel(),
        )
        # the transpose: br_i sum_{j <= i} la_j x_j + ar_i sum_{j > i} lb_j x_j
        transpose = (
            np.array([idx, shifted(rev)]),
            np.array([la, shifted(lb[:, ::-1])]),
            np.array([br, ar[:, ::-1]]),
            np.array([idx, rev]).ravel(),
        )
        return apply, transpose

    def _add_blocks(self, out: np.ndarray, x: np.ndarray, layout) -> np.ndarray:
        gather, weight, factor, rows = layout
        np.add.at(out, rows, (factor * (weight * x[gather]).cumsum(axis=-1)).ravel())
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The operator applied to the vector x."""
        y = self.u @ (self.v @ x)
        return self._add_blocks(y, x, self._layout[0]) if self.blocks else y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The conjugate transpose applied to y, as conj(A^T conj(y))."""
        t = np.conj(y)
        x = self.v.T @ (self.u.T @ t)
        return np.conj(self._add_blocks(x, t, self._layout[1]) if self.blocks else x)

    def dense(self) -> np.ndarray:
        """The matrix: u @ v, plus each Dirichlet block from two outer
        products, one copied into the strict lower triangle."""
        out = self.u @ self.v
        for sl, (la, br, lb, ar) in self.blocks:
            block = np.multiply.outer(la, br)
            np.copyto(block, np.outer(lb, ar), where=np.tri(la.size, k=-1, dtype=bool))
            out[sl, sl] += block
        return out

    def __sub__(self, other: "KernelOperator") -> "KernelOperator":
        """The difference, with the Dirichlet blocks that both hold, the same
        array at the same slice (the soft edges of two resolvents at one z),
        dropped rather than subtracted, and the low-rank factors stacked:
        [u_a, u_b] [v_a; -v_b]."""
        if other.shape != self.shape:
            raise ValueError("non-conformable operator blocks")
        ours, theirs = (
            {(sl.start, id(v)): (sl, v) for sl, v in op.blocks} for op in (self, other)
        )
        mine = [block for k, block in ours.items() if k not in theirs]
        theirs = [
            (sl, vectors * [[-1.0], [1.0], [-1.0], [1.0]])  # -la, br, -lb, ar
            for k, (sl, vectors) in theirs.items() if k not in ours
        ]
        return KernelOperator(
            mine + theirs, np.hstack([self.u, other.u]), np.vstack([self.v, -other.v])
        )


class _LazyGrid:
    """A component's sample grid ``make_grid(component, resolution)`` and the
    phase e^{-i tau x} on it, the only z-independent trig factor, each built
    on first read.  A workspace, its ``at_eps`` siblings and the edge kernels
    they build hold one, so each grid is built once, by whichever reads it
    first (a gen_res_rate row reads neither of the full graph's)."""

    def __init__(self, component: MetricGraph, resolution: int, tau: float):
        self.component, self.resolution, self.tau = component, resolution, tau

    @cached_property
    def grid(self) -> ComponentGrid:
        return make_grid(self.component, self.resolution)

    @cached_property
    def phase(self) -> np.ndarray:
        return np.exp(-1j * self.tau * self.grid.x)


class EdgeKernel:
    """The one record of an edge at one (speed c, z), kappa = sqrt(z)/c.

    At construction it evaluates the end scalars cos kappa l, sin kappa l,
    e^{-i tau l} and the end coefficients: the kernel field with
    Gamma0 = e_V at the left end V is e^{-i tau x}(conj(w_l) cos kappa x +
    q_l sin kappa x), the one at the right end e^{-i tau x} q_r sin kappa x.
    On first read it takes its samples from the grid of the workspace that
    built it (an edge's samples are the same on every grid that holds it,
    so the workspaces of a store share its record) and forms the edge's
    parts of the Dirichlet blocks, gamma(z) and Gamma1 D.  Raises
    ``PoleError`` where kappa l is at a Dirichlet level of the edge."""

    def __init__(self, edge: EdgeSpec, c: float, z: complex, tau: float, weights: dict,
                 grid: _LazyGrid, index: int):
        kappa = sqrt_upper(z) / c
        guard_pole(kappa * edge.length)
        self.edge, self.c, self.kappa = edge, c, kappa
        self.wl, self.wr = weights[(edge.left, edge.id)], weights[(edge.right, edge.id)]
        self.cos_l = cmath.cos(kappa * edge.length)
        self.sin_l = cmath.sin(kappa * edge.length)
        self.e_l = cmath.exp(-1j * tau * edge.length)
        self.q_l = -np.conj(self.wl) * self.cos_l / self.sin_l
        self.q_r = np.conj(self.e_l) * np.conj(self.wr) / self.sin_l
        self._grid, self._index = grid, index

    @cached_property
    def samples(self) -> tuple:
        """(x, w, phase, a, b) on the edge's samples x: trapezoid weights,
        e^{-i tau x}, sin(kappa x) and sin(kappa (l - x))."""
        g = self._grid.grid
        sl = g.slices[self._index]
        x = g.x[sl]
        return (x, g.w[sl], self._grid.phase[sl], np.sin(self.kappa * x),
                np.sin(self.kappa * (self.edge.length - x)))

    @cached_property
    def cos_x(self) -> np.ndarray:
        return np.cos(self.kappa * self.samples[0])

    @cached_property
    def dirichlet(self) -> np.ndarray:
        """The rows (la, br, lb, ar) of the edge's Dirichlet block (see
        ``ResolventWorkspace.dirichlet_blocks``)."""
        _, w, phase, a, b = self.samples
        right = np.conj(phase) * w / (self.c * self.c * self.kappa * self.sin_l)
        return np.array([phase * a, b * right, phase * b, a * right])

    @cached_property
    def gamma_columns(self) -> tuple:
        """The samples of gamma(z) e_V for the left and the right end V."""
        _, _, phase, a, _ = self.samples
        return phase * (np.conj(self.wl) * self.cos_x + self.q_l * a), phase * (self.q_r * a)

    @cached_property
    def gamma1_rows(self) -> tuple:
        """The row entries of Gamma1 D at the left and the right end.

        Left endpoint: + w c^2 e^{-i tau 0} dphi(0) with
        dphi(0) = int sin(kappa (l - y)) g(y) dy / (c^2 sin kappa l);
        right endpoint: - w c^2 e^{-i tau l} dphi(l) with
        dphi(l) = -int sin(kappa y) g(y) dy / (c^2 sin kappa l).
        """
        _, w, phase, a, b = self.samples
        base = np.conj(phase) * w / self.sin_l
        return self.wl * base * b, self.wr * self.e_l * base * a


class ResolventWorkspace:
    """The resolvent maps of one component (the full graph, or its stiff or
    soft part) at a fiber, with the component's Datta weights at its tau:
    M(z), and on the grid ``make_grid(component, resolution)``, built on
    first read (``_LazyGrid``), the Dirichlet blocks, gamma(z), Gamma1 D and
    the generalised resolvents."""

    def __init__(self, component: MetricGraph, fiber: FiberParams, resolution: int):
        self.component = component
        self.weights = datta_weights(component, fiber.tau)
        self.fiber = fiber
        self.vertices = tuple(sorted(component.vertices))
        self._vidx = {v: i for i, v in enumerate(self.vertices)}
        self._lazy_grid = _LazyGrid(component, resolution, fiber.tau)
        # the one store of every kept value, shared with the siblings
        self._store: dict = {}

    @property
    def nvert(self) -> int:
        return len(self.vertices)

    @property
    def grid(self) -> ComponentGrid:
        return self._lazy_grid.grid

    @property
    def phase(self) -> np.ndarray:
        return self._lazy_grid.phase

    def at_eps(self, eps: float) -> "ResolventWorkspace":
        """This workspace at contrast eps (same component, tau and z): the
        sibling shares the weights, the lazy grid and the store, where it
        finds what eps does not enter."""
        sibling = object.__new__(type(self))
        sibling.__dict__.update(self.__dict__, fiber=replace(self.fiber, eps=eps))
        return sibling

    def soft_part(self) -> "ResolventWorkspace":
        """The workspace of this one's soft component, on its own grid at
        the same resolution, sharing this one's store: each finds the edge
        kernels that the other evaluated."""
        part = ResolventWorkspace(
            self.component.subgraph("soft"), self.fiber, self._lazy_grid.resolution
        )
        part._store = self._store
        return part

    def _kept(self, key: tuple, build, *args):
        """``build(*args)``, kept in the store under ``key``, which names all
        the value depends on beside tau and the resolution.  A build that
        raises keeps nothing, so each later use raises again."""
        store = self._store
        if key not in store:
            store[key] = build(*args)
        return store[key]

    def edge_kernels(self, z: complex) -> list[EdgeKernel]:
        """The ``EdgeKernel`` of every edge at z in the component's (and the
        grid's) order, each built on its first use in the store under (edge
        id, speed, z), once for the workspaces, siblings and parts of a store."""
        kernels = []
        for i, e in enumerate(self.component.edges):
            c = self.fiber.speed(e)
            kernels.append(self._kept(
                (e.id, c, z), EdgeKernel, e, c, z, self.fiber.tau, self.weights, self._lazy_grid, i
            ))
        return kernels

    def m_matrix(self, z: complex) -> np.ndarray:
        """M(z) = Gamma1 of the kernel fields, one edge at a time."""
        out = np.zeros((self.nvert, self.nvert), dtype=complex)
        for k in self.edge_kernels(z):
            kappa, c2 = k.kappa, k.c ** 2
            il, ir = self._vidx[k.edge.left], self._vidx[k.edge.right]
            # + w c^2 (d/dx + i tau) u at coordinate 0, - at coordinate l
            out[il, il] += k.wl * c2 * (kappa * k.q_l)
            out[ir, il] -= k.wr * c2 * (
                k.e_l * (kappa * (-np.conj(k.wl) * k.sin_l + k.q_l * k.cos_l))
            )
            out[il, ir] += k.wl * c2 * (kappa * k.q_r)
            out[ir, ir] -= k.wr * c2 * (k.e_l * (kappa * (k.q_r * k.cos_l)))
        return out

    # -- Dirichlet decoupling, kernel lift and its dual ----------------

    def dirichlet_blocks(self, z: complex) -> tuple:
        """Per edge, the Dirichlet (decoupled) resolvent as a
        ``KernelOperator`` block ``(sl, [la, br, lb, ar])``.

        Kernel e^{-i tau (x - y)} sin(kappa x_<) sin(kappa (l - x_>))
        / (c^2 kappa sin(kappa l)), composed with trapezoid weights in y.
        It is rank one on each triangle of an edge block: with
        a = sin(kappa x) and b = sin(kappa (l - x)) on the ascending edge
        grid, the upper triangle is a_i b_j and the lower one a_j b_i.  The
        phase e^{-i tau x_i} (left) and the factor e^{i tau y_j} w_j /
        (c^2 kappa sin(kappa l)) (right) ride on those vectors: la = left a,
        br = b right, lb = left b, ar = a right.  Each block's rows are its
        ``EdgeKernel``'s, the one array of that edge in the store.
        """
        return tuple(
            (sl, k.dirichlet) for k, sl in zip(self.edge_kernels(z), self.grid.slices)
        )

    def dirichlet_matrix(self, z: complex) -> np.ndarray:
        """Dense sample-space matrix of the Dirichlet resolvent, for the
        certificates that read its entries."""
        n = self.grid.size
        return KernelOperator(
            self.dirichlet_blocks(z), np.zeros((n, 0), dtype=complex),
            np.zeros((0, n), dtype=complex),
        ).dense()

    def gamma_matrix(self, z: complex) -> np.ndarray:
        """n x N matrix of samples of gamma(z) e_V."""
        out = np.zeros((self.grid.size, self.nvert), dtype=complex)
        for k, sl in zip(self.edge_kernels(z), self.grid.slices):
            left, right = k.gamma_columns
            out[sl, self._vidx[k.edge.left]] += left
            out[sl, self._vidx[k.edge.right]] += right
        return out

    def gamma1_dirichlet_rows(self, z: complex) -> np.ndarray:
        """N x n matrix of Gamma1 (A_inf - z)^{-1} as quadrature functionals.

        Row V applied to samples f gives the signed weighted co-derivative
        sum of the Dirichlet solution at V.
        """
        out = np.zeros((self.nvert, self.grid.size), dtype=complex)
        for k, sl in zip(self.edge_kernels(z), self.grid.slices):
            left, right = k.gamma1_rows
            out[self._vidx[k.edge.left], sl] += left
            out[self._vidx[k.edge.right], sl] += right
        return out

    # -- resolvent ---------------------------------------------------------

    def generalized_resolvent(self, z: complex, b_of_z: np.ndarray | float) -> KernelOperator:
        """Generalised resolvent with z-dependent boundary matrix B(z).

        R(z) = Dirichlet - gamma(z) (M(z) - B(z))^{-1} Gamma1 Dirichlet,
        computed on this (sub)component, as the Dirichlet blocks plus the
        factors u = gamma(z) and v = -(M - B)^{-1} Gamma1 D.  B = 0 gives
        the resolvent of the weighted-Kirchhoff extension (the Krein
        formula); with B = -M_stiff of the full graph it is the sandwiched
        soft-component resolvent.
        """
        # what the resolvent reads beside B, evaluated once per edge speeds
        speeds = tuple((e.id, self.fiber.speed(e)) for e in self.component.edges)
        m, blocks, gamma, rows = self._kept((z, speeds), lambda: (
            self.m_matrix(z), self.dirichlet_blocks(z), self.gamma_matrix(z),
            self.gamma1_dirichlet_rows(z),
        ))
        denom = m - b_of_z
        cond = np.linalg.cond(denom)
        if not np.isfinite(cond) or cond > 1e14:
            raise PoleError(f"M(z) - B(z) nearly singular (cond={cond:.2e})")
        return KernelOperator(blocks, gamma, -np.linalg.solve(denom, rows))
