
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cells import Z, cells

from qglab.fdsolver import DiscretizedOperator, NearSingularError
from qglab.graphs import build_example
from qglab.krein import ResolventWorkspace
from qglab.lab import operator_norm_diff
from qglab.mmatrix import FiberParams


def _op(name="ex0", eps=0.3, tau=1.0, z=2 + 1j, res=256):
    g = build_example(name)
    return g, DiscretizedOperator(g, FiberParams(eps, tau, z), resolution=res)


def test_resolution_floor():
    g = build_example("ex0")
    with pytest.raises(ValueError):
        DiscretizedOperator(g, FiberParams(0.3, 0.0, 1.0), 8)


def test_assembled_form_is_symmetric():
    for name in ("ex0", "ex1", "ex2"):
        _, op = _op(name, tau=0.9, res=64)
        assert op.symmetry_defect(n_pairs=8, seed=1) < 1e-10


def test_vertex_flux_residual_small_after_solve():
    g, op = _op("ex1", tau=0.7, res=512)
    z = 2 + 1j
    f = np.cos(2.0 * op.grid.x) + 0.4j
    rhs = op.prolong.conj().T @ (op.grid.w * f)
    u_dofs = op._solve(z)(rhs)
    assert op.vertex_flux_residual(u_dofs, f, z) < 1e-10


def test_matches_krein_resolvent():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        tau, z = 0.8, 2 + 1j
        fiber = FiberParams(0.3, tau, z)
        res = 512
        op = DiscretizedOperator(g, fiber, resolution=res)
        ws = ResolventWorkspace(g, fiber, res)
        r_fd = op.resolvent(z) @ np.eye(op.grid.size)
        r_ex = ws.generalized_resolvent(z, 0.0).dense()
        err = np.linalg.norm(r_fd - r_ex, 2)
        h = 1.0 / res
        assert err < 5.0 * h * h * np.linalg.norm(r_ex, 2)


def test_resolvent_raises_at_a_discrete_eigenvalue():
    # the shifted system is singular up to roundoff there: building the
    # operator succeeds, and the first apply, either way, fails the residual
    # check of _solve instead of returning a vector with entries ~1e10
    _, op = _op("ex0", eps=0.3, tau=1.0, res=64)
    z = op.eigenvalues(1)[0]
    r = op.resolvent(z)
    x = np.cos(3.0 * op.grid.x) + 0.5j
    with pytest.raises(NearSingularError, match="rel residual"):
        r @ x
    with pytest.raises(NearSingularError, match="rel residual"):
        r.rmatvec(x)


def test_resolvent_halving_is_second_order():
    errs = []
    for res in (128, 256, 512):
        g = build_example("ex0")
        fiber = FiberParams(0.3, 1.0, 2 + 1j)
        op = DiscretizedOperator(g, fiber, resolution=res)
        ws = ResolventWorkspace(g, fiber, res)
        r_fd = op.resolvent(2 + 1j) @ np.eye(op.grid.size)
        errs.append(np.linalg.norm(r_fd - ws.generalized_resolvent(2 + 1j, 0.0).dense(), 2))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_lowest_eigenvalue_at_tau_zero():
    # at tau = 0 the constant function satisfies the matching conditions,
    # so zero is an eigenvalue of the fiber operator
    _, op = _op("ex0", eps=0.25, tau=0.0, res=256)
    evs = op.eigenvalues(3)
    assert abs(evs[0]) < 1e-8
    assert evs[1] > 1.0


def test_eigenvalues_increase_and_match_refinement():
    _, op1 = _op("ex2", eps=0.2, tau=1.0, res=256)
    _, op2 = _op("ex2", eps=0.2, tau=1.0, res=512)
    e1, e2 = op1.eigenvalues(4), op2.eigenvalues(4)
    assert np.all(np.diff(e1) > 0)
    assert np.max(np.abs(e1 - e2)) < 1e-2 * (1 + np.max(np.abs(e2)))


def _reference_matrices(op):
    """P, P^* K_block P and P^* M_block P built edge by edge from the P1
    element formulas, independently of the assembly under test."""
    g, fiber = op.grid, op.fiber
    verts = sorted(op.graph.vertices)
    n_int = sum(sl.stop - sl.start - 2 for sl in g.slices)
    p = sp.lil_matrix((g.size, op.ndof), dtype=complex)
    k_block = sp.lil_matrix((g.size, g.size), dtype=complex)
    m_block = sp.lil_matrix((g.size, g.size), dtype=complex)
    offset = 0
    for e, sl in zip(g.edges, g.slices):
        m = sl.stop - sl.start - 1
        p[sl.start, n_int + verts.index(e.left)] = np.conj(op.weights[(e.left, e.id)])
        p[sl.stop - 1, n_int + verts.index(e.right)] = np.conj(op.weights[(e.right, e.id)])
        for j in range(1, m):
            p[sl.start + j, offset + j - 1] = 1.0
        offset += m - 1
        h, c2, tau = e.length / m, fiber.speed(e) ** 2, fiber.tau
        m_el = np.array([[2, 1], [1, 2]]) * h / 6.0
        k_el = c2 * (
            np.array([[1, -1], [-1, 1]]) / h
            + 1j * tau * np.array([[0, -1], [1, 0]])
            + tau * tau * m_el
        )
        for j in range(m):
            nodes = [sl.start + j, sl.start + j + 1]
            for a in range(2):
                for b in range(2):
                    k_block[nodes[a], nodes[b]] += k_el[a, b]
                    m_block[nodes[a], nodes[b]] += m_el[a, b]
    p = p.tocsr()
    return p, p.conj().T @ k_block.tocsr() @ p, p.conj().T @ m_block.tocsr() @ p


def test_dof_space_assembly_matches_sandwiched_element_blocks():
    for name in ("ex0", "ex1", "ex2"):
        for res in (32, 200):
            _, op = _op(name, eps=0.1, tau=-2.3, res=res)
            p, k_ref, m_ref = _reference_matrices(op)
            assert abs(op.prolong - p).max() == 0.0
            for got, ref in ((op.k_mat, k_ref), (op.m_mat, m_ref)):
                assert got.shape == ref.shape == (op.ndof, op.ndof)
                assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


def test_eigenvalues_are_reproducible():
    _, op = _op("ex2", eps=0.0625, tau=0.7, res=256)
    first = op.eigenvalues(3)
    np.testing.assert_array_equal(first, op.eigenvalues(3))


def test_eigenvalues_free_their_arpack_state():
    # scipy holds a call's ARPACK state (Krylov basis, workspaces, the factor
    # of K + M) in a reference cycle: 18 objects and about 0.4 MB per call,
    # left for a full collection unless the call frees it itself
    _, op = _op()
    op.eigenvalues(3)  # the first call imports scipy
    gc.collect()
    op.eigenvalues(3)
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("converges", [True, False])
def test_eigenvalues_leave_the_collector_as_found(monkeypatch, enabled, converges):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    if not converges:
        monkeypatch.setattr(sla, "eigsh", no_convergence)
    _, op = _op()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if converges:
            assert op.eigenvalues(3).shape == (3,)
        else:
            with pytest.raises(ArithmeticError, match="eigsh did not converge"):
                op.eigenvalues(3)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _refined_solve(a, b):
    """np.linalg.solve(a, b) refined by one step whose residual is formed in
    clongdouble, so that it is accurate far below cond(a) eps."""
    u = np.linalg.solve(a, b)
    wide = np.clongdouble
    resid = b.astype(wide) - a.astype(wide) @ u.astype(wide)
    return u + np.linalg.solve(a, resid.astype(complex))


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


# a backward-stable solve is off by up to about cond(K - z M) eps relative,
# whatever the solver.  Against the refined dense reference splu stayed
# within 0.09 cond eps at the second pinned example below and within 0.06
# cond eps on a 9 x 7 grid of ex0 cells around it (a1 in [2.86, 2.94],
# l1 in [0.525, 0.545], same tau, z, res and seed)
FORWARD_CONST = 1.0


@settings(max_examples=20, deadline=None)
@given(
    g=cells(), tau=st.floats(-math.pi, math.pi), z=Z, res=st.integers(32, 64),
    seed=st.integers(0, 2**16),
)
# cond(K - z M) = 5.0e6 here, and <R x, y>_w cancels to 1/7 of its
# Cauchy-Schwarz scale: relative to |lhs| the two factorisations differ by
# 1.1e-10, relative to the scale by 1.7e-11
@example(
    g=build_example("ex0", l1=0.5, l2=0.5, a1=1.9375), tau=0.25, z=1j, res=58, seed=0
)
# cond(K - z M) = 1.1e7 here: splu's forward errors, 2.2e-10 and 2.3e-10
# against the refined reference (2.7e-10 and 2.8e-10 against an unrefined
# dense solve), exceed a fixed 1e-10 and are 0.09 cond eps
@example(
    g=build_example("ex0", l1=0.531, l2=1.0 - 0.531, a1=2.88), tau=0.0, z=0.5j,
    res=41, seed=0,
)
def test_resolvent_operator_matches_dense_reference(g, tau, z, res, seed):
    op = DiscretizedOperator(g, FiberParams(0.1, tau, z), res)
    # the dense reference P (K - z M)^{-1} P^* W and its adjoint W P (K - z M)^{-H} P^*
    p = op.prolong.toarray()
    a = (op.k_mat - z * op.m_mat).toarray()
    bound = FORWARD_CONST * np.linalg.cond(a) * np.finfo(float).eps
    r = op.resolvent(z)
    assert r.shape == (op.grid.size, op.grid.size) == (p.shape[0], p.shape[0])
    rng = np.random.default_rng(seed)
    x, y = (rng.standard_normal(r.shape[0]) + 1j * rng.standard_normal(r.shape[0])
            for _ in range(2))
    rx, ry = r @ x, r.rmatvec(y)
    w = op.grid.w
    assert _rel(rx, p @ _refined_solve(a, p.conj().T @ (w * x))) <= bound
    assert _rel(ry, w * (p @ _refined_solve(a.conj().T, p.conj().T @ y))) <= bound
    # weighted adjoint: <R(z) x, y>_w = <x, R(conj z) y>_w, where
    # R(conj z) = W^{-1} R(z)^H W applies by a forward solve at conj z.  The
    # two sides come from two factorisations, so their difference is roundoff
    # of the Cauchy-Schwarz scale |W^1/2 y| |W^1/2 R x|, not of |lhs|, which
    # a random pair can cancel far below it
    r_bar = DiscretizedOperator(g, FiberParams(0.1, tau, np.conj(z)), res).resolvent(
        np.conj(z)
    )
    lhs = np.vdot(w * y, rx)
    scale = np.linalg.norm(np.sqrt(w) * y) * np.linalg.norm(np.sqrt(w) * rx)
    assert abs(lhs - np.vdot(w * (r_bar @ y), x)) <= 1e-10 * scale
    assert abs(lhs - np.vdot(r.rmatvec(w * y), x)) <= 1e-10 * abs(lhs)


def test_power_iteration_on_the_fem_resolvent_allocates_no_dense_matrix():
    # a dense FEM inverse at resolution 1024 is one n x n complex array
    # (~17 MB); the matrix-free operator and its power iteration allocate
    # O(n) vectors and the O(n) sparse pencil (splu's own memory is not
    # traced, and is O(n) for these banded systems too)
    tracemalloc.start()
    try:
        _, op = _op("ex0", eps=0.3, tau=1.0, res=1024)
        norm = operator_norm_diff(op.resolvent(2 + 1j), None, op.grid.w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = op.grid.size**2 * np.dtype(complex).itemsize
    assert norm > 0.0
    assert peak < dense / 10
