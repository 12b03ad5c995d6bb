import numpy as np
import pytest
from hypothesis import given, settings

from qglab.graphs import build_example
from qglab.krein import ResolventWorkspace
from qglab.mmatrix import FiberParams, m_blocks_closed
from test_cells import EPS, TAU, Z, cells


def _setup(name="ex0", eps=0.3, tau=1.0, z=2 + 1j, res=256):
    g = build_example(name)
    fiber = FiberParams(eps, tau, z)
    return g, ResolventWorkspace(g, fiber, res)


def _m_matrices(g, tau, z, eps):
    """m_matrix of the full, stiff and soft workspaces, and m_blocks_closed."""
    fiber = FiberParams(eps, tau, z)
    got = {
        part: ResolventWorkspace(comp, fiber, 8).m_matrix(z)
        for part, comp in (
            ("full", g), ("stiff", g.subgraph("stiff")), ("soft", g.subgraph("soft"))
        )
    }
    return got, m_blocks_closed(g, fiber)


@settings(max_examples=40, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_m_matrix_matches_closed_blocks(g, tau, z, eps):
    got, closed = _m_matrices(g, tau, z, eps)
    for part, ref in (
        ("full", closed.m_full), ("stiff", closed.m_stiff), ("soft", closed.m_soft)
    ):
        assert np.max(np.abs(got[part] - ref)) <= 1e-11 * np.max(np.abs(ref)), part


@settings(max_examples=40, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_component_m_matrices_add(g, tau, z, eps):
    got, _ = _m_matrices(g, tau, z, eps)
    defect = got["full"] - got["stiff"] - got["soft"]
    assert np.max(np.abs(defect)) <= 1e-11 * np.max(np.abs(got["full"]))


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
@pytest.mark.parametrize("component", ["full", "stiff", "soft"])
def test_gamma_matrix_weighted_end_samples_are_unit_data(name, component):
    # Gamma0 gamma(z) e_V = e_V: at each end of each edge the weighted sample
    # w_V(e) u_e(V) of column V' is 1 when V' = V and 0 otherwise
    g = build_example(name)
    comp = g if component == "full" else g.subgraph(component)
    tau, z = 0.9, 2 + 1j
    ws = ResolventWorkspace(comp, FiberParams(0.1, tau, z), 32)
    gam = ws.gamma_matrix(z)
    eye = np.eye(ws.nvert)
    for e, sl in zip(ws.grid.edges, ws.grid.slices):
        for v, pos in ((e.left, sl.start), (e.right, sl.stop - 1)):
            ends = ws.weights[(v, e.id)] * gam[pos]
            assert np.max(np.abs(ends - eye[ws._vidx[v]])) < 1e-12


def test_gamma1_rows_are_weighted_adjoint_of_lift():
    # Gamma1 (A_D - z)^{-1} = (gamma(zbar))^* W : exact duality on samples
    _, ws = _setup("ex1", tau=0.6, z=2 + 1j)
    z = 2 + 1j
    rows = ws.gamma1_dirichlet_rows(z)
    lift = ws.gamma_matrix(np.conj(z))
    dual = lift.conj().T * ws.grid.w[None, :]
    assert np.max(np.abs(rows - dual)) < 1e-12


def test_dirichlet_kernel_solves_ode():
    # apply the kernel to a smooth forcing and check the ODE residual by
    # finite differences in the interior of each edge
    g, ws = _setup("ex0", tau=0.8, z=2 + 1j, res=2048)
    grid = ws.grid
    z = 2 + 1j
    f = np.exp(np.sin(3.0 * grid.x)) + 0.3j * grid.x
    u = ws.dirichlet_matrix(z) @ f
    fiber = ws.fiber
    worst = 0.0
    for e, sl in zip(grid.edges, grid.slices):
        x = grid.x[sl]
        h = x[1] - x[0]
        c2 = fiber.speed(e) ** 2
        ue, fe = u[sl], f[sl]
        d1 = (ue[2:] - ue[:-2]) / (2 * h)
        d2 = (ue[2:] - 2 * ue[1:-1] + ue[:-2]) / (h * h)
        res = (
            -c2 * (d2 + 2j * fiber.tau * d1 - fiber.tau**2 * ue[1:-1])
            - z * ue[1:-1]
            - fe[1:-1]
        )
        worst = max(worst, float(np.max(np.abs(res))))
        # Dirichlet boundary values vanish
        assert abs(ue[0]) < 1e-12 and abs(ue[-1]) < 1e-12
    assert worst < 1e-4  # second-order FD residual at h ~ 5e-4


def _dirichlet_reference(ws: ResolventWorkspace, z: complex) -> np.ndarray:
    """The Dirichlet kernel entry by entry from x_< = min and x_> = max."""
    grid, fiber = ws.grid, ws.fiber
    out = np.zeros((grid.size, grid.size), dtype=complex)
    for e, sl in zip(grid.edges, grid.slices):
        c = fiber.speed(e)
        kappa = ws._kappa(e, z)
        x = grid.x[sl]
        xc = np.minimum.outer(x, x)
        xg = np.maximum.outer(x, x)
        ker = (
            np.sin(kappa * xc)
            * np.sin(kappa * (e.length - xg))
            / (c * c * kappa * np.sin(kappa * e.length))
        )
        phase = np.exp(-1j * fiber.tau * np.subtract.outer(x, x))
        out[sl, sl] = phase * ker * grid.w[sl][None, :]
    return out


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
@pytest.mark.parametrize("component", ["full", "soft"])
@pytest.mark.parametrize("tau, z", [(1.0, 2 + 1j), (-2.5, 5 + 3j), (0.3, -800 + 2j)])
def test_dirichlet_matrix_matches_min_max_kernel(name, component, tau, z):
    g = build_example(name)
    comp = g if component == "full" else g.subgraph("soft")
    fiber = FiberParams(0.1, tau, z)
    ws = ResolventWorkspace(comp, fiber, 96)
    if z.real < 0:
        # deep in the gap the soft-edge sines grow like e^{|Im kappa| l}
        soft = [e for e in comp.edges if not e.is_stiff]
        assert max(abs((ws._kappa(e, z) * e.length).imag) for e in soft) > 10
    ref = _dirichlet_reference(ws, z)
    got = ws.dirichlet_matrix(z)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_krein_resolvent_adjoint_symmetry():
    _, ws = _setup("ex1", tau=1.2, z=2 + 1j)
    z = 2 + 1j
    r_z = ws.generalized_matrix(z, 0.0)
    r_zb = ws.generalized_matrix(np.conj(z), 0.0)
    w = ws.grid.w
    defect = np.max(np.abs(w[:, None] * r_zb - (w[:, None] * r_z).conj().T))
    assert defect < 1e-10
