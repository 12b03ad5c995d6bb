
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglab.graphs import build_example, datta_weights
from qglab.krein import (
    ComponentFrame,
    ExactField,
    ResolventWorkspace,
    field_inner,
    make_grid,
)
from qglab.mmatrix import FiberParams, m_blocks_closed


def _setup(name="ex0", eps=0.3, tau=1.0, z=2 + 1j, res=256):
    g = build_example(name)
    w = datta_weights(g, tau)
    fiber = FiberParams(eps, tau, z)
    frame = ComponentFrame(g, w, fiber)
    ws = ResolventWorkspace(frame, grid=make_grid(g, res))
    return g, frame, ws


def test_m_matrix_matches_closed_blocks():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (0.0, 1.0, -2.5):
            fiber = FiberParams(0.2, tau, 3 + 0.8j)
            frame = ComponentFrame(g, datta_weights(g, tau), fiber)
            m_closed = m_blocks_closed(g, fiber).m_full
            assert np.max(np.abs(frame.m_matrix(3 + 0.8j) - m_closed)) < 1e-11


def test_component_m_matrices_add():
    g = build_example("ex1")
    tau = 0.7
    fiber = FiberParams(0.15, tau, 2 + 1j)
    w = datta_weights(g, tau)
    m_full = ComponentFrame(g, w, fiber).m_matrix(2 + 1j)
    m_stiff = ComponentFrame(g.subgraph("stiff"), w, fiber).m_matrix(2 + 1j)
    m_soft = ComponentFrame(g.subgraph("soft"), w, fiber).m_matrix(2 + 1j)
    assert np.max(np.abs(m_full - m_stiff - m_soft)) < 1e-11


def test_gamma_fields_interpolate_boundary_data():
    g, frame, _ = _setup("ex1", tau=0.9)
    data = np.array([0.8 - 0.2j, 1.1 + 0.4j])
    fields = frame.gamma_fields(2 + 1j, data)
    assert np.max(np.abs(frame.gamma0(fields) - data)) < 1e-12


def test_gamma1_equals_m_on_lift():
    g, frame, _ = _setup("ex2", tau=-1.3)
    z = 5 + 2j
    data = np.array([1.0, -0.5 + 0.3j])
    fields = frame.gamma_fields(z, data)
    assert np.max(np.abs(frame.gamma1(fields) - frame.m_matrix(z) @ data)) < 1e-10


def test_gamma1_rows_are_weighted_adjoint_of_lift():
    # Gamma1 (A_D - z)^{-1} = (gamma(zbar))^* W : exact duality on samples
    _, frame, ws = _setup("ex1", tau=0.6, z=2 + 1j)
    z = 2 + 1j
    rows = ws.gamma1_dirichlet_rows(z)
    lift = ws.gamma_matrix(np.conj(z))
    dual = lift.conj().T * ws.grid.w[None, :]
    assert np.max(np.abs(rows - dual)) < 1e-12


def test_dirichlet_kernel_solves_ode():
    # apply the kernel to a smooth forcing and check the ODE residual by
    # finite differences in the interior of each edge
    g, frame, ws = _setup("ex0", tau=0.8, z=2 + 1j, res=2048)
    grid = ws.grid
    z = 2 + 1j
    f = np.exp(np.sin(3.0 * grid.x)) + 0.3j * grid.x
    u = ws.dirichlet_matrix(z) @ f
    fiber = frame.fiber
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
    grid, fiber = ws.grid, ws.frame.fiber
    out = np.zeros((grid.size, grid.size), dtype=complex)
    for e, sl in zip(grid.edges, grid.slices):
        c = fiber.speed(e)
        kappa = ws.frame._kappa(e, z)
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
    frame = ComponentFrame(comp, datta_weights(g, tau), fiber)
    ws = ResolventWorkspace(frame, grid=make_grid(comp, 96))
    if z.real < 0:
        # deep in the gap the soft-edge sines grow like e^{|Im kappa| l}
        soft = [e for e in comp.edges if not e.is_stiff]
        assert max(abs((frame._kappa(e, z) * e.length).imag) for e in soft) > 10
    ref = _dirichlet_reference(ws, z)
    got = ws.dirichlet_matrix(z)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_krein_resolvent_adjoint_symmetry():
    _, _, ws = _setup("ex1", tau=1.2, z=2 + 1j)
    z = 2 + 1j
    r_z = ws.krein_matrix(z)
    r_zb = ws.krein_matrix(np.conj(z))
    w = ws.grid.w
    defect = np.max(np.abs(w[:, None] * r_zb - (w[:, None] * r_z).conj().T))
    assert defect < 1e-10


def test_generalized_reduces_to_krein_at_b_zero():
    _, _, ws = _setup("ex0", tau=0.4)
    z = 2 + 1j
    r1 = ws.krein_matrix(z)
    r2 = ws.generalized_matrix(z, np.zeros((2, 2), dtype=complex))
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_field_inner_matches_quadrature():
    g = build_example("ex0")
    e = g.edges[1]  # e2
    f1 = ExactField(e, 0.7, 2.0 + 0.3j, 1.0, 0.5 - 0.2j)
    f2 = ExactField(e, 0.7, 1.1 - 0.1j, 0.3j, 1.0)
    x = np.linspace(0, e.length, 20001)
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = w[1] / 2
    quad = np.sum(f1.u(x) * np.conj(f2.u(x)) * w)
    assert abs(field_inner(f1, f2) - quad) < 1e-8


@settings(max_examples=20, deadline=None)
@given(
    p=st.floats(-2, 2),
    q=st.floats(-2, 2),
    kre=st.floats(0.5, 4.0),
)
def test_field_inner_affine_vs_oscillatory(p, q, kre):
    g = build_example("ex0")
    e = g.edges[1]  # e2
    aff = ExactField(e, 0.0, None, p, q)
    osc = ExactField(e, 0.0, kre + 0j, 1.0, 0.7)
    x = np.linspace(0, e.length, 4001)
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = w[1] / 2
    quad = np.sum(aff.u(x) * np.conj(osc.u(x)) * w)
    assert abs(field_inner(aff, osc) - quad) < 1e-6


def test_zero_energy_fields_are_affine():
    g, frame, _ = _setup("ex1", tau=0.5)
    fields = frame.gamma_fields(0.0, np.array([1.0, 2.0]))
    assert all(f.kappa is None for f in fields)
    assert np.max(np.abs(frame.gamma0(fields) - np.array([1.0, 2.0]))) < 1e-12
