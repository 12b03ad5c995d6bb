from functools import cached_property

import numpy as np
import pytest

from qglab import krein
from qglab.dispersion import k_closed
from qglab.effective import EffectiveModel, PsiEmbedding, effective_params
from qglab.graphs import build_example, datta_weights
from qglab.krein import KernelOperator, ResolventWorkspace
from qglab.mmatrix import FiberParams, PoleError


def _model(name="ex0", eps=0.1, tau=1.0, z=2 + 1j, res=64):
    g = build_example(name)
    fiber = FiberParams(eps, tau, z)
    return g, EffectiveModel(g, fiber, res)


def test_schur_frobenius_inverts_dispersion():
    for name in ("ex0", "ex1", "ex2"):
        for tau in (-1.0, 0.3, 2.9):
            for z in (2 + 1j, 5 + 2j):
                g, model = _model(name, tau=tau, z=z)
                s = model.schur_frobenius(z)
                kv = k_closed(g, tau, z, eps=0.1)
                assert abs(s * (kv - z) - 1.0) < 1e-9


def test_schur_herglotz_sign():
    for name in ("ex0", "ex1", "ex2"):
        _, model = _model(name, tau=0.8, z=2 + 1j)
        assert model.schur_frobenius(2 + 1j).imag > -1e-12


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
def test_grid_free_schur_scalar_is_the_hom_corner(name):
    # the corner of a_hom is the scalar schur_frobenius used to read
    for tau, z in ((0.3, 2 + 1j), (2.9, 10 + 0.7j)):
        for res in (16, 96):
            _, model = _model(name, tau=tau, z=z, res=res)
            s = model.schur_frobenius(z)
            corner = model.a_hom(z).dense()[-1, -1]
            assert abs(s - corner) <= 1e-14 * abs(corner)


def test_schur_scalar_samples_nothing(monkeypatch):
    # the Schur scalar reads only the end scalars of the soft edges' records:
    # it builds no grid, and no record evaluates any of its sampled arrays
    # (every cached property of an EdgeKernel is one)
    def no_grid(*args):
        raise AssertionError("the Schur scalar built a sample grid")

    monkeypatch.setattr(krein, "make_grid", no_grid)
    g = build_example("ex2")
    model = EffectiveModel(g, FiberParams(0.1, 1.0, 2 + 1j), 64)
    s = model.schur_frobenius(2 + 1j)
    assert abs(s * (k_closed(g, 1.0, 2 + 1j, eps=0.1) - (2 + 1j)) - 1.0) < 1e-9
    kernels = [v for v in model.kernels._store.values() if isinstance(v, krein.EdgeKernel)]
    assert sorted(k.edge.id for k in kernels) == sorted(e.id for e in g.edges if not e.is_stiff)
    sampled = [n for n, v in vars(krein.EdgeKernel).items() if isinstance(v, cached_property)]
    assert "samples" in sampled and "dirichlet" in sampled
    assert [n for k in kernels for n in sampled if n in vars(k)] == []


def test_dilation_matches_hom_matrix():
    for name in ("ex0", "ex1", "ex2"):
        _, model = _model(name, tau=1.2, z=5 + 2j, res=48)
        a = model.a_hom(5 + 2j).dense()
        d = model.dilation_blocks(5 + 2j)
        assert np.max(np.abs(a - d)) < 1e-9 * (1 + np.max(np.abs(a)))


def test_exact_resolvent_identity():
    # R(z) - R(w) = (z - w) R(z) R(w) with the exact composition
    z, w = 2 + 1j, 5 + 2j
    for name in ("ex0", "ex1", "ex2"):
        _, model = _model(name, tau=0.9, z=z, res=48)
        lhs = model.a_hom(z).dense() - model.a_hom(w).dense()
        rhs = (z - w) * model.compose(z, w)
        scale = 1 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_compose_rejects_equal_points():
    _, model = _model("ex0")
    with pytest.raises(ValueError):
        model.compose(2 + 1j, 2 + 1j)


def test_adjoint_symmetry_of_hom_matrix():
    _, model = _model("ex1", tau=0.7, z=2 + 1j, res=48)
    w = np.concatenate([model.grid.w, [1.0]])
    a_z = model.a_hom(2 + 1j).dense()
    a_zb = model.a_hom(2 - 1j).dense()
    defect = np.max(np.abs(w[:, None] * a_zb - (w[:, None] * a_z).conj().T))
    assert defect < 1e-10


def test_effective_params_rho_and_psi():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        par = effective_params(g, FiberParams(0.1, 0.9, 2 + 1j))
        assert par.rho > 0
        assert np.isclose(np.linalg.norm(par.psi), 1.0)


def test_ex1_xi_floor_raises_at_equal_impedance_degeneracy():
    import math

    from qglab.dispersion import k_closed, k_series
    from qglab.graphs import xi_ex1
    from qglab.triples import (
        beff_deviation,
        btilde_numeric,
        delta_fn,
        rotation_x,
    )

    # with equal stiff impedances a1^2/l1 = a3^2/l3 the boundary vector
    # degenerates at tau = -pi, where xi(tau) vanishes exactly
    g = build_example("ex1", a3=1.0)
    assert abs(xi_ex1(g, -math.pi)) < 1e-12
    fiber = FiberParams(0.1, -math.pi, 2 + 1j)
    for call in (
        lambda: effective_params(g, fiber),
        lambda: rotation_x(g, -math.pi),
        lambda: btilde_numeric(g, fiber),
        lambda: beff_deviation(g, fiber),
        lambda: delta_fn(g, fiber),
        lambda: k_closed(g, -math.pi, 2 + 1j, eps=0.1),
        lambda: k_closed(g, np.array([0.5, -math.pi]), 2 + 1j, eps=0.1),
        lambda: k_series(g, -math.pi, 2 + 1j, 100, eps=0.1),
    ):
        with pytest.raises(PoleError):
            call()
    # one degenerate element fails a whole tau stack
    taus = np.array([0.5, -math.pi, 2.0])
    stack = FiberParams(np.array([0.2, 0.1]), taus[:, None], 2 + 1j)
    for call in (
        lambda: rotation_x(g, taus),
        lambda: btilde_numeric(g, stack),
        lambda: beff_deviation(g, stack),
        lambda: delta_fn(g, stack),
    ):
        with pytest.raises(PoleError):
            call()
    # the default parameters never degenerate
    g_def = build_example("ex1")
    par = effective_params(g_def, FiberParams(0.1, -math.pi, 2 + 1j))
    assert par.rho > 0
    assert np.isfinite(k_closed(g_def, -math.pi, 2 + 1j, eps=0.1))


def test_delta_guard_raises_pole_error_when_any_denominator_vanishes(monkeypatch):
    from qglab import triples
    from qglab.mmatrix import mat2

    g = build_example("ex1")
    taus = np.array([0.5, 1.0])
    # B = (1/eps)[[alpha, 1], [1, alpha]] with alpha = (2, 1): the guarded
    # eps^2 (B00^2 - B10 B01) = alpha^2 - 1 = (3, 0) is at the guard at the second tau
    alpha = np.array([2.0, 1.0])
    monkeypatch.setattr(
        triples, "b_matrix", lambda graph, fiber: mat2(alpha, 1.0, 1.0, alpha) / fiber.eps
    )
    with pytest.raises(PoleError, match="delta"):
        triples.delta_fn(g, FiberParams(0.1, taus, 2 + 1j))


def test_psi_embedding_is_partial_isometry():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        fiber = FiberParams(0.1, 0.9, 2 + 1j)
        emb = PsiEmbedding(ResolventWorkspace(g, fiber, 128))
        fwd, adj = emb.forward_matrix(), emb.adjoint_matrix()
        ident = fwd @ adj
        assert np.max(np.abs(ident - np.eye(emb.n_soft + 1))) < 1e-12
        # Psi* Psi is an orthogonal projection in the weighted inner product
        proj = adj @ fwd
        ww = emb.grid.w
        assert (
            np.max(np.abs(ww[:, None] * proj - (ww[:, None] * proj).conj().T))
            < 1e-12
        )
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
@pytest.mark.parametrize("tau", [0.9, -2.3])
def test_psi_lift_interpolates_normalized_psi_at_stiff_ends(name, tau):
    # the lift is the zero-energy kernel field with Gamma0 = psi, divided by
    # its grid norm: its weighted end samples are psi/norm on every stiff
    # edge, it has unit norm, and it vanishes on the soft samples
    g = build_example(name)
    w = datta_weights(g, tau)
    fiber = FiberParams(0.1, tau, 2 + 1j)
    emb = PsiEmbedding(ResolventWorkspace(g, fiber, 64))
    grid = emb.grid
    psi = dict(zip(sorted(g.vertices), effective_params(g, fiber).psi))
    lift = emb.lift
    nrm = np.sqrt(np.sum(grid.w * np.abs(lift) ** 2))
    assert abs(nrm - 1.0) < 1e-12
    assert np.all(lift[emb.soft_idx] == 0)
    ends = [
        (w[(v, e.id)] * lift[pos], psi[v])
        for e, sl in zip(grid.edges, grid.slices)
        if e.is_stiff
        for v, pos in ((e.left, sl.start), (e.right, sl.stop - 1))
    ]
    ratios = np.array([end / p for end, p in ends])
    assert np.max(np.abs(ratios.imag)) < 1e-12 * np.max(np.abs(ratios))
    assert np.min(ratios.real) > 0
    assert np.ptp(ratios.real) < 1e-12 * np.max(ratios.real)


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
def test_psi_sandwich_matches_dense_products(name):
    g = build_example(name)
    fiber = FiberParams(0.1, -1.7, 2 + 1j)
    emb = PsiEmbedding(ResolventWorkspace(g, fiber, 64))
    m = emb.n_soft + 1
    rng = np.random.default_rng(5)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # a generic operator on the homogenised space: random blocks on the soft
    # edges' samples and random rank-3 factors
    soft = EffectiveModel(g, fiber, 64).grid.slices
    a = KernelOperator([(sl, draw(4, sl.stop - sl.start)) for sl in soft], draw(m, 3), draw(3, m))
    ref = emb.adjoint_matrix() @ a.dense() @ emb.forward_matrix()
    assert np.max(np.abs(emb.sandwich(a).dense() - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_psi_sandwich_refuses_a_model_at_another_resolution():
    # a model at twice Psi's resolution has more soft samples than Psi
    g = build_example("ex0")
    fiber = FiberParams(0.1, 1.0, 2 + 1j)
    emb = PsiEmbedding(ResolventWorkspace(g, fiber, 32))
    a = EffectiveModel(g, fiber, 64).a_hom(2 + 1j)
    assert a.shape[0] > emb.n_soft + 1
    with pytest.raises(ValueError, match="n_soft"):
        emb.sandwich(a)


@pytest.mark.parametrize("part", ["soft", "stiff"])
def test_psi_refuses_a_component_workspace(part):
    g = build_example("ex1")
    fiber = FiberParams(0.1, 1.0, 2 + 1j)
    with pytest.raises(ValueError, match="full graph"):
        PsiEmbedding(ResolventWorkspace(g.subgraph(part), fiber, 32))


def test_r_eff_matches_hom_soft_block():
    # the generalised resolvent on soft samples is the soft block of the
    # homogenised resolvent
    _, model = _model("ex2", tau=0.5, z=2 + 1j, res=48)
    n = model.grid.size
    r = model.r_eff(2 + 1j).dense()
    a = model.a_hom(2 + 1j).dense()
    assert np.max(np.abs(r - a[:n, :n])) < 1e-11
