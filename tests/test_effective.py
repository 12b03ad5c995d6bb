import numpy as np
import pytest

from qglab.dispersion import k_closed
from qglab.effective import EffectiveModel, PsiEmbedding, effective_params
from qglab.graphs import build_example, datta_weights
from qglab.krein import make_grid
from qglab.mmatrix import FiberParams, PoleError


def _model(name="ex0", eps=0.1, tau=1.0, z=2 + 1j, res=64):
    g = build_example(name)
    w = datta_weights(g, tau)
    fiber = FiberParams(eps, tau, z)
    return g, EffectiveModel(g, w, fiber, resolution=res)


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


def test_dilation_matches_hom_matrix():
    for name in ("ex0", "ex1", "ex2"):
        _, model = _model(name, tau=1.2, z=5 + 2j, res=48)
        a = model.a_hom_matrix(5 + 2j)
        d = model.dilation_blocks(5 + 2j)
        assert np.max(np.abs(a - d)) < 1e-9 * (1 + np.max(np.abs(a)))


def test_exact_resolvent_identity():
    # R(z) - R(w) = (z - w) R(z) R(w) with the exact composition
    z, w = 2 + 1j, 5 + 2j
    for name in ("ex0", "ex1", "ex2"):
        _, model = _model(name, tau=0.9, z=z, res=48)
        lhs = model.a_hom_matrix(z) - model.a_hom_matrix(w)
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
    a_z = model.a_hom_matrix(2 + 1j)
    a_zb = model.a_hom_matrix(2 - 1j)
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
    from qglab.effective import xi_ex1
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
    # the default parameters never degenerate
    g_def = build_example("ex1")
    par = effective_params(g_def, FiberParams(0.1, -math.pi, 2 + 1j))
    assert par.rho > 0
    assert np.isfinite(k_closed(g_def, -math.pi, 2 + 1j, eps=0.1))


def test_psi_embedding_is_partial_isometry():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        w = datta_weights(g, 0.9)
        fiber = FiberParams(0.1, 0.9, 2 + 1j)
        grid = make_grid(g, 128)
        emb = PsiEmbedding(g, w, fiber, grid)
        fwd, adj = emb.forward_matrix(), emb.adjoint_matrix()
        ident = fwd @ adj
        assert np.max(np.abs(ident - np.eye(emb.n_soft + 1))) < 1e-12
        # Psi* Psi is an orthogonal projection in the weighted inner product
        proj = adj @ fwd
        ww = grid.w
        assert (
            np.max(np.abs(ww[:, None] * proj - (ww[:, None] * proj).conj().T))
            < 1e-12
        )
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
def test_psi_sandwich_matches_dense_products(name):
    g = build_example(name)
    w = datta_weights(g, -1.7)
    fiber = FiberParams(0.1, -1.7, 2 + 1j)
    emb = PsiEmbedding(g, w, fiber, make_grid(g, 64))
    m = emb.n_soft + 1
    rng = np.random.default_rng(5)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    ref = emb.adjoint_matrix() @ a @ emb.forward_matrix()
    assert np.max(np.abs(emb.sandwich(a) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_r_eff_matches_hom_soft_block():
    # the generalised resolvent on soft samples is the soft block of the
    # homogenised resolvent
    _, model = _model("ex2", tau=0.5, z=2 + 1j, res=48)
    n = model.grid.size
    r = model.r_eff_matrix(2 + 1j)
    a = model.a_hom_matrix(2 + 1j)
    assert np.max(np.abs(r - a[:n, :n])) < 1e-11
