"""The per-cell record and the closed forms built on it, away from the defaults.

At the default cells a2 = 1 everywhere (and a1 = a2 = 1 in ex2), so a dropped
or swapped soft speed leaves the default-cell tests blind.  Here lengths
summing to 1 and speeds in [0.5, 3] are drawn, with Im z >= 0.5 (clear of the
real-axis poles) and |tau| <= 3 (clear of the ex1 equal-impedance set
tau = -pi).

The closed forms also take arrays of tau, z (and eps): each array call must
equal the loop of 0-d calls it replaces, and the runners must make one such
call per (cell, eps) or per cell, not one per point.

The effective layer (``r_eff``, ``a_hom``, the Schur scalar
and ``dilation_blocks``) must meet its boundary conditions and agree with
itself at every drawn cell, including ex2's drawn soft speeds a1 and a2, and
``PsiEmbedding`` must sample the model's soft grid.

The FEM pencil at -tau must be the entrywise conjugate of the one at tau, bit
for bit: ``bands`` solves one spectrum per |tau| on that premise.  An ``at``
sibling of a FEM operator, which reuses its layout, must equal an operator
built afresh, bit for bit, at every drawn cell.
"""

import ast
import contextlib
import io
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_effective import psi_matrices

import qglab
from qglab import dispersion, lab, realline, triples
from qglab.cli import main
from qglab.dispersion import k_closed, k_series
from qglab.effective import EffectiveModel, PsiEmbedding
from qglab.fdsolver import DiscretizedOperator, FemLayout
from qglab.graphs import PoleError, build_example, stiff_length
from qglab.krein import ResolventWorkspace
from qglab.mmatrix import (
    POLE_GUARD,
    FiberParams,
    MMatrixSet,
    check_additivity,
    deviation,
    herglotz_min_eig,
    m_blocks_closed,
    m_general,
)
from qglab.realline import (
    difference_symbol,
    ex1_model_distance,
    gaussian_packet,
    make_line_grid,
    multiplier_symbol,
    symbol_identity_defect,
)
from qglab.triples import (
    b_eff,
    b_matrix,
    beff_deviation,
    btilde_closed_ex0,
    btilde_numeric,
    delta_fn,
    projection_transform,
    rotation_x,
    second_swap,
)

SPEED = st.floats(0.5, 3.0)
TAU = st.floats(-3.0, 3.0)
EPS = st.sampled_from([0.2, 0.1, 0.05])
Z = st.builds(complex, st.floats(-5.0, 30.0), st.floats(0.5, 4.0))


@st.composite
def cells(draw, names=("ex0", "ex1", "ex2")):
    name = draw(st.sampled_from(names))
    if name == "ex0":
        l1 = draw(st.floats(0.1, 0.9))
        return build_example(name, l1=l1, l2=1.0 - l1, a1=draw(SPEED))
    l1, l2 = draw(st.floats(0.1, 0.45)), draw(st.floats(0.1, 0.45))
    speeds = ("a1", "a2", "a3") if name == "ex2" else ("a1", "a3")
    return build_example(
        name, l1=l1, l2=l2, l3=1.0 - l1 - l2, **{a: draw(SPEED) for a in speeds}
    )


@settings(max_examples=40, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_k_closed_matches_series(g, tau, z, eps):
    # the series tail past J is at most (|z|/L)(8 l_chain + 4 l_loop)/(pi^2 J)
    # to leading order, since |mu_j - z| ~ mu_j = (a pi j/l)^2 there
    n_terms = 4000
    cell = g.cell
    lengths = 8.0 * cell.chain.length + (4.0 * cell.loop.length if cell.loop else 0.0)
    bound = 1.5 * abs(z) * lengths / (math.pi**2 * stiff_length(g) * n_terms)
    kc = k_closed(g, tau, z, eps=eps)
    assert abs(k_series(g, tau, z, n_terms, eps=eps) - kc) <= bound


@settings(max_examples=45, deadline=None)
@given(
    g=cells(), tau=st.floats(-math.pi, math.pi), t=st.floats(-4.0, 4.0),
    eps=st.sampled_from([0.125, 0.0625, 0.015625]),
)
@example(
    g=build_example("ex2", l1=0.25, l2=0.25, l3=0.5, a1=1.0, a2=0.99999), tau=0.0, t=0.0,
    eps=0.125,
)
# the ex1 coupling Re theta(pi) is +1 where cos(pi) = -1: the pole 61.685 is
# not removable there, and the even-index level 246.74 is
@example(g=build_example("ex1"), tau=math.pi, t=math.pi, eps=1.0)
def test_band_roots_scan_decreases_and_roots_solve_k_eq_z(g, tau, t, eps):
    # 1/(K - z) is Herglotz at every cell, so the monotonicity check of
    # band_roots never fires; z = 0 (reported from K(tau, 1e-9)), removable
    # poles (those of parity c(tau), the cell's boundary coupling) and flat
    # levels are Dirichlet levels, not roots of K - z, and each decoupled
    # level up to z_max is among the roots.  A cell with a stiff cycle (ex1)
    # is scanned at a fixed two-scale quasimomentum t = tau/eps, where its
    # germ term sigma^2 t^2 enters K.
    # The refinement closes each root's bracket below ROOT_TOL + 1e-15 r and
    # returns its midpoint, so the decreasing K - z changes sign across
    # r -+ that distance, widened by 4 ulps for the rounding of the probes.
    # Where |dK/dz| ulp(r) is small, a float64 z can also meet a residual
    # bound; at the pinned draw a root sits between two poles 3.2e-3 apart,
    # where dK/dz ~ -8e9 and one ulp of z moves K - z by about 3.6e-4
    if g.cell.germ:
        tau = eps * t
    else:
        eps = None
    z_max = 260.0
    roots = dispersion.band_roots(g, tau, z_max, eps=eps)
    coupling = g.cell.coupling(tau)
    decoupled = set(dispersion.flat_levels(g, z_max)) | {
        z for z, parity, _ in dispersion._pole_list(g, z_max * (1.0 + 1e-9))
        if parity is not None and abs(coupling - parity) < 1e-9
    }
    assert {z for z in decoupled if z <= z_max} <= set(roots.tolist())
    levels = {0.0} | decoupled
    for r in roots:
        if r in levels:
            continue
        d = dispersion.ROOT_TOL + 1e-15 * r + 4.0 * math.ulp(r)
        k_lo, k_hi = (k_closed(g, tau, z, eps=eps).real for z in (r - d, r + d))
        assert k_lo - (r - d) >= 0.0 >= k_hi - (r + d)
        slope = abs(k_hi - k_lo) / (2.0 * d)
        if slope * math.ulp(r) <= 1e-10 * max(1.0, r):
            assert abs(k_closed(g, tau, r, eps=eps) - r) <= 1e-8 * max(1.0, r)


@settings(max_examples=25, deadline=None)
@given(g=cells(), zs=st.lists(Z, min_size=2, max_size=5), eps=EPS)
def test_k_closed_array_matches_scalar_loop(g, zs, eps):
    taus = np.linspace(-3.0, 3.0, 7)
    arr = k_closed(g, taus[:, None], np.array(zs)[None, :], eps=eps)
    ref = np.array([[k_closed(g, float(t), z, eps=eps) for z in zs] for t in taus])
    assert np.all(np.abs(arr - ref) <= 1e-13 * np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(g=cells(("ex0", "ex2")), z=Z, eps=st.sampled_from([0.125, 0.0625]))
def test_difference_symbol_equals_multiplier(g, z, eps):
    grid = make_line_grid(16.0, 256)
    t = grid.t[np.abs(grid.t) <= math.pi / eps]
    d = difference_symbol(g, eps, z, t)
    m = multiplier_symbol(g, eps, z, t)
    assert np.max(np.abs(d - m)) <= 1e-12 * np.max(np.abs(m))


@settings(max_examples=40, deadline=None)
@given(g=cells(("ex1",)), z=Z)
def test_ex1_line_model_at_drawn_cells(g, z):
    # what line_models certifies at the default ex1 cell, on its grid and
    # datum: the symbol identity at eps = 1/8, 1/16, and the O(eps^2) decay
    # of the model distance over its eps range.  Each halving shrinks the
    # distance; from eps = 1/32 on by a factor in [3, 5], the band of the
    # krein_vs_direct halving ratios.  The coarser pairs are pre-asymptotic
    # at some drawn cells near the real axis: 2000 draws read 1.5-5.4 for
    # 1/8 -> 1/16 and 2.3-4.4 for 1/16 -> 1/32, but 3.5-4.1 for 1/32 -> 1/64.
    grid = make_line_grid(32.0, 4096)
    f = gaussian_packet(grid, width=0.5)
    try:
        defect = max(symbol_identity_defect(g, eps, z, grid) for eps in (0.125, 0.0625))
        dist = np.array([ex1_model_distance(g, eps, z, grid, f=f) for eps in lab.DEFAULT_EPS])
    except PoleError:
        # at equal impedance a1^2/l1 = a3^2/l3, xi vanishes at tau = pi,
        # inside every model band: the model refuses the cell
        p = g.params
        assert math.isclose(p["a1"] ** 2 / p["l1"], p["a3"] ** 2 / p["l3"], rel_tol=1e-8)
        return
    assert defect < lab.SYMBOL_TOL
    ratios = dist[:-1] / dist[1:]
    assert np.all(ratios > 1.0)
    assert np.all((3.0 <= ratios[2:]) & (ratios[2:] <= 5.0))


def _line_models_point_by_point(cells, eps_list, z_list, grid, sigma):
    """The rows and FAIL lines of ``line_models`` from the public per-point
    functions, each point solving its own transforms and limit model."""
    rows, failures = [], []

    def sweep(g, kind, what, eps_values, point):
        for z in z_list:
            for eps in eps_values:
                try:
                    value = point(eps, z)
                except ArithmeticError as exc:
                    failures.append(f"{g.example}: {what} failed at eps={eps:g}, z={z}: "
                                    f"{type(exc).__name__}: {exc}")
                    continue
                rows.append(dict(example=g.example, kind=kind, eps=eps, re_z=z.real,
                                 im_z=z.imag, value=value))

    for g in cells:
        sweep(g, "symbol_defect", "symbol defect", (0.125, 0.0625),
              lambda eps, z: symbol_identity_defect(g, eps, z, grid))
    f = gaussian_packet(grid, width=sigma)
    for g in (g for g in cells if g.cell.germ):
        sweep(g, "model_error", "line model", eps_list,
              lambda eps, z: ex1_model_distance(g, eps, z, grid, f=f))
    return rows, failures


def test_line_models_rows_equal_a_point_by_point_loop():
    # the runner transforms its datum once and solves each limit once per z;
    # every value and FAIL line is == the one of the public point functions
    res = lab.run_experiment("line_models")
    cells = [build_example(name) for name in lab.DEFAULT_EXAMPLES]
    rows, failures = _line_models_point_by_point(
        cells, lab.DEFAULT_EPS, lab.DEFAULT_Z, make_line_grid(32.0, 4096), 0.5
    )
    assert res.passed
    assert res.rows == rows
    assert res.failures == failures == []


@settings(max_examples=20, deadline=None)
@given(g=cells(("ex1",)), z=Z)
def test_line_models_rows_equal_a_point_by_point_loop_at_drawn_cells(g, z):
    # at an equal-impedance cell every point fails, with the same lines
    z_list = [z, 2 + 1j]
    with mock.patch.object(lab, "build_example", lambda name: g):
        res = lab.run_experiment(
            "line_models", {"examples": "ex1", "z_list": z_list, "grid_size": 1024}
        )
    rows, failures = _line_models_point_by_point(
        [g], lab.DEFAULT_EPS, z_list, make_line_grid(32.0, 1024), 0.5
    )
    assert res.rows == rows
    assert res.failures == failures


@settings(max_examples=30, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_schur_complement_inverts_dispersion(g, tau, z, eps):
    s = EffectiveModel(g, FiberParams(eps, tau, z), 1).schur_frobenius(z)
    assert abs(s * (k_closed(g, tau, z, eps=eps) - z) - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_closed_blocks_match_general(g, tau, z, eps):
    fiber = FiberParams(eps, tau, z)
    m = m_general(g, fiber)
    closed = m_blocks_closed(g, fiber).m_full
    assert np.max(np.abs(m - closed)) <= 1e-12 * (1.0 + np.max(np.abs(m)))


def _effective_model(g, tau, z, eps, res=24):
    return EffectiveModel(g, FiberParams(eps, tau, z), res)


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_r_eff_columns_meet_the_effective_vertex_conditions(g, tau, z, eps):
    # every column of r_eff is a field on the soft edges whose weighted end
    # values agree at each vertex, with Gamma0 u = (U1, U2) in span psi
    model = _effective_model(g, tau, z, eps)
    r = model.r_eff(z).dense()
    ends = {}
    for e, sl in zip(model.grid.edges, model.grid.slices):
        for v, pos in ((e.left, sl.start), (e.right, sl.stop - 1)):
            ends.setdefault(v, []).append(model.kernels.weights[(v, e.id)] * r[pos])
    tol = 1e-11 * np.max(np.abs(r))
    for first, *rest in ends.values():
        for u in rest:
            assert np.max(np.abs(u - first)) <= tol
    assert np.max(np.abs(ends[2][0] - model.omega * ends[1][0])) <= tol


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_hom_corner_is_the_schur_scalar_at_drawn_cells(g, tau, z, eps):
    model = _effective_model(g, tau, z, eps)
    corner = model.a_hom(z).dense()[-1, -1]
    assert abs(model.schur_frobenius(z) - corner) <= 1e-14 * abs(corner)


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_dilation_matches_hom_matrix_at_drawn_cells(g, tau, z, eps):
    model = _effective_model(g, tau, z, eps)
    a = model.a_hom(z).dense()
    assert np.max(np.abs(model.dilation_blocks(z) - a)) <= 1e-9 * (1 + np.max(np.abs(a)))


@settings(max_examples=25, deadline=None)
@given(
    g=cells(), taus=st.lists(TAU, min_size=2, max_size=3), z=Z, eps=EPS,
    res=st.sampled_from([16, 24, 64]),
)
def test_psi_samples_the_soft_model_grid_at_drawn_cells(g, taus, z, eps, res):
    # Psi is the identity on the soft samples: the model's soft grid is the
    # full grid at Psi's soft indices, bit for bit, and the index-map
    # sandwich is the dense product Psi* a Psi
    for tau in taus:
        fiber = FiberParams(eps, tau, z)
        model = EffectiveModel(g, fiber, res)
        full = ResolventWorkspace(g, fiber, res)
        emb = PsiEmbedding(full)
        assert np.array_equal(model.grid.x, full.grid.x[emb.soft_idx])
        assert np.array_equal(model.grid.w, full.grid.w[emb.soft_idx])
        a = model.a_hom(z)
        fwd, adj = psi_matrices(emb)
        ref = adj @ a.dense() @ fwd
        assert np.max(np.abs(emb.sandwich(a).dense() - ref)) <= 1e-14 * np.max(np.abs(ref))


def _outcome(compute):
    """compute()'s value, or the type and text of the ArithmeticError it
    raises (what a sweep turns into a FAIL line)."""
    try:
        return compute()
    except ArithmeticError as exc:
        return type(exc), str(exc)


@settings(max_examples=10, deadline=None)
@given(g=cells(), taus=st.lists(TAU, min_size=1, max_size=3), z=Z, res=st.sampled_from([16, 24]))
def test_rate_rows_equal_points_built_alone_at_drawn_cells(g, taus, z, res):
    # a row's eps read its eps-free objects through at_eps siblings; each
    # point's error (or failure) is == the one of objects built for it alone
    eps_row = (0.2, 0.1, 0.05, 0.025)
    for tau in taus:
        row_fiber = FiberParams(eps_row[0], tau, z)
        soft_row, full_row = lab._soft_row(g, row_fiber, res), lab._full_row(g, row_fiber, res)
        for eps in eps_row:
            fiber = FiberParams(eps, tau, z)

            def gen_alone():
                model = EffectiveModel(g, fiber, res)
                r_eps = model.kernels.generalized_resolvent(z, b_matrix(g, fiber))
                return lab.operator_norm_diff(r_eps, model.r_eff(z), model.grid.w)

            def full_alone():
                model = EffectiveModel(g, fiber, res)
                ws = model.workspace
                r_full = ws.generalized_resolvent(z, 0.0)
                a_hom = PsiEmbedding(ws).sandwich(model.a_hom(z))
                return lab.operator_norm_diff(r_full, a_hom, ws.grid.w)

            assert _outcome(lambda: soft_row(eps)) == _outcome(gen_alone)
            assert _outcome(lambda: full_row(eps)) == _outcome(full_alone)


@settings(max_examples=30, deadline=None)
@given(g=cells(("ex0", "ex2")), tau=TAU, z=Z, eps=EPS)
def test_btilde_closed_matches_numeric(g, tau, z, eps):
    fiber = FiberParams(eps, tau, z)
    dev = np.max(np.abs(btilde_numeric(g, fiber) - btilde_closed_ex0(g, fiber)))
    assert dev <= 1e-12 * (1.0 + np.max(np.abs(b_matrix(g, fiber))))


def _assert_conjugate_pencil(g, tau, eps):
    plus, minus = (
        DiscretizedOperator(FemLayout(g, 64), FiberParams(eps, t, 2 + 1j)) for t in (tau, -tau)
    )
    assert minus.weights == {key: np.conj(w) for key, w in plus.weights.items()}
    for name in ("k_mat", "m_mat", "prolong"):
        at_minus, conj_plus = getattr(minus, name), getattr(plus, name).conj()
        assert at_minus.shape == conj_plus.shape
        assert (at_minus != conj_plus).nnz == 0


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
@pytest.mark.parametrize("tau", [0.3, 1.9, 3.1405])
def test_fem_pencil_at_minus_tau_is_the_conjugate_on_default_cells(name, tau):
    _assert_conjugate_pencil(build_example(name), tau, 1 / 64)


@settings(max_examples=20, deadline=None)
@given(g=cells(), tau=st.floats(0.0, 3.0), eps=EPS)
def test_fem_pencil_at_minus_tau_is_the_conjugate(g, tau, eps):
    _assert_conjugate_pencil(g, tau, eps)


def assert_same_pencil(op, ref):
    """op's K, M and P equal ref's: data, indices and indptr, bit for bit
    (their raw bytes, so signed zeros and NaN payloads count)."""
    for name in ("k_mat", "m_mat", "prolong"):
        got, want = getattr(op, name), getattr(ref, name)
        for field in ("data", "indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@settings(max_examples=20, deadline=None)
@given(g=cells(), tau=st.floats(-math.pi, math.pi), eps=EPS, res=st.integers(16, 80))
def test_fem_sibling_equals_a_fresh_operator_at_drawn_cells(g, tau, eps, res):
    # the FEM layout (pattern and duplicate order) is free of eps and tau, so
    # an operator on a layout another fiber used equals one on a fresh layout
    shared = FemLayout(g, res)
    DiscretizedOperator(shared, FiberParams(0.3, 1.0, 2 + 1j))
    fiber = FiberParams(eps, tau, 2 + 1j)
    fresh = DiscretizedOperator(FemLayout(g, res), fiber)
    assert_same_pencil(DiscretizedOperator(shared, fiber), fresh)


# stack shapes of the array tests: 5 tau against 2-4 z (never square), so a
# transposed stack axis changes the shape or the values
TAUS = np.linspace(-3.0, 3.0, 5)
ZS = st.lists(Z, min_size=2, max_size=4)
STACK_RTOL = 1e-14


def _components(g, fiber):
    """The generic M-matrices of the stiff and soft components at ``fiber``."""
    return [m_general(g.subgraph(part), fiber) for part in ("stiff", "soft")]


def _close(arr, ref, scale=None):
    """|arr - ref| <= STACK_RTOL * scale per point (scale: the largest |ref|
    entry of the point's matrix unless given)."""
    ref = np.asarray(ref)
    if scale is None:
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    return arr.shape == ref.shape and np.all(np.abs(arr - ref) <= STACK_RTOL * scale)


@settings(max_examples=25, deadline=None)
@given(g=cells(), zs=ZS, eps=EPS)
def test_m_blocks_closed_stack_equals_point_loop(g, zs, eps):
    fiber = FiberParams(eps, TAUS[:, None], np.array(zs))
    mset, (stiff, soft) = m_blocks_closed(g, fiber), _components(g, fiber)
    points = [[m_blocks_closed(g, FiberParams(eps, float(t), z)) for z in zs] for t in TAUS]
    for block in ("m_full", "m_stiff", "m_soft"):
        ref = [[getattr(m, block) for m in row] for row in points]
        assert _close(getattr(mset, block), ref)
    # the certificates reduce over the two trailing axes only: on the stack
    # they give, point by point, what they give on that point's matrices
    conj = m_blocks_closed(g, FiberParams(eps, TAUS[:, None], np.conj(zs)))
    certificates = (
        check_additivity(mset, stiff, soft), herglotz_min_eig(mset.m_full),
        mset.symmetry_defect(conj),
    )
    for i, j in np.ndindex(TAUS.size, len(zs)):
        one, one_conj = (
            MMatrixSet(m.m_full[i, j], m.m_stiff[i, j], m.m_soft[i, j])
            for m in (mset, conj)
        )
        assert [c[i, j] for c in certificates] == [
            check_additivity(one, stiff[i, j], soft[i, j]),
            herglotz_min_eig(one.m_full),
            one.symmetry_defect(one_conj),
        ]


@settings(max_examples=25, deadline=None)
@given(g=cells(), zs=ZS, eps=EPS)
# a short fast stiff edge: entries reach 2.2e4, and at tau = -3, z = 3.53i
# M(conj z) - M(z)^* is 7.8e-12 in absolute terms (3.5e-16 relative)
@example(g=build_example("ex0", l1=0.114, l2=0.886, a1=2.5), zs=[3.53j, 2 + 1j], eps=0.05)
def test_certificate_bounds_hold_at_drawn_cells(g, zs, eps):
    # the bounds that ``additivity`` certifies at the default cells
    fiber = FiberParams(eps, TAUS[:, None], np.array(zs))
    mset, (stiff, soft) = m_blocks_closed(g, fiber), _components(g, fiber)
    assert np.all(check_additivity(mset, stiff, soft) <= lab.ADDITIVITY_TOL)
    assert np.all(deviation(stiff + soft, mset.m_full) <= 1e-11)
    assert np.all(herglotz_min_eig(mset.m_full) >= lab.HERGLOTZ_FLOOR)
    conj = m_blocks_closed(g, FiberParams(eps, TAUS[:, None], np.conj(zs)))
    assert np.all(mset.symmetry_defect(conj) <= lab.SYMMETRY_TOL)
    # M(conj z) = M(z)^* to rounding: a few ulps of the largest entry, which
    # grows as (a/eps)^2 on a short stiff edge
    blocks = np.array([mset.m_full, mset.m_stiff, mset.m_soft])
    conj_blocks = np.array([conj.m_full, conj.m_stiff, conj.m_soft])
    defect = np.max(np.abs(conj_blocks - blocks.conj().swapaxes(-1, -2)), axis=(0, -2, -1))
    scale = np.max(np.abs(blocks), axis=(0, -2, -1))
    assert np.all(defect <= 8 * np.finfo(float).eps * scale)


@settings(max_examples=25, deadline=None)
@given(g=cells(), zs=ZS, eps=EPS)
def test_m_general_stack_equals_point_loop(g, zs, eps):
    fiber = FiberParams(eps, TAUS[:, None], np.array(zs))
    stack = m_general(g, fiber)
    ref = [[m_general(g, FiberParams(eps, float(t), z)) for z in zs] for t in TAUS]
    assert _close(stack, ref)


@settings(max_examples=25, deadline=None)
@given(g=cells(("ex0", "ex2")), tau=TAU, zs=ZS)
def test_btilde_stacks_equal_point_loop(g, tau, zs):
    # one tau, a (z, eps) stack: the batch of the btilde_identity runner
    eps_row = np.array([0.2, 0.1, 0.05])
    fiber = FiberParams(eps_row, tau, np.array(zs)[:, None])
    scale = 1.0 + np.max(np.abs(b_matrix(g, fiber)), axis=(-2, -1), keepdims=True)
    for form in (btilde_numeric, btilde_closed_ex0):
        ref = [[form(g, FiberParams(float(e), tau, z)) for e in eps_row] for z in zs]
        assert _close(form(g, fiber), ref, scale)


# the (tau, eps) batch of the beff_rate runner: 5 tau against 3 eps
EPS_ROW = np.array([0.2, 0.1, 0.05])


def _tau_eps_points(z):
    return [[FiberParams(float(e), float(t), z) for e in EPS_ROW] for t in TAUS]


@settings(max_examples=25, deadline=None)
@given(g=cells(), z=Z)
@example(
    g=build_example("ex1", l1=0.109375, l2=0.421875, l3=1.0 - 0.109375 - 0.421875,
                    a1=1.5, a3=1.0),
    z=0.5j,
)
def test_triple_tau_stacks_equal_point_loop(g, z):
    assert _close(rotation_x(g, TAUS), [rotation_x(g, float(t)) for t in TAUS])
    fiber = FiberParams(EPS_ROW, TAUS[:, None], z)
    points = _tau_eps_points(z)
    # the swap cancels entries of size ||B(z)|| ((a/eps)^2 scale), so the
    # rounding of B_tilde, and of its distance to the limit, scales with it
    b = b_matrix(g, fiber)
    scale = 1.0 + np.max(np.abs(b), axis=(-2, -1), keepdims=True)
    ref = [[btilde_numeric(g, p) for p in row] for row in points]
    assert _close(btilde_numeric(g, fiber), ref, scale)
    assert _close(b_eff(g, fiber), [[b_eff(g, p) for p in row] for row in points])
    dev = beff_deviation(g, fiber)
    ref = np.array([[beff_deviation(g, p) for p in row] for row in points])
    # on ex1 the deviation also carries the ex1 swap's cancellation factor
    # |B00|^2 / |B00^2 - B10 B01| (as in test_delta_tau_stack_equals_point_loop)
    bound = STACK_RTOL * scale[..., 0, 0]
    if g.cell.germ:
        b00 = b[..., 0, 0]
        cancel = np.abs(b00) ** 2 / np.abs(b00 * b00 - b[..., 1, 0] * b[..., 0, 1])
        bound = bound * np.maximum(1.0, cancel)
    assert dev.shape == ref.shape
    assert np.all(np.abs(dev - ref) <= bound)


@settings(max_examples=25, deadline=None)
@given(g=cells(("ex1",)), z=Z)
def test_delta_tau_stack_equals_point_loop(g, z):
    fiber = FiberParams(EPS_ROW, TAUS[:, None], z)
    stack = delta_fn(g, fiber)
    ref = np.array([[delta_fn(g, p) for p in row] for row in _tau_eps_points(z)])
    # the denominator B00^2 - B10 B01 cancels terms of size |B00|^2 (up to
    # 1.5e4 times larger here), which scales the rounding of delta
    b = b_matrix(g, fiber)
    b00 = b[..., 0, 0]
    cancel = np.abs(b00) ** 2 / np.abs(b00 * b00 - b[..., 1, 0] * b[..., 0, 1])
    assert stack.shape == ref.shape
    assert np.all(np.abs(stack - ref) <= STACK_RTOL * cancel * np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(g=cells(), zs=ZS, eps=EPS)
def test_k_series_tau_array_equals_point_loop_and_closed_form(g, zs, eps):
    n_terms = 4000
    z_row = np.array(zs)
    series = k_series(g, TAUS[:, None], z_row, n_terms, eps=eps)
    ref = np.array([[k_series(g, float(t), z, n_terms, eps=eps) for z in zs] for t in TAUS])
    # relative to max(1, |K|), as the runner's rel_error: near a zero of K
    # its terms cancel, so a 1-ulp move in one of them is no longer small
    # against |K|
    assert series.shape == ref.shape
    assert np.all(np.abs(series - ref) <= STACK_RTOL * np.maximum(1.0, np.abs(ref)))
    # and each element is the truncated series of the closed form (the
    # tail bound of test_k_closed_matches_series)
    cell = g.cell
    lengths = 8.0 * cell.chain.length + (4.0 * cell.loop.length if cell.loop else 0.0)
    bound = 1.5 * np.abs(z_row) * lengths / (math.pi**2 * stiff_length(g) * n_terms)
    assert np.all(np.abs(series - k_closed(g, TAUS[:, None], z_row, eps=eps)) <= bound)


def test_one_pole_element_fails_the_whole_stack():
    # ex0 soft edge: k l2 / a2 = pi at z = (2 pi)^2; ex0 stiff edge at eps:
    # k eps l1 / a1 = pi; each batch holds one point inside POLE_GUARD
    g = build_example("ex0")
    p = g.params
    eps = 0.1
    soft_pole = ((math.pi + 0.5 * POLE_GUARD) * p["a2"] / p["l2"]) ** 2
    stiff_pole = ((math.pi + 0.5 * POLE_GUARD) * p["a1"] / (eps * p["l1"])) ** 2
    taus = TAUS[:, None]
    for pole in (soft_pole, stiff_pole):
        fiber = FiberParams(eps, taus, np.array([2 + 1j, pole, 5 + 2j]))
        with pytest.raises(PoleError):
            m_blocks_closed(g, fiber)
        with pytest.raises(PoleError):
            m_general(g, fiber)
    with pytest.raises(PoleError):
        btilde_closed_ex0(g, FiberParams(np.array([0.2, eps]), 1.0, stiff_pole))


def test_projection_transform_guards_every_matrix_of_a_stack():
    # P_perp B + P = [[1, 0], [b10, b11]]: singular exactly where b11 = 0,
    # and P B + P_perp (the second swap) exactly where b00 = 0
    b = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex), (4, 1, 1))
    projection_transform(b)
    second_swap(b)
    b[2, 1, 1] = 0.0
    with pytest.raises(ArithmeticError):
        projection_transform(b)
    second_swap(b)
    b[1, 0, 0] = 0.0
    with pytest.raises(ArithmeticError):
        second_swap(b)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_additivity_calls_closed_blocks_twice_per_cell_and_eps(monkeypatch):
    calls = _counting(monkeypatch, lab, "m_blocks_closed")
    cfg = {"examples": ["ex0", "ex1"], "eps_list": [0.3, 0.1, 0.05], "tau_count": 7}
    res = lab.run_experiment("additivity", cfg)
    assert res.passed
    assert len(calls) == 2 * 2 * 3
    assert len(res.rows) == 2 * 3 * 7 * 4
    assert len(res.extra_tables["mmatrix_entries"]()) == 12 * len(res.rows)


def test_additivity_builds_no_entry_until_the_table_is_read(monkeypatch, tmp_path):
    # every entry dict zips the twelve entry keys with one point's blocks
    reads = []

    class Keys(list):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    monkeypatch.setattr(lab, "_ENTRY_KEYS", Keys(lab._ENTRY_KEYS))
    cfg = {"examples": ["ex0"], "eps_list": [0.3, 0.1], "tau_count": 3}
    res = lab.run_experiment("additivity", cfg)
    assert res.passed and reads == []
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("examples = ex0\neps_list = 0.3, 0.1\ntau_count = 3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mmatrix", "--config", str(cfg_file)]) == 0
    assert reads == []
    entries = res.extra_tables["mmatrix_entries"]()
    assert len(reads) == len(res.rows) == 2 * 3 * 4
    assert len(entries) == 12 * len(res.rows)


def test_line_models_transforms_each_datum_once_and_solves_each_limit_once_per_z(
    monkeypatch,
):
    # the ex1 datum's forward transform serves every division; the limit
    # model, which no eps enters, is one division per (cell, z); distances
    # are taken between Fourier coefficients, so nothing is inverted
    ffts = _counting(monkeypatch, np.fft, "fft")
    iffts = _counting(monkeypatch, np.fft, "ifft")
    limits, solved = [], []
    original_limit, original_distance = (
        realline.differential_model_ex1_hat, realline.ex1_model_distance
    )

    def limit(graph, z, f, grid):
        limits.append((z, original_limit(graph, z, f, grid)))
        return limits[-1][1]

    def distance(graph, eps, z, grid, f, limit):
        solved.append((z, limit))
        return original_distance(graph, eps, z, grid, f=f, limit=limit)

    monkeypatch.setattr(realline, "differential_model_ex1_hat", limit)
    monkeypatch.setattr(realline, "ex1_model_distance", distance)
    res = lab.run_experiment("line_models", {"grid_size": 1024})
    assert res.passed
    assert len(ffts) == 1
    assert [z for z, _ in limits] == list(lab.DEFAULT_Z)
    assert len(iffts) == 0
    # every eps of a z reads the one array its limit solve returned
    assert [(z, id(u)) for z, u in solved] == [
        (z, id(u)) for z, u in limits for _ in lab.DEFAULT_EPS
    ]


def test_rate_sweeps_build_each_row_once_and_retry_a_raising_one_per_eps(monkeypatch):
    # a tau's row (model, start vector, Psi) is built once for all its eps
    # when it returns, at the row's first eps; a row that raises as it is
    # built (the a1 = a3 ex1 cell at tau = pi) is tried again at each eps
    g = build_example("ex1", a1=1.0, a3=1.0)
    monkeypatch.setattr(lab, "build_example", lambda name: g)
    soft = _counting(monkeypatch, lab, "_soft_row")
    full = _counting(monkeypatch, lab, "_full_row")
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    cfg = {"examples": ["ex1"], "tau_list": [1.0, math.pi, -2.0], "eps_list": eps_list,
           "resolution": 32}
    for tag, calls in (("gen_res_rate", soft), ("full_res_rate", full)):
        assert len(lab.run_experiment(tag, cfg).failures) == len(eps_list)
        assert [(fiber.eps, fiber.tau) for _, fiber, _ in calls] == [
            (eps_list[0], tau) for tau in [1.0, *[math.pi] * len(eps_list), -2.0]
        ]
    # the soft component holds no stiff edge, so no eps enters its workspace
    model = EffectiveModel(g, FiberParams(0.125, 1.0, 2 + 1j), 32)
    at = model.at_eps(0.0625)
    assert at.kernels is model.kernels and at.workspace is not model.workspace
    assert (at.fiber.eps, at.workspace.fiber.eps) == (0.0625, 0.0625)


def test_dispersion_series_calls_k_series_three_times_per_cell(monkeypatch):
    calls = _counting(monkeypatch, dispersion, "k_series")
    res = lab.run_experiment("dispersion_series", {"tau_count": 6, "n_terms": 3000})
    assert res.passed
    assert len(calls) == 3 * 3
    assert len(res.rows) == 3 * 6 * 6


def test_btilde_identity_calls_each_route_once_per_cell(monkeypatch):
    numeric = _counting(monkeypatch, triples, "btilde_numeric")
    closed = _counting(monkeypatch, triples, "btilde_closed_ex0")
    b = _counting(monkeypatch, triples, "b_matrix")
    res = lab.run_experiment("btilde_identity", {"tau_count": 4})
    assert res.passed
    assert len(numeric) == len(closed) == 2
    # one B(z) inside each generic route, plus the loop cell's (ex2) scale
    assert len(b) == 2 + 1
    assert len(res.rows) == 2 * 4 * 10 * 5


def test_beff_rate_calls_each_quantity_once_per_cell(monkeypatch):
    deviation = _counting(monkeypatch, triples, "beff_deviation")
    delta = _counting(monkeypatch, triples, "delta_fn")
    limit = _counting(monkeypatch, triples, "delta_limit")
    res = lab.run_experiment("beff_rate", {"tau_list": [-2.0, 0.3, 1.0]})
    assert res.passed
    assert len(deviation) == 3
    # delta on the germ cell (ex1) only; its limit there once on its own and
    # once inside that cell's B_eff deviation
    assert len(delta) == 1
    assert len(limit) == 2
    assert len(res.rows) == 3 * 3 * 6


def _literal_example_compares(tree):
    """Line numbers of comparisons of an ``.example`` attribute to literals."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names_example = any(
            isinstance(o, ast.Attribute) and o.attr == "example" for o in operands
        )
        literal = (ast.Constant, ast.Tuple, ast.List, ast.Set)
        if names_example and any(isinstance(o, literal) for o in operands):
            yield node.lineno


def test_only_graphs_and_closed_blocks_name_the_examples():
    # graphs.build_example names the cells; every other module reads the cell
    # record, except the literal per-cell blocks of mmatrix.m_blocks_closed
    # and of its stiff block, mmatrix.m_stiff_closed
    found = []
    for path in sorted(pathlib.Path(qglab.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text())
        if path.name == "mmatrix.py":
            tree.body = [
                node for node in tree.body
                if getattr(node, "name", None) not in ("m_blocks_closed", "m_stiff_closed")
            ]
        found += [f"{path.name}:{line}" for line in _literal_example_compares(tree)]
    assert found == []
