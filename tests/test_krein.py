import numpy as np
import pytest
from hypothesis import given, settings

from qglab import krein, lab
from qglab.effective import EffectiveModel, PsiEmbedding
from qglab.graphs import build_example
from qglab.krein import KernelOperator, ResolventWorkspace
from qglab.mmatrix import FiberParams, m_blocks_closed, sqrt_upper
from qglab.triples import b_matrix
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
        kappa = sqrt_upper(z) / c
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
        soft = [k for k in ws.edge_kernels(z) if not k.edge.is_stiff]
        assert max(abs((k.kappa * k.edge.length).imag) for k in soft) > 10
    ref = _dirichlet_reference(ws, z)
    got = ws.dirichlet_matrix(z)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_krein_resolvent_adjoint_symmetry():
    _, ws = _setup("ex1", tau=1.2, z=2 + 1j)
    z = 2 + 1j
    r_z = ws.generalized_resolvent(z, 0.0).dense()
    r_zb = ws.generalized_resolvent(np.conj(z), 0.0).dense()
    w = ws.grid.w
    defect = np.max(np.abs(w[:, None] * r_zb - (w[:, None] * r_z).conj().T))
    assert defect < 1e-10


# -- structured resolvents at drawn cells ------------------------------------


def _resolvents(g, tau, z, eps, res=24):
    """The full and soft resolvents and the two sweep differences of the
    lab at one point, each with the operands whose difference it is (none
    for a resolvent), and the objects they came from: the full graph's
    workspace is the model's, as in a sweep row."""
    fiber = FiberParams(eps, tau, z)
    model = EffectiveModel(g, fiber, res)
    full = model.workspace
    r_full = full.generalized_resolvent(z, 0.0)
    r_soft = model.kernels.generalized_resolvent(z, b_matrix(g, fiber))
    r_eff = model.r_eff(z)
    hom = PsiEmbedding(full).sandwich(model.a_hom(z))
    ops = {
        "full": (r_full, ()),
        "soft": (r_soft, ()),
        "full - Psi* A_hom Psi": (r_full - hom, (r_full, hom)),
        "soft - r_eff": (r_soft - r_eff, (r_soft, r_eff)),
    }
    return full, model, ops


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _scale(result, operand_results):
    """The norm a rounding error of ``result`` is measured against: its own,
    or for a difference the sum of its operands' (whose entries cancel)."""
    return sum(np.linalg.norm(r) for r in operand_results) or np.linalg.norm(result)


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_structured_applies_match_their_dense_matrices(g, tau, z, eps):
    _, _, ops = _resolvents(g, tau, z, eps)
    for name, (op, operands) in ops.items():
        d = op.dense()
        x, y = _random(op.shape[1], 1), _random(op.shape[0], 2)
        ref = d @ x
        scale = _scale(ref, [a.dense() @ x for a in operands])
        assert np.linalg.norm(op.matvec(x) - ref) <= 1e-12 * scale, name
        ref = d.conj().T @ y
        scale = _scale(ref, [a.dense().conj().T @ y for a in operands])
        assert np.linalg.norm(op.rmatvec(y) - ref) <= 1e-12 * scale, name


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_structured_resolvents_are_weighted_adjoint_at_conjugate_z(g, tau, z, eps):
    # R(z)^* = R(conj z) in the trapezoid inner product: R(z)^H W y = W R(conj z) y,
    # for each resolvent and so for each difference
    full, model, ops = _resolvents(g, tau, z, eps)
    _, _, conj_ops = _resolvents(g, tau, np.conj(z), eps)
    for name, (op, operands) in ops.items():
        w = model.grid.w if name.startswith("soft") else full.grid.w
        y = _random(op.shape[0], 3)
        conj_op, conj_operands = conj_ops[name]
        ref = w * conj_op.matvec(y)
        scale = _scale(ref, [w * a.matvec(y) for a in conj_operands])
        assert np.linalg.norm(op.rmatvec(w * y) - ref) <= 1e-10 * scale, name


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_dense_resolvents_are_the_outer_product_matrices_bit_for_bit(g, tau, z, eps):
    # the certificates read these entries, so each dense() is the matrix the
    # outer-product route forms: Dirichlet kernel plus the low-rank product
    fiber = FiberParams(eps, tau, z)
    ws = ResolventWorkspace(g, fiber, 24)
    denom = ws.m_matrix(z) - 0.0
    ref = ws.dirichlet_matrix(z) - ws.gamma_matrix(z) @ np.linalg.solve(
        denom, ws.gamma1_dirichlet_rows(z)
    )
    assert np.array_equal(ws.generalized_resolvent(z, 0.0).dense(), ref)
    model = EffectiveModel(g, fiber, 24)
    n = model.grid.size
    h, coeffs = model._defect(z)
    dirichlet = model.kernels.dirichlet_matrix(z)
    assert np.array_equal(model.r_eff(z).dense(), dirichlet + h @ coeffs)
    h, _, coeffs = model._hom_solve(z)
    ref = np.zeros((n + 1, n + 1), dtype=complex)
    ref[:n, :] = h @ coeffs[:-1, :]
    ref[:n, :n] += dirichlet
    ref[n, :] = coeffs[-1, :]
    assert np.array_equal(model.a_hom(z).dense(), ref)


@settings(max_examples=25, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_soft_dirichlet_blocks_of_full_and_soft_workspaces_are_identical(g, tau, z, eps):
    # the difference of the full_res_rate sweep drops the soft blocks
    # because the model's soft part and the full workspace share one store,
    # so both hold each soft edge's one block array
    full, model, ops = _resolvents(g, tau, z, eps)
    soft = [e for e in full.grid.edges if not e.is_stiff]
    blocks = dict(zip(full.grid.edges, full.dirichlet_blocks(z)))
    for e, (_, vectors) in zip(model.grid.edges, model.kernels.dirichlet_blocks(z)):
        assert blocks[e][1] is vectors
    # what is left of the difference: the stiff blocks, and no soft block at all
    diff = ops["full - Psi* A_hom Psi"][0]
    assert len(diff.blocks) == len(full.grid.edges) - len(soft)
    assert diff.rank == full.nvert + 2 * len(soft) + 1
    assert ops["soft - r_eff"][0].blocks == ()


def test_difference_drops_only_the_blocks_both_operators_hold():
    # a block is dropped only when both operators hold the same array at the
    # same slice; an equal copy, or the same array at another slice, is
    # subtracted like any other block
    ws = ResolventWorkspace(build_example("ex2"), FiberParams(0.1, 1.0, 2 + 1j), 16)
    z = 2 + 1j
    r = ws.generalized_resolvent(z, 0.0)
    (sl0, v0), (sl1, v1), (sl2, v2) = r.blocks
    rng = np.random.default_rng(11)
    u = rng.standard_normal((r.shape[0], 2)) + 0j
    v = rng.standard_normal((2, r.shape[1])) + 0j
    same = KernelOperator([(sl0, v0), (sl1, v1.copy()), (sl2, v2)], u, v)
    diff = r - same
    # kept: r's block at sl1 and the negated copy
    assert [sl for sl, _ in diff.blocks] == [sl1, sl1]
    assert diff.blocks[0][1] is v1
    assert diff.rank == r.rank + 2
    ref = r.dense() - same.dense()
    assert np.max(np.abs(diff.dense() - ref)) <= 1e-14 * np.max(np.abs(r.dense()))
    # the same array at another edge's slice (equal lengths) is no shared block
    assert sl0.stop - sl0.start == sl2.stop - sl2.start
    moved = KernelOperator([(sl2, v0)], u, v)
    assert len((KernelOperator([(sl0, v0)], u, v) - moved).blocks) == 2
    # identical blocks are dropped: all that is left is the low-rank part
    # [u, u] [v; -v], zero to rounding
    assert (r - r).blocks == ()
    assert np.max(np.abs((r - r).dense())) <= 1e-15 * np.max(np.abs(r.u @ r.v))


@pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
@pytest.mark.parametrize("component", ["full", "soft"])
def test_running_sums_are_stable_deep_in_the_gap(name, component):
    # at z = -32400 + 3j the soft-edge sines grow like e^{|Im kappa| x} up to
    # e^{|Im kappa| l} > e^50; the running sums of the Dirichlet blocks match
    # the outer products and the min/max kernel
    g = build_example(name)
    comp = g if component == "full" else g.subgraph("soft")
    z = -32400 + 3j
    ws = ResolventWorkspace(comp, FiberParams(0.1, 0.7, z), 96)
    assert max(abs((k.kappa * k.edge.length).imag) for k in ws.edge_kernels(z)) > 50
    n = ws.grid.size
    op = KernelOperator(
        ws.dirichlet_blocks(z), np.zeros((n, 0), dtype=complex), np.zeros((0, n), dtype=complex)
    )
    d = _dirichlet_reference(ws, z)
    x, y = _random(n, 4), _random(n, 5)
    for got, ref in ((op.matvec(x), d @ x), (op.rmatvec(y), d.conj().T @ y)):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_one_trig_pass_per_workspace_and_z(monkeypatch):
    # over a row of k eps, the row's one store evaluates a soft edge's
    # kernel once and a stiff edge's once per eps, cosines included: in a
    # full_res_rate row the full workspace and the model's soft part share
    # the soft edges' kernels, and a gen_res_rate row evaluates no stiff
    # edge; each row builds its model, Psi and grids once: a full row the
    # full graph's and the soft part's, a gen row only the soft part's (its
    # full workspace builds its grid on first read).  The Dirichlet
    # resolvent alone evaluates no cosine
    made, grids, built = [], [], []

    class Counted(krein.EdgeKernel):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    make_grid = krein.make_grid

    def counted_grid(*args):
        grids.append(args)
        return make_grid(*args)

    class CountedModel(EffectiveModel):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class CountedPsi(PsiEmbedding):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(krein, "EdgeKernel", Counted)
    monkeypatch.setattr(krein, "make_grid", counted_grid)
    monkeypatch.setattr(lab, "EffectiveModel", CountedModel)
    monkeypatch.setattr(lab, "PsiEmbedding", CountedPsi)
    g = build_example("ex2")
    soft = sorted(e.id for e in g.edges if not e.is_stiff)
    stiff = sorted(e.id for e in g.edges if e.is_stiff)
    eps_row = (0.1, 0.05, 0.025, 0.0125)
    row = lab._full_row(g, FiberParams(eps_row[0], 1.0, 2 + 1j), 32)
    for eps in eps_row:
        lab._full_nrc_error(row, eps)
    assert sorted(s.edge.id for s in made) == sorted(soft + len(eps_row) * stiff)
    assert all("cos_x" in s.__dict__ for s in made)
    assert (len(grids), [type(b) for b in built]) == (2, [CountedModel, CountedPsi])
    for bag in (made, grids, built):
        bag.clear()
    row = lab._soft_row(g, FiberParams(eps_row[0], 1.0, 2 + 1j), 32)
    for eps in eps_row:
        lab._soft_sandwich_error(row, eps)
    assert sorted(s.edge.id for s in made) == soft
    assert (len(grids), [type(b) for b in built]) == (1, [CountedModel])
    made.clear()
    ResolventWorkspace(g, FiberParams(0.1, 1.0, 2 + 1j), 32).dirichlet_matrix(2 + 1j)
    assert len(made) == len(g.edges)
    assert not any("cos_x" in s.__dict__ for s in made)


def test_one_edge_record_per_edge_and_speed_at_one_z(monkeypatch):
    # at one z each (edge, speed) builds exactly one EdgeKernel, and M(z),
    # the boundary rows, the fields and both resolvents all read it: the
    # full workspace's M builds every record from end scalars alone, with
    # no grid and no sample, and everything after finds it in the store
    made, grids = [], []

    class Counted(krein.EdgeKernel):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    make_grid = krein.make_grid

    def counted_grid(*args):
        grids.append(args)
        return make_grid(*args)

    monkeypatch.setattr(krein, "EdgeKernel", Counted)
    monkeypatch.setattr(krein, "make_grid", counted_grid)
    g = build_example("ex2")
    z = 2 + 1j
    fiber = FiberParams(0.1, 1.0, z)
    model = EffectiveModel(g, fiber, 32)
    full, soft = model.workspace, model.kernels
    full.m_matrix(z)
    assert sorted(k.edge.id for k in made) == sorted(e.id for e in g.edges)
    assert grids == [] and not any("samples" in vars(k) for k in made)
    records = {k.edge.id: k for k in made}
    model.schur_frobenius(z)
    soft.m_matrix(z)
    model._fields(z)
    full.generalized_resolvent(z, 0.0)
    soft.generalized_resolvent(z, b_matrix(g, fiber))
    model.r_eff(z)
    model.a_hom(z)
    assert len(made) == len(g.edges) and len(grids) == 2
    for ws in (full, soft):
        assert all(k is records[k.edge.id] for k in ws.edge_kernels(z))
