import itertools
import math
import pathlib
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, aslinearoperator

from qglab import dispersion, lab, mmatrix, realline, triples
from qglab.effective import EffectiveModel, PsiEmbedding
from qglab.fdsolver import MIN_RESOLUTION, DiscretizedOperator
from qglab.graphs import ParameterError, PoleError, build_example, datta_weights
from qglab.lab import (
    EXPERIMENT_TAGS,
    Check,
    bind_config,
    config_keys,
    fit_slope,
    operator_norm_diff,
    parse_config,
    run_experiment,
    tau_grid,
    write_csv,
)
from qglab.mmatrix import FiberParams


def test_fit_slope_pure_quadratic():
    eps = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    fit = fit_slope(eps, 3.0 * eps**2)
    assert abs(fit.slope - 2.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12
    assert Check("slope", fit.slope, 1.8, 2.2).ok


def test_fit_slope_with_higher_order_correction():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = fit_slope(eps, eps**2 + 0.01 * eps**3)
    assert 1.95 < fit.slope < 2.05
    assert Check("slope", fit.slope, 1.8, 2.2).ok


def test_fit_slope_detects_stagnation():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = fit_slope(eps, np.full(4, 1e-3))
    assert abs(fit.slope) < 0.05
    assert not Check("slope", fit.slope, 1.8, 2.2).ok


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([0.5, 0.25, 0.125], [1, 1, 1])
    with pytest.raises(ValueError):
        fit_slope([0.5, 0.25, 0.125, 0.0], [1, 1, 1, 1])


def _lstsq_slope(eps, row):
    """The slope of one row from the general least-squares solver."""
    lx = np.log(eps)
    a = np.vstack([lx, np.ones_like(lx)]).T
    return np.linalg.lstsq(a, np.log(row), rcond=None)[0][0]


@settings(max_examples=50, deadline=None)
@given(
    n_eps=st.integers(lab.MIN_FIT_POINTS, 8),
    rates=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_slopes_fit_every_row_at_once_as_lstsq_does_row_by_row(n_eps, rates, seed):
    # err = C eps^rate, perturbed: one array fit, no lstsq call, and each
    # slope within 1e-13 of lstsq's on its row (relative, or absolute below 1)
    rng = np.random.default_rng(seed)
    eps = 2.0 ** -np.arange(1.0, n_eps + 1.0)
    c = 10.0 ** rng.uniform(-8.0, 3.0, size=(len(rates), 1))
    rows = c * eps ** np.array(rates)[:, None] * np.exp(0.3 * rng.standard_normal((len(rates), n_eps)))
    expect = [_lstsq_slope(eps, row) for row in rows]
    with mock.patch.object(np.linalg, "lstsq") as lstsq:
        check = lab._slopes("s", eps, rows)
        fits = [fit_slope(eps, row) for row in rows]
    assert lstsq.call_count == 0
    assert check.value.shape == (len(rates),)
    for got in (check.value, [fit.slope for fit in fits]):
        assert np.all(np.abs(np.subtract(got, expect)) <= 1e-13 * np.maximum(1.0, np.abs(expect)))


def test_slopes_give_nan_to_a_row_with_a_nan_and_refuse_bad_rows():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    rows = np.array([eps**2, [1e-2, np.nan, 1e-3, 1e-4], 3.0 * eps**2])
    check = lab._slopes("s", eps, rows)
    assert np.isnan(check.value[1]) and not check.ok
    assert np.allclose(check.value[[0, 2]], 2.0, rtol=1e-13)
    assert str(check).startswith("s = [2.000, nan, 2.000]")
    with pytest.raises(ValueError):
        lab._slopes("s", eps, -rows[[0]])
    with pytest.raises(ValueError):
        lab._slopes("s", eps[:3], rows[:, :3])


def test_check_on_its_bound_is_ok():
    assert Check("residual", 1e-9, hi=1e-9).ok
    assert Check("min eigenvalue", -1e-10, lo=-1e-10).ok
    assert Check("slopes", np.array([1.8, 2.0, 2.2]), 1.8, 2.2).ok


def test_check_nan_is_not_ok():
    for check in (
        Check("residual", math.nan, hi=1e-9),
        Check("min eigenvalue", math.nan, lo=-1e-10),
        Check("slopes", np.array([2.0, math.nan]), 1.8, 2.2),
    ):
        assert not check.ok
        assert "nan" in str(check) and str(check).endswith(" FAIL")


def test_check_array_with_one_element_out_of_band_is_not_ok():
    assert not Check("slopes", np.array([2.0, 1.99, 2.3]), 1.8, 2.2).ok
    # no figure certifies nothing
    assert not Check("halving ratios", np.array([]), 3.0, 5.0).ok


def test_check_str_shows_its_bound():
    assert str(Check("defect", 2.5e-15, hi=1e-10)) == "defect = 2.500e-15 (tol 1e-10)"
    assert str(Check("Im(schur)", 0.05, lo=-1e-12)) == "Im(schur) = 0.05000 (floor -1e-12)"
    assert str(Check("slopes", np.array([1.993, 2.3]), 1.8, 2.2)) == (
        "slopes = [1.993, 2.300] (band [1.8, 2.2]) FAIL"
    )


def test_nan_schur_scalar_fails_schur_check(monkeypatch):
    original = EffectiveModel.schur_frobenius

    def nan_at_one_point(self, z):
        if self.kernels.component.example == "ex1" and self.fiber.tau == 0.3 and z == 2 + 1j:
            return complex(math.nan, math.nan)
        return original(self, z)

    monkeypatch.setattr(EffectiveModel, "schur_frobenius", nan_at_one_point)
    res = run_experiment("schur_check")
    assert not res.passed
    assert res.summary == [
        "max |schur (K - z) - 1| = nan (tol 1e-09) FAIL",
        "min Im(schur) = nan (floor -1e-12) FAIL",
    ]


def test_nan_symbol_defect_fails_line_models(monkeypatch):
    original = realline.symbol_identity_defect

    def nan_at_one_point(graph, eps, z, grid):
        if graph.example == "ex2" and eps == 0.125 and z == 2 + 1j:
            return math.nan
        return original(graph, eps, z, grid)

    monkeypatch.setattr(realline, "symbol_identity_defect", nan_at_one_point)
    res = run_experiment("line_models", {"examples": ["ex0", "ex2"]})
    assert not res.passed
    assert res.summary[0].startswith("ex0: max symbol defect = ")
    assert res.summary[1] == "ex2: max symbol defect = nan (tol 1e-10) FAIL"


def test_operator_norm_identical_blocks():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    w = np.full(20, 0.05)
    assert operator_norm_diff(a, a.copy(), w) < 1e-12


def test_operator_norm_rank_one_perturbation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((15, 15)) + 0j
    w = np.ones(15)
    u = np.zeros(15)
    u[3] = 1.0
    delta = 1e-3
    b = a + delta * np.outer(u, u)
    assert operator_norm_diff(b, a, w) == pytest.approx(delta, abs=1e-8)


def test_operator_norm_rejects_nonconformable():
    with pytest.raises(ValueError):
        operator_norm_diff(np.eye(3), np.eye(4), np.ones(3))


def test_operator_norm_respects_weights():
    # W^{1/2} a W^{-1/2} has the one entry sqrt(4 / 1) = 2
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    norm = operator_norm_diff(a, None, np.array([4.0, 1.0]))
    assert norm == pytest.approx(2.0, abs=1e-8)


def _with_singular_values(s, rows, cols, seed):
    """A rows x cols complex matrix whose nonzero singular values are s."""
    rng = np.random.default_rng(seed)
    u, v = (
        np.linalg.qr(
            rng.standard_normal((n, s.size)) + 1j * rng.standard_normal((n, s.size))
        )[0]
        for n in (rows, cols)
    )
    return (u * s) @ v.conj().T


def test_operator_norm_matches_svd_with_distinct_weights():
    # weights spread over a factor of 300, wider than the trapezoid weights
    # of any sample grid
    rng = np.random.default_rng(6)
    w = np.concatenate([rng.uniform(0.01, 0.2, 15), rng.uniform(0.5, 3.0, 15)])
    scaled = _with_singular_values(np.array([3.0, 1.5, 1.0, 0.5, 0.1]), 30, 30, 7)
    b = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = b + scaled / np.sqrt(w)[:, None] * np.sqrt(w)[None, :]
    ref = np.linalg.svd(
        np.sqrt(w)[:, None] * (a - b) / np.sqrt(w)[None, :], compute_uv=False
    )[0]
    assert ref == pytest.approx(3.0, rel=1e-12)
    assert operator_norm_diff(a, b, w) == pytest.approx(ref, rel=1e-8)


def test_operator_norm_raises_when_not_converged():
    # the two largest singular values are 0.5% apart: two steps cannot settle
    a = _with_singular_values(np.array([1.0, 0.995, 0.3]), 12, 12, 8)
    with pytest.raises(ArithmeticError, match="max_iter=2"):
        operator_norm_diff(a, None, np.ones(12), max_iter=2)


def test_operator_norm_of_linear_operators_matches_the_dense_call():
    rng = np.random.default_rng(9)
    w = np.concatenate([rng.uniform(0.01, 0.2, 15), rng.uniform(0.5, 3.0, 15)])
    b = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = b + _with_singular_values(np.array([2.0, 1.2, 0.4]), 30, 30, 10)
    ref = operator_norm_diff(a, b, w)
    # a matrix-free side: scipy's wrapper, and one that only has matvec and
    # rmatvec, as the FEM resolvent
    bare = LinearOperator(
        b.shape, matvec=lambda x: b @ x, rmatvec=lambda y: b.conj().T @ y, dtype=complex
    )
    for b_op in (aslinearoperator(b), bare):
        assert operator_norm_diff(a, b_op, w) == pytest.approx(ref, rel=1e-10)
        assert operator_norm_diff(b_op, a, w) == pytest.approx(ref, rel=1e-10)
    assert operator_norm_diff(aslinearoperator(a - b), None, w) == pytest.approx(
        ref, rel=1e-10
    )


def test_operator_norm_rejects_nonconformable_operators():
    for a, b in (
        (np.eye(3), aslinearoperator(np.eye(4))),
        (aslinearoperator(np.eye(3)), np.eye(3, 4)),
        (aslinearoperator(np.eye(3)), aslinearoperator(np.eye(4, 3))),
    ):
        with pytest.raises(ValueError, match="non-conformable"):
            operator_norm_diff(a, b, np.ones(3))


def test_resolvent_sweep_points_form_no_dense_matrix():
    # one point of each resolvent-rate sweep at resolution 2048: a dense
    # n x n complex matrix on the full grid alone would take about 67 MB;
    # the structured resolvents and their difference stay below 8 MB
    g = build_example("ex2")
    fiber = FiberParams(1 / 64, 1.0, 2 + 1j)
    for row in (lab._full_row, lab._soft_row):
        tracemalloc.start()
        try:
            row(g, fiber, 2048)(1 / 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, row.__name__


def test_tau_grid_endpoints_and_symmetry():
    top = math.pi - 1e-3
    for count in (2, 3, 7, 9, 16, 17, 65):
        grid = tau_grid(count)
        assert grid.size == count
        assert grid[0] == -top and grid[-1] == top
        # exactly antisymmetric, so bands can reuse the spectrum at |tau| for -tau
        assert np.array_equal(grid, -grid[::-1])
        # the upper half is linspace's, bit for bit; the middle of an odd
        # count is 0 (linspace gives -4.4e-16 there at count 7)
        reference = np.linspace(-top, top, count)
        upper = slice(count // 2, None)
        assert np.array_equal(grid[upper], np.maximum(reference[upper], 0.0))
        assert np.max(np.abs(grid - reference)) <= 8 * np.finfo(float).eps
    assert tau_grid(1).tolist() == [-top]


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "examples = ex0, ex2   # only the decoupling cells\n"
        "\n"
        "eps_list = 0.125, 0.0625\n"
        "z_list = 2+1i, 5+2i\n"
        "resolution = 128\n"
        "label = smoke\n"
    )
    cfg = parse_config(str(path))
    assert cfg["examples"] == ["ex0", "ex2"]
    assert cfg["eps_list"] == [0.125, 0.0625]
    assert cfg["z_list"] == [complex(2, 1), complex(5, 2)]
    assert cfg["resolution"] == 128
    assert cfg["label"] == "smoke"


def test_parse_config_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("just a dangling token\n")
    with pytest.raises(ValueError):
        parse_config(str(path))


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
    text = path.read_text().strip().splitlines()
    assert text[0] == "a,b"
    assert text[1] == "1,x"
    write_csv(str(path), [])
    assert path.read_text() == ""


def test_run_experiment_unknown_tag():
    with pytest.raises(ValueError):
        run_experiment("no-such-tag")


def test_experiment_tags_have_runners():
    assert len(EXPERIMENT_TAGS) == 11
    assert len(set(EXPERIMENT_TAGS)) == 11


def test_smoke_additivity_experiment_shape():
    res = run_experiment("additivity")
    assert res.tag == "additivity"
    assert res.passed
    assert res.rows
    assert all(isinstance(line, str) for line in res.summary)


def test_run_bands_computes_band_roots_once_per_tau(monkeypatch):
    calls = []
    original = dispersion.band_roots

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(dispersion, "band_roots", counting)
    cfg = {"examples": ["ex0", "ex2"], "tau_count": 3, "resolution": 64}
    res = run_experiment("bands", cfg)
    n_eps = 4
    assert len(calls) == 2 * 3
    assert len(res.rows) == 2 * n_eps * 3 * 3


def _count_fem_spectra(monkeypatch, fail_at=None):
    """Count DiscretizedOperator.eigenvalues calls by (example, eps, tau);
    make ARPACK raise ArpackNoConvergence at the point ``fail_at``."""
    calls = []
    original, eigsh = DiscretizedOperator.eigenvalues, scipy.sparse.linalg.eigsh

    def counted(self, *args, **kwargs):
        calls.append((self.graph.example, self.fiber.eps, self.fiber.tau))
        return original(self, *args, **kwargs)

    def failing_eigsh(*args, **kwargs):
        if calls[-1] == fail_at:
            raise ArpackNoConvergence("no convergence (forced)", np.empty(0), None)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(DiscretizedOperator, "eigenvalues", counted)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    return calls


BANDS_SMALL = {"examples": ["ex0", "ex2"], "tau_count": 3, "resolution": 64}
BANDS_REUSE = "(FEM spectra at 2 of 3 tau; the other 1 from the conjugate pencil at -tau)"


def test_run_bands_solves_each_fem_spectrum_once_per_abs_tau(monkeypatch):
    calls = _count_fem_spectra(monkeypatch)
    # (at resolution 64 the h error, not eps, dominates the slope fit)
    res = run_experiment("bands", BANDS_SMALL)
    # grid (-a, 0, a): 2 cells x 4 eps x 2 distinct |tau| x 2 resolutions
    assert len(calls) == 2 * 4 * 2 * 2
    assert all(tau >= 0 for *_, tau in calls)
    by_point = {(r["example"], r["eps"], r["tau"], r["band_index"]): r for r in res.rows}
    minus = [key for key in by_point if key[2] < 0]
    assert len(minus) == 2 * 4 * 3
    for example, eps, tau, band in minus:
        mirror = by_point[(example, eps, -tau, band)]
        assert by_point[(example, eps, tau, band)]["z_discrete"] == mirror["z_discrete"]
    for line in res.summary:
        assert f"Hausdorff slope {BANDS_REUSE} = " in line


def test_run_bands_failed_fem_point_is_a_fail_line(monkeypatch):
    top = math.pi - 1e-3
    calls = _count_fem_spectra(monkeypatch, fail_at=("ex0", 0.0625, top))
    res = run_experiment("bands", BANDS_SMALL)
    assert not res.passed
    # the coarse solve raises, so the point is tried once and not again at -a
    assert calls.count(("ex0", 0.0625, top)) == 1
    assert res.summary[0] == (
        f"ex0: FEM spectrum failed at eps=0.0625, |tau|={top:.6g}: "
        "ArithmeticError: eigsh did not converge: ARPACK error -1: no convergence (forced)"
    )
    assert res.summary[1] == f"ex0: Hausdorff slope {BANDS_REUSE} = nan (band [1.7, 2.3]) FAIL"
    assert res.summary[2].startswith("ex2: Hausdorff slope ")
    # the failed point leaves out both of its rows (tau = -a and a) on ex0
    ex0 = [r for r in res.rows if r["example"] == "ex0"]
    assert len(ex0) == (4 * 3 - 2) * 3
    assert not [r for r in ex0 if r["eps"] == 0.0625 and abs(r["tau"]) == top]


def test_run_bands_failed_limiting_roots_are_a_fail_line(monkeypatch):
    original = dispersion.band_roots

    def failing(graph, tau, *args, **kwargs):
        if graph.example == "ex0" and tau == 0.0:
            raise ArithmeticError("not decreasing (forced)")
        return original(graph, tau, *args, **kwargs)

    monkeypatch.setattr(dispersion, "band_roots", failing)
    res = run_experiment("bands", BANDS_SMALL)
    assert not res.passed
    assert res.summary[0] == (
        "ex0: limiting roots failed at tau=0: ArithmeticError: not decreasing (forced)"
    )
    assert res.summary[1] == f"ex0: Hausdorff slope {BANDS_REUSE} = nan (band [1.7, 2.3]) FAIL"
    assert res.summary[2].startswith("ex2: Hausdorff slope ")
    # ex0 keeps its rows at tau = -a and a, at every eps
    ex0 = [r for r in res.rows if r["example"] == "ex0"]
    assert len(ex0) == 4 * 2 * 3
    assert all(r["tau"] != 0.0 for r in ex0)


# the lowest discrete eigenvalue of ex0 at eps = 0.3, tau = 1, resolution 64
KREIN_VS_DIRECT_EIGENVALUE = 1.8062813890270677


def test_krein_vs_direct_failed_resolutions_are_fail_lines():
    z = KREIN_VS_DIRECT_EIGENVALUE
    res = run_experiment(
        "krein_vs_direct", {"examples": ["ex0"], "z": z, "resolutions": [64, 128]}
    )
    assert not res.passed
    assert res.summary[0] == (
        f"ex0: resolvents failed at resolution=64, z={complex(z)}: NearSingularError: "
        "shifted system nearly singular: rel residual 6.36e-01"
    )
    # resolution 128 sits close enough to its own level to fail or not
    assert res.summary[-1] == "ex0: halving ratios = [nan] (band [3, 5]) FAIL"
    assert all(r["resolution"] != 64 for r in res.rows)
    # on the Dirichlet level (2 pi)^2 of the ex0 soft edge the closed-form
    # side raises PoleError; ex2 has no level there and keeps its ratio
    z = (2.0 * math.pi) ** 2
    res = run_experiment(
        "krein_vs_direct", {"examples": ["ex0", "ex2"], "z": z, "resolutions": [64, 128]}
    )
    assert not res.passed
    assert res.summary[0].startswith(
        f"ex0: resolvents failed at resolution=64, z={complex(z)}: PoleError: "
    )
    assert res.summary[2:4] == [
        "ex0: error / (h^2 ||R||) = [nan, nan] (tol 5) FAIL",
        "ex0: halving ratios = [nan] (band [3, 5]) FAIL",
    ]
    assert res.summary[4].startswith("ex2: error / (h^2 ||R||) = [")
    assert [r["example"] for r in res.rows] == ["ex2", "ex2"]


# the lowest Dirichlet level of the ex0 soft edge (length 1/2, speed 1): the
# closed forms of every fiber point there raise PoleError
SOFT_LEVEL = (2.0 * math.pi) ** 2


@pytest.mark.parametrize("tag", ["gen_res_rate", "full_res_rate"])
def test_resolvent_rates_at_a_pole_are_fail_lines(tag):
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    res = run_experiment(
        tag, {"examples": ["ex0"], "z": SOFT_LEVEL, "tau_list": [1.0], "eps_list": eps_list}
    )
    assert not res.passed
    assert res.rows == []
    for line, eps in zip(res.summary, eps_list):
        assert line.startswith(
            f"ex0: resolvents failed at tau=1, eps={eps:g}, z={complex(SOFT_LEVEL)}: "
            "PoleError: trig argument"
        )
    assert "ex0: slopes = [nan] (band [1.8, 2.2]) FAIL" in res.summary
    if tag == "full_res_rate":
        assert res.summary[4].startswith(
            f"ex0: dilation certificates failed at tau=1, eps=0.1, z={complex(SOFT_LEVEL)}"
        )
        assert [line.split(" = ")[1] for line in res.summary[-4:]] == [
            "nan (tol 1e-09) FAIL", "nan (tol 1e-10) FAIL", "nan (floor -1e-10) FAIL",
            "nan (tol 1e-09) FAIL",
        ]


# deep in the gap the (cos, sin) kernel fields of the soft edges cancel
# until a boundary system is exactly singular
DEEP_GAP = -32400 + 3j


@pytest.mark.parametrize("tag, name", [("gen_res_rate", "ex1"), ("full_res_rate", "ex2")])
def test_singular_boundary_system_is_a_fail_line(tag, name):
    # np.linalg.solve's LinAlgError is a ValueError: the effective layer
    # raises it as PoleError, so the point is a FAIL line, not a traceback
    res = run_experiment(tag, {"examples": [name], "z": DEEP_GAP})
    assert not res.passed
    singular = [line for line in res.failures if "boundary system singular" in line]
    assert singular
    for line in singular:
        assert line.startswith(f"{name}: resolvents failed at tau=")
        assert line.endswith(f"z={DEEP_GAP}: PoleError: boundary system singular (Singular matrix)")


def test_failed_tau_gets_no_slope_fit_while_the_others_keep_theirs(monkeypatch):
    # a pole at one tau only: the other tau of the cell keep their fits
    original = lab._soft_row

    def failing_row(graph, fiber, res):
        error = original(graph, fiber, res)
        if fiber.tau != 2.0:
            return error

        def failing(eps):
            raise PoleError("argument within 1e-08 of a pole (forced)")

        return failing

    monkeypatch.setattr(lab, "_soft_row", failing_row)
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    res = run_experiment(
        "gen_res_rate", {"examples": ["ex0"], "tau_list": [1.0, 2.0], "eps_list": eps_list}
    )
    assert not res.passed
    assert len(res.summary) == 5
    assert res.summary[0] == (
        "ex0: resolvents failed at tau=2, eps=0.125, z=(2+1j): "
        "PoleError: argument within 1e-08 of a pole (forced)"
    )
    assert res.summary[4] == "ex0: slopes = [1.993, nan] (band [1.8, 2.2]) FAIL"
    assert [r["tau"] for r in res.rows] == [1.0] * 4


def test_unconverged_norm_at_one_point_fails_only_its_tau(monkeypatch):
    # a power iteration of one step cannot converge: operator_norm_diff
    # raises ArithmeticError at the sixth point (tau = 2, eps = 1/16) only
    original, calls = lab.operator_norm_diff, itertools.count(1)

    def one_step_once(*args, **kwargs):
        return original(*args, **kwargs, max_iter=1 if next(calls) == 6 else 500)

    monkeypatch.setattr(lab, "operator_norm_diff", one_step_once)
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    res = run_experiment(
        "gen_res_rate", {"examples": ["ex0"], "tau_list": [1.0, 2.0], "eps_list": eps_list}
    )
    assert not res.passed
    assert res.failures == [
        "ex0: resolvents failed at tau=2, eps=0.0625, z=(2+1j): ArithmeticError: "
        "operator_norm_diff: power iteration not converged after max_iter=1 steps "
        "(last relative step 1.000e+00, tol 1.0e-08)"
    ]
    assert res.summary[-1] == "ex0: slopes = [1.993, nan] (band [1.8, 2.2]) FAIL"
    assert [(r["tau"], r["eps"]) for r in res.rows] == [
        (1.0, e) for e in eps_list
    ] + [(2.0, e) for e in eps_list if e != 0.0625]


@pytest.mark.parametrize("failing_eps", [0.125, 0.0625])
def test_pole_in_one_eps_b_matrix_fails_only_that_point(monkeypatch, failing_eps):
    # B(z) is the one eps-dependent input of a gen_res_rate point beside the
    # solves: a pole there fails that point only, and the row's other eps
    # keep their errors bit for bit, also when the failing eps is the first
    # of the row (the row's eps-free parts are then built at the second)
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    cfg = {"examples": ["ex0"], "tau_list": [1.0, -2.0], "eps_list": eps_list}
    clean = run_experiment("gen_res_rate", cfg)
    original = triples.b_matrix

    def failing(graph, fiber):
        if fiber.eps == failing_eps and fiber.tau == 1.0:
            raise PoleError("argument within 1e-08 of a pole (forced)")
        return original(graph, fiber)

    monkeypatch.setattr(triples, "b_matrix", failing)
    res = run_experiment("gen_res_rate", cfg)
    assert res.failures == [
        f"ex0: resolvents failed at tau=1, eps={failing_eps:g}, z=(2+1j): "
        "PoleError: argument within 1e-08 of a pole (forced)"
    ]
    assert res.rows == [
        r for r in clean.rows if (r["tau"], r["eps"]) != (1.0, failing_eps)
    ]


@pytest.mark.parametrize("tag", ["gen_res_rate", "full_res_rate"])
def test_rate_sweep_rows_equal_points_built_alone(tag):
    # every eps of a row reads the row's eps-free objects; each error is ==
    # the one from a workspace, model, Psi and B(z) built for that point
    eps_list = [0.125, 0.0625, 0.03125, 0.015625]
    z, res = 10 + 0.7j, 32
    result = run_experiment(tag, {
        "examples": ["ex1", "ex2"], "tau_list": [-2.0, 0.3], "eps_list": eps_list,
        "z": z, "resolution": res,
    })
    assert result.failures == []
    assert len(result.rows) == 16
    for r in result.rows:
        g, fiber = build_example(r["example"]), FiberParams(r["eps"], r["tau"], z)
        model = EffectiveModel(g, fiber, res)
        if tag == "gen_res_rate":
            r_eps = model.kernels.generalized_resolvent(z, triples.b_matrix(g, fiber))
            error = operator_norm_diff(r_eps, model.r_eff(z), model.grid.w)
        else:
            ws = model.workspace
            a_hom = PsiEmbedding(ws).sandwich(model.a_hom(z))
            error = operator_norm_diff(ws.generalized_resolvent(z, 0.0), a_hom, ws.grid.w)
        assert r["error"] == error


def test_a_fault_at_a_point_propagates(monkeypatch):
    # only ArithmeticError is a FAIL line; a TypeError is a bug and is raised
    def faulty(*args, **kwargs):
        raise TypeError("k_closed fault (forced)")

    monkeypatch.setattr(dispersion, "k_closed", faulty)
    with pytest.raises(TypeError, match="k_closed fault"):
        run_experiment("dispersion_series", {"examples": ["ex0"]})


def test_additivity_at_a_pole_is_a_fail_line_per_eps():
    res = run_experiment(
        "additivity", {"examples": ["ex0", "ex2"], "eps_list": [0.5, 0.1], "z_list": [SOFT_LEVEL]}
    )
    assert not res.passed
    zs = [complex(SOFT_LEVEL), 7 + 0.3j]
    assert [line.split(": PoleError")[0] for line in res.summary[:2]] == [
        f"ex0: M-matrix failed on the (tau, z) grid at eps={eps}, z in {zs}"
        for eps in (0.5, 0.1)
    ]
    # ex2 has no level there and keeps its rows
    assert {r["example"] for r in res.rows} == {"ex2"}
    assert len(res.rows) == 2 * 5 * 2


def test_btilde_identity_at_a_pole_is_one_fail_line_per_cell():
    # k eps l / a within POLE_GUARD of 0: cot and csc of the stiff edge blow up
    eps_list = [1e-14, 1e-13, 1e-12, 1e-11]
    res = run_experiment("btilde_identity", {"eps_list": eps_list})
    assert not res.passed
    assert res.rows == []
    assert [line.split(" z in ")[0] for line in res.summary] == [
        f"{name}: B_tilde failed on the (tau, z, eps) grid at eps in {eps_list},"
        for name in ("ex0", "ex2")
    ]
    assert all(": PoleError: trig argument" in line for line in res.summary)


# the Dirichlet level (pi a1 / (eps l1))^2 of the ex0 stiff edge at eps = 1/8
STIFF_LEVEL = (16.0 * math.pi) ** 2


def test_beff_rate_at_a_pole_fails_only_that_cell():
    # the ex0 stiff level is no pole of ex1; its slopes and delta slopes stay
    res = run_experiment("beff_rate", {"examples": ["ex0", "ex1"], "z": STIFF_LEVEL})
    assert not res.passed
    assert res.summary[0].startswith(
        "ex0: B_eff deviation failed on the (tau, eps) grid at eps in "
        f"{list(lab.DEFAULT_EPS)}, z={complex(STIFF_LEVEL)}: PoleError: trig argument"
    )
    assert res.summary[1].startswith("ex1: slopes = [")
    assert res.summary[2].startswith("ex1 delta-vs-limit slopes = [")
    assert {r["example"] for r in res.rows} == {"ex1"}
    assert len(res.rows) == len(lab.DEFAULT_TAUS) * len(lab.DEFAULT_EPS)


def test_beff_rate_has_no_pole_at_a_soft_level():
    # B(z) = -M_stiff(z) reads no soft edge: ex0 gets its slopes at its soft level
    res = run_experiment("beff_rate", {"z": SOFT_LEVEL})
    assert res.passed
    assert res.summary[0].startswith("ex0: slopes = [")


def test_beff_rate_failed_delta_is_a_fail_line(monkeypatch):
    def failing(graph, fiber):
        raise PoleError("delta: denominator below the guard (forced)")

    monkeypatch.setattr(triples, "delta_fn", failing)
    res = run_experiment("beff_rate", {})
    assert not res.passed
    assert res.summary[0] == (
        f"ex1: delta limit failed on the (tau, eps) grid at eps in {list(lab.DEFAULT_EPS)}, "
        "z=(2+1j): PoleError: delta: denominator below the guard (forced)"
    )
    assert len(res.rows) == 3 * len(lab.DEFAULT_TAUS) * len(lab.DEFAULT_EPS)


def test_schur_check_at_a_pole_is_a_fail_line():
    res = run_experiment(
        "schur_check", {"examples": ["ex0"], "tau_list": [0.3, 1.5], "z_list": [SOFT_LEVEL, 2 + 1j]}
    )
    assert not res.passed
    assert [line.split(": PoleError")[0] for line in res.summary[:2]] == [
        f"ex0: Schur scalar failed at tau={tau}, eps=0.1, z={complex(SOFT_LEVEL)}"
        for tau in (0.3, 1.5)
    ]
    # the points off the pole are still measured
    assert [(r["tau"], r["re_z"]) for r in res.rows] == [(0.3, 2.0), (1.5, 2.0)]
    assert res.summary[2].startswith("max |schur (K - z) - 1| = ")


def test_line_models_at_a_pole_is_a_fail_line():
    # ex0's soft Dirichlet level (pi/l2)^2 is a pole of the difference symbol
    pole = (math.pi / 0.5) ** 2
    res = run_experiment("line_models", {"examples": ["ex0"], "z_list": [pole, 2 + 1j]})
    assert not res.passed
    assert [line.split(": PoleError")[0] for line in res.summary[:2]] == [
        f"ex0: symbol defect failed at eps={eps:g}, z={complex(pole)}"
        for eps in (0.125, 0.0625)
    ]
    assert res.summary[2] == "ex0: max symbol defect = nan (tol 1e-10) FAIL"
    # the points off the pole are still measured
    assert [(r["eps"], r["re_z"]) for r in res.rows] == [(0.125, 2.0), (0.0625, 2.0)]


def test_line_models_at_a_zero_of_the_ex1_symbol_is_a_fail_line():
    # a real root of sigma^2 t^2 - (l1+l3) z - 2 a2 sqrt(z) tan(l2 sqrt(z)/(2 a2))
    # at t = 0 (brentq to 1e-15 in sqrt(z)); the eps-multiplier vanishes there too
    root = 90.92484426489447
    res = run_experiment("line_models", {"examples": ["ex1"], "z_list": [root, 2 + 1j]})
    assert not res.passed
    assert res.failures == [
        f"ex1: line model failed at eps={eps:g}, z={complex(root)}: "
        "PoleError: model symbol vanishes on the grid"
        for eps in lab.DEFAULT_EPS
    ]
    assert [r["kind"] for r in res.rows].count("model_error") == len(lab.DEFAULT_EPS)


@pytest.mark.parametrize("tag", EXPERIMENT_TAGS)
def test_unknown_key_raises_before_any_work(tag):
    t0 = time.perf_counter()
    with pytest.raises(ParameterError) as info:
        run_experiment(tag, {"eps_lst": [0.1]})
    assert time.perf_counter() - t0 < 1.0
    message = str(info.value)
    assert message.startswith(f"{tag} does not take eps_lst;")
    assert message.split("accepted keys: ")[1].split(", ") == list(config_keys(tag))


# tolerances are module constants: no config key may set them
@pytest.mark.parametrize(
    "tag, key",
    [
        ("additivity", "tol"),
        ("additivity", "sym_tol"),
        ("additivity", "herglotz_tol"),
        ("btilde_identity", "tol"),
        ("sum_identities", "tol"),
        ("schur_check", "tol"),
        ("line_models", "tol"),
        ("dispersion_series", "rel_tol"),
    ],
)
def test_tolerance_keys_rejected(tag, key):
    assert key not in config_keys(tag)
    with pytest.raises(ParameterError, match=f"does not take {key};"):
        run_experiment(tag, {key: 1.0})


def test_tolerance_cannot_turn_fail_into_pass():
    assert not run_experiment("sum_identities", {"n_terms": 1000}).passed
    with pytest.raises(ParameterError):
        run_experiment("sum_identities", {"n_terms": 1000, "tol": 1.0})


def test_scalar_accepted_for_list_key():
    res = run_experiment("sum_identities", {"x_list": 0.3})
    assert [row["x"] for row in res.rows] == [0.3]


def test_values_cast_by_default_type():
    res = run_experiment(
        "dispersion_series",
        {"examples": "EX0", "n_terms": 2000.0, "tau_count": 2, "z_list": 3},
    )
    assert {row["example"] for row in res.rows} == {"ex0"}
    assert len(res.rows) == 2 * 4
    assert type(res.rows[0]["re_z"]) is float


@pytest.mark.parametrize(
    "cfg, key",
    [
        (("gen_res_rate", {"resolution": "fine"}), "resolution"),
        (("schur_check", {"tau_list": [0.3, "x"]}), "tau_list"),
        (("gen_res_rate", {"resolution": [64, 128]}), "resolution"),
        (("schur_check", {"examples": []}), "examples"),
        (("gen_res_rate", {"resolution": 96.7}), "resolution"),
        (("additivity", {"tau_count": 2.5}), "tau_count"),
        (("gen_res_rate", {"resolution": math.inf}), "resolution"),
        # no key takes a bool: True is refused, not cast to 1 or 1.0
        (("additivity", {"tau_count": True}), "tau_count"),
        (("additivity", {"eps_list": [0.1, True]}), "eps_list"),
        # below the FEM floor of 16; 32 for bands, whose coarse grid is
        # resolution // 2
        (("krein_vs_direct", {"resolutions": [8, 16]}), "resolutions"),
        (("bands", {"resolution": 20}), "resolution"),
        (("gen_res_rate", {"resolution": 2}), "resolution"),
    ],
)
def test_bad_values_raise(cfg, key):
    # cfg is (tag, config); resolution is checked on a runner that takes it
    tag, config = cfg
    with pytest.raises(ParameterError, match=f"{tag}: {key} "):
        run_experiment(tag, config)


def test_bands_refuses_a_z_max_or_n_bands_it_cannot_serve():
    # (tests/test_cli.py refuses z_max = inf, 0 and -5 through the verb)
    with pytest.raises(ParameterError, match="bands: z_max must be positive and finite"):
        bind_config("bands", {"z_max": math.nan})
    # eigsh gives at most ndof - 2 eigenvalues; the coarse grid (resolution
    # // 2 = 32) of every default cell has 32 unknowns
    with pytest.raises(ParameterError, match="bands: n_bands must be at most 30 at resolution 64"):
        bind_config("bands", {"resolution": 64, "n_bands": 31})
    assert bind_config("bands", {"resolution": 64, "n_bands": 30, "z_max": 5.0}) == {
        "resolution": 64, "n_bands": 30, "z_max": 5.0
    }


def test_additivity_fails_a_closed_block_with_a_flipped_sign(monkeypatch):
    # m_blocks_closed builds m_full as m_stiff + m_soft, so m_full - m_stiff
    # - m_soft is 0 whatever the blocks hold; each block against the generic
    # M-matrix of its own component sees the flipped sign
    original = mmatrix.m_stiff_closed
    monkeypatch.setattr(mmatrix, "m_stiff_closed", lambda graph, fiber: -original(graph, fiber))
    res = run_experiment("additivity", {"examples": ["ex0"]})
    additivity, vs_general = res.checks[:2]
    assert additivity.name.startswith("additivity") and not additivity.ok
    assert vs_general.name.startswith("closed-vs-general") and not vs_general.ok
    assert min(r["additivity"] for r in res.rows) > 1.0


def test_resolution_floors_are_taken():
    # the FEM floor, and twice it for bands, whose coarse grid is resolution // 2
    floor = MIN_RESOLUTION
    assert bind_config("gen_res_rate", {"resolution": floor}) == {"resolution": floor}
    assert bind_config("krein_vs_direct", {"resolutions": floor}) == {"resolutions": [floor]}
    assert bind_config("bands", {"resolution": 2 * floor}) == {"resolution": 2 * floor}


def test_sum_identities_and_its_config_share_one_lattice_test(monkeypatch):
    # bind_config refuses an x_list entry by the very test that
    # verify_sum_identities raises on, so the two cannot drift apart
    monkeypatch.setattr(dispersion, "on_lattice", lambda x: x == 1.0)
    with pytest.raises(ParameterError, match="sum_identities: x_list must be finite and off"):
        bind_config("sum_identities", {"x_list": [0.3, 1.0]})
    with pytest.raises(ValueError, match="lattice point"):
        dispersion.verify_sum_identities(1.0, 10)
    assert bind_config("sum_identities", {"x_list": math.pi}) == {"x_list": [math.pi]}


def test_full_res_rate_refuses_equal_spectral_points():
    # compose certifies R(z) R(w) through 1/(z - w): z == w would end the
    # run with a traceback after the whole sweep
    for cfg in ({"w": 2 + 1j}, {"z": 5 + 2j}, {"z": 3j, "w": 3j}):
        with pytest.raises(ParameterError, match="full_res_rate: w must differ from z"):
            bind_config("full_res_rate", cfg)
    assert bind_config("full_res_rate", {"z": 5 + 2j, "w": 2 + 1j}) == {"z": 5 + 2j, "w": 2 + 1j}


def test_tau_keys_take_the_closed_interval_of_datta_weights():
    # the refusal and datta_weights share the bound: pi itself binds and
    # builds weights, the next float beyond it is refused by both
    top = math.pi
    assert bind_config("krein_vs_direct", {"tau": top}) == {"tau": top}
    assert bind_config("beff_rate", {"tau_list": [-top, top]}) == {"tau_list": [-top, top]}
    datta_weights(build_example("ex1"), -top)
    beyond = math.nextafter(top, 4.0)
    with pytest.raises(ParameterError, match="tau must lie in"):
        datta_weights(build_example("ex1"), beyond)
    for tag, key in (("krein_vs_direct", "tau"), ("gen_res_rate", "tau_list"),
                     ("full_res_rate", "tau_list"), ("beff_rate", "tau_list"),
                     ("schur_check", "tau_list")):
        for value in (beyond, -beyond):
            with pytest.raises(ParameterError, match=rf"{tag}: {key} must lie in \[-pi, pi\]"):
                bind_config(tag, {key: value})


def test_schur_check_takes_no_resolution():
    # the Schur scalar is one boundary solve; no sample grid enters it
    with pytest.raises(ParameterError, match="schur_check does not take resolution"):
        run_experiment("schur_check", {"resolution": 64})


@pytest.mark.parametrize(
    "tag", ["gen_res_rate", "full_res_rate", "beff_rate", "line_models", "bands"]
)
def test_slope_runner_rejects_short_eps_list_before_any_work(tag):
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match=f"{tag}: eps_list needs at least 4 values"):
        run_experiment(tag, {"eps_list": [0.1, 0.05, 0.025]})
    assert time.perf_counter() - t0 < 1.0


def test_runner_without_slope_fit_takes_short_eps_list():
    res = run_experiment("additivity", {"eps_list": 0.1, "tau_count": 2})
    assert res.passed
    assert {row["eps"] for row in res.rows} == {0.1}


def test_unknown_example_raises_naming_accepted_cells():
    message = "unknown example ex9; accepted: ex0, ex1, ex2"
    with pytest.raises(ParameterError, match=message):
        run_experiment("schur_check", {"examples": ["ex0", "EX9"]})


@pytest.mark.parametrize("tag", ["bands", "btilde_identity"])
def test_no_applicable_cell_is_a_fail(tag):
    res = run_experiment(tag, {"examples": "ex1"})
    assert not res.passed
    assert res.rows == []
    assert res.summary == ["no selected cell without a stiff cycle (examples: ex1)"]


def test_btilde_identity_honours_examples():
    # 2 tau x 10 z x 5 eps per cell; ex0 absolute, ex2 relative to 1 + |B|
    res = run_experiment("btilde_identity", {"examples": ["ex2", "ex0"], "tau_count": 2})
    assert res.passed
    assert [row["example"] for row in res.rows] == ["ex2"] * 100 + ["ex0"] * 100
    assert [line.split(" = ")[0] for line in res.summary] == [
        "ex2 max relative deviation",
        "ex0 max |generic - closed|",
    ]


def _readme_config_table() -> dict[str, tuple[str, ...]]:
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| tag ")
                 and "config keys" in line)
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        tag, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[tag.strip("`")] = tuple(k.strip().strip("`") for k in keys.split(","))
    return table


def test_readme_config_table_matches_runners():
    assert _readme_config_table() == {tag: config_keys(tag) for tag in EXPERIMENT_TAGS}
