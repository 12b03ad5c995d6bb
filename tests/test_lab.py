import math

import numpy as np
import pytest

from qglab import dispersion
from qglab.lab import (
    EXPERIMENT_TAGS,
    fit_slope,
    operator_norm_diff,
    parse_config,
    run_experiment,
    tau_grid,
    write_csv,
)


def test_fit_slope_pure_quadratic():
    eps = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    fit = fit_slope(eps, 3.0 * eps**2)
    assert abs(fit.slope - 2.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12
    assert fit.passed


def test_fit_slope_with_higher_order_correction():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = fit_slope(eps, eps**2 + 0.01 * eps**3)
    assert 1.95 < fit.slope < 2.05
    assert fit.passed


def test_fit_slope_detects_stagnation():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = fit_slope(eps, np.full(4, 1e-3))
    assert abs(fit.slope) < 0.05
    assert not fit.passed


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([0.5, 0.25, 0.125], [1, 1, 1])
    with pytest.raises(ValueError):
        fit_slope([0.5, 0.25, 0.125, 0.0], [1, 1, 1, 1])


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
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    norm = operator_norm_diff(a, None, np.array([4.0, 1.0]), np.array([1.0, 1.0]))
    assert norm == pytest.approx(2.0, abs=1e-8)


def test_tau_grid_endpoints_and_symmetry():
    grid = tau_grid(17)
    assert grid.size == 17
    assert grid[0] == pytest.approx(-(math.pi - 1e-3))
    assert grid[-1] == pytest.approx(math.pi - 1e-3)
    assert np.max(np.abs(grid + grid[::-1])) < 1e-14


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "examples = ex0, ex2   # only the decoupling cells\n"
        "\n"
        "eps_list = 0.125, 0.0625\n"
        "z_list = 2+1i, 5+2i\n"
        "resolution = 128\n"
        "strict = true\n"
        "label = smoke\n"
    )
    cfg = parse_config(str(path))
    assert cfg["examples"] == ["ex0", "ex2"]
    assert cfg["eps_list"] == [0.125, 0.0625]
    assert cfg["z_list"] == [complex(2, 1), complex(5, 2)]
    assert cfg["resolution"] == 128
    assert cfg["strict"] is True
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
