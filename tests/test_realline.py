import math

import numpy as np
import pytest

from qglab import realline
from qglab.graphs import PoleError, build_example, xi_ex1
from qglab.realline import (
    LineGrid,
    difference_symbol,
    differential_symbol_ex1,
    ex1_model_distance,
    gaussian_packet,
    make_line_grid,
    multiplier_symbol,
    psi_k_apply,
    solve_difference_model,
    solve_differential_model_ex1,
    stiff_length,
    symbol_identity_defect,
)

Z = 2 + 1j


def test_line_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(half_width=8.0, size=15)
    with pytest.raises(ValueError):
        LineGrid(half_width=8.0, size=8)
    g = make_line_grid(16.0, 64)
    assert g.x.size == 64
    assert abs(g.x[0] + 16.0) < 1e-12
    # dual grid resolves up to pi/h
    h = g.x[1] - g.x[0]
    assert np.max(np.abs(g.t)) == pytest.approx(math.pi / h, rel=1e-12)


def test_line_grid_arrays_are_computed_once_and_read_only():
    g = make_line_grid(16.0, 64)
    assert g.x is g.x and g.t is g.t
    assert not g.x.flags.writeable and not g.t.flags.writeable
    assert np.array_equal(g.x, np.linspace(-16.0, 16.0, 64, endpoint=False))
    assert np.array_equal(g.t, 2.0 * math.pi * np.fft.fftfreq(64, d=0.5))
    assert g == make_line_grid(16.0, 64)


def test_stiff_length():
    assert stiff_length(build_example("ex0")) == pytest.approx(0.5)
    assert stiff_length(build_example("ex1")) == pytest.approx(0.6)
    assert stiff_length(build_example("ex2")) == pytest.approx(0.3)


def test_single_fourier_mode_is_scaled_by_symbol():
    g = build_example("ex0")
    grid = make_line_grid(16.0, 256)
    eps = 0.25
    m = 3
    t0 = 2 * math.pi * m / (2 * 16.0)
    f = np.exp(1j * t0 * grid.x)
    u = psi_k_apply(g, eps, Z, f, grid)
    sym = multiplier_symbol(g, eps, Z, np.array([t0]))[0]
    assert np.max(np.abs(u - f / sym)) < 1e-12


def test_zero_datum_gives_zero():
    g = build_example("ex0")
    grid = make_line_grid(16.0, 128)
    u = psi_k_apply(g, 0.25, Z, np.zeros(128), grid)
    assert np.max(np.abs(u)) == 0.0


def test_constant_datum_difference_model():
    # the hopping term annihilates constants, leaving division by the
    # zero-frequency constant of the symbol
    g = build_example("ex0")
    p = g.params
    grid = make_line_grid(16.0, 128)
    f = np.ones(128, dtype=complex)
    u = solve_difference_model(g, 0.25, Z, f, grid)
    k = np.sqrt(complex(Z))
    const = p["l1"] * Z + 2 * p["a2"] * k * np.tan(k * p["l2"] / (2 * p["a2"]))
    assert np.max(np.abs(u + f / const)) < 1e-10


def test_round_trip_reproduces_datum():
    g = build_example("ex2")
    grid = make_line_grid(32.0, 1024)
    eps = 0.125
    f = gaussian_packet(grid, width=1.0, carrier=2.0)
    u = solve_difference_model(g, eps, Z, f, grid)
    u_hat = np.fft.fft(u)
    mask = np.abs(grid.t) <= math.pi / eps
    back = np.zeros_like(u_hat)
    back[mask] = u_hat[mask] * difference_symbol(g, eps, Z, grid.t[mask])
    f_hat = np.fft.fft(f)
    assert np.max(np.abs(back - f_hat)) / np.max(np.abs(f_hat)) < 1e-8


def test_aliasing_is_detected():
    g = build_example("ex0")
    grid = make_line_grid(8.0, 512)
    # a sharp spike has dual mass everywhere; with large eps the retained
    # band is narrow and the application must refuse
    f = np.zeros(512)
    f[256] = 1.0
    with pytest.raises(ArithmeticError, match="relative energy beyond"):
        psi_k_apply(g, 0.5, Z, f, grid)


def test_difference_model_rejects_an_aliased_datum():
    # the same spike: the difference model keeps only |t| <= pi/eps too, so
    # it must refuse rather than drop the rest of the datum's energy
    g = build_example("ex2")
    grid = make_line_grid(8.0, 512)
    f = np.zeros(512)
    f[256] = 1.0
    with pytest.raises(ArithmeticError, match="relative energy beyond"):
        solve_difference_model(g, 0.5, Z, f, grid)
    # a band-concentrated datum still passes
    solve_difference_model(g, 0.25, Z, gaussian_packet(grid), grid)


def test_vanishing_symbol_raises_pole_error(monkeypatch):
    g = build_example("ex1")
    grid = make_line_grid(16.0, 64)
    monkeypatch.setattr(
        realline, "differential_symbol_ex1", lambda graph, z, t: np.zeros_like(t)
    )
    with pytest.raises(PoleError, match="symbol vanishes on the grid"):
        solve_differential_model_ex1(g, Z, gaussian_packet(grid), grid)


def test_parseval_energy_balance():
    grid = make_line_grid(32.0, 2048)
    f = gaussian_packet(grid, width=1.5, carrier=1.0)
    h = grid.x[1] - grid.x[0]
    space = np.sum(np.abs(f) ** 2) * h
    dual = np.sum(np.abs(np.fft.fft(f)) ** 2) * h / f.size
    assert abs(space - dual) / space < 1e-10


def test_symbol_identities_on_dual_grid():
    grid = make_line_grid(16.0, 512)
    for name in ("ex0", "ex2"):
        g = build_example(name)
        for eps in (0.125, 0.0625):
            assert symbol_identity_defect(g, eps, Z, grid) < 1e-10


def test_difference_symbol_equals_multiplier():
    grid = make_line_grid(16.0, 256)
    eps = 0.125
    for name in ("ex0", "ex2"):
        g = build_example(name)
        mask = np.abs(grid.t) <= math.pi / eps
        t = grid.t[mask]
        d = difference_symbol(g, eps, Z, t)
        m = multiplier_symbol(g, eps, Z, t)
        assert np.max(np.abs(d - m)) / np.max(np.abs(m)) < 1e-12


def test_ex1_differential_symbol_at_zero_frequency():
    g = build_example("ex1")
    p = g.params
    k = np.sqrt(complex(Z))
    val = differential_symbol_ex1(g, Z, np.array([0.0]))[0]
    expect = -(
        (p["l1"] + p["l3"]) * Z
        + 2 * p["a2"] * k * np.tan(k * p["l2"] / (2 * p["a2"]))
    )
    assert abs(val - expect) < 1e-12


def test_ex1_model_distance_quadratic():
    g = build_example("ex1")
    grid = make_line_grid(32.0, 4096)
    d1 = ex1_model_distance(g, 0.125, Z, grid)
    d2 = ex1_model_distance(g, 0.0625, Z, grid)
    assert 3.0 < d1 / d2 < 5.0


def test_equal_impedance_pole_names_one_tau():
    # a1^2/l1 = a3^2/l3: xi vanishes at tau = +-pi, inside the model band;
    # the error names the band's tau where |xi| is smallest, not the band
    g = build_example("ex1", a3=1.0)
    grid = make_line_grid()
    eps = 0.125
    with pytest.raises(PoleError) as info:
        ex1_model_distance(g, eps, Z, grid)
    taus = eps * grid.t[np.abs(grid.t) <= math.pi / eps]
    worst = taus[np.argmin(np.abs(xi_ex1(g, taus)))]
    message = str(info.value)
    assert len(message) < 200
    assert f"tau = {worst}" in message


def test_ex1_differential_solution_close_to_multiplier():
    g = build_example("ex1")
    grid = make_line_grid(32.0, 4096)
    eps = 0.0625
    f = gaussian_packet(grid, width=0.5, carrier=2.0)
    u_eps = psi_k_apply(g, eps, Z, f, grid)
    u_lim = solve_differential_model_ex1(g, Z, f, grid)
    num = np.linalg.norm(u_eps - u_lim)
    den = np.linalg.norm(f)
    assert num / den < 0.01


def test_models_only_for_their_examples():
    grid = make_line_grid(8.0, 64)
    with pytest.raises(ValueError):
        difference_symbol(build_example("ex1"), 0.25, Z, grid.t)
    with pytest.raises(ValueError):
        differential_symbol_ex1(build_example("ex0"), Z, grid.t)
