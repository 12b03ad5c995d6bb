import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from qglab import dispersion
from qglab.dispersion import (
    ROOT_TOL,
    SUM_BLOCK,
    _refine,
    _pole_list,
    band_roots,
    flat_levels,
    k_closed,
    k_series,
    verify_sum_identities,
)
from qglab.effective import EffectiveModel
from qglab.graphs import build_example
from qglab.lab import tau_grid
from qglab.mmatrix import POLE_GUARD, FiberParams, PoleError


def test_k_closed_ex0_zero_point():
    # z = pi^2, tau = pi/2: soft argument pi/2 and cos(tau) coincide
    g = build_example("ex0")
    assert abs(k_closed(g, math.pi / 2, math.pi**2)) < 1e-12


def test_k_closed_ex1_tau_zero_tangent():
    g = build_example("ex1")
    p = g.params
    for z in (1.7, 6.3):
        y = p["l2"] * math.sqrt(z)
        expect = -(2 * math.sqrt(z) / (p["l1"] + p["l3"])) * math.tan(y / 2)
        assert k_closed(g, 0.0, z, eps=0.1) == pytest.approx(expect, rel=1e-12)


def test_k_closed_ex2_loop_cancellation():
    # pick tau with cos(tau) = cos(l1 sqrt(z)): the chain term drops and
    # only the loop tangent survives
    g = build_example("ex2")
    p = g.params
    z = 4.0
    tau = p["l1"] * math.sqrt(z) / p["a1"]
    expect = -(2 * math.sqrt(z) * p["a2"] / p["l3"]) * math.tan(
        p["l2"] * math.sqrt(z) / (2 * p["a2"])
    )
    assert k_closed(g, tau, z) == pytest.approx(expect, rel=1e-12)


def test_k_real_and_even_in_tau():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (0.3, 1.1, 2.7):
            v = k_closed(g, tau, 3.7, eps=0.1)
            assert abs(v.imag) < 1e-10
            w = k_closed(g, -tau, 3.7, eps=0.1)
            assert abs(v - w) < 1e-10 * (1 + abs(v))


def test_series_matches_closed_form():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (-2.2, 0.5, 2.9):
            for z in (2 + 1j, 5 + 2j, 10 + 0.7j):
                kc = k_closed(g, tau, z, eps=0.1)
                ks = k_series(g, tau, z, 10_000, eps=0.1)
                assert abs(ks - kc) / (1 + abs(kc)) < 1e-3


def test_series_tail_is_first_order_in_terms():
    g = build_example("ex0")
    kc = k_closed(g, 1.0, 2 + 1j)
    e1 = abs(k_series(g, 1.0, 2 + 1j, 1_000) - kc)
    e2 = abs(k_series(g, 1.0, 2 + 1j, 2_000) - kc)
    assert abs(e1 / e2 - 2.0) < 1.0


def test_series_rejects_empty():
    g = build_example("ex0")
    with pytest.raises(ValueError):
        k_series(g, 0.5, 2 + 1j, 0)


def test_sum_identities_small_deviation():
    for x in (0.3, 1.0, 2.5):
        dev = verify_sum_identities(x, 1_000_000)
        assert dev["plain"] < 2e-6
        assert dev["alternating"] < 2e-6


def test_sum_identities_reject_lattice_points():
    with pytest.raises((PoleError, ValueError)):
        verify_sum_identities(math.pi, 100)
    # j = 0, where the closed forms divide by x^2, and j beyond the truncation
    for x in (0.0, -2 * math.pi, 500 * math.pi):
        assert dispersion.on_lattice(x)
        with pytest.raises(ValueError, match="lattice point"):
            verify_sum_identities(x, 100)
    assert not any(map(dispersion.on_lattice, (0.3, 1.0, 2.5, math.pi + 1e-9)))


def _full_array_sums(x, n_terms):
    """verify_sum_identities as it was before the sums were streamed: every
    term in one array, summed by np.sum."""
    lattice = np.arange(1, n_terms + 1, dtype=float)
    lattice *= math.pi
    lattice *= lattice
    xs = np.asarray(x, dtype=float)
    plain, alt = np.empty(xs.shape), np.empty(xs.shape)
    denom = np.empty_like(lattice)
    for idx, xv in np.ndenumerate(xs):
        np.subtract(lattice, xv * xv, out=denom)
        np.reciprocal(denom, out=denom)
        closed_plain = 0.5 * (1.0 / xv**2 - math.cos(xv) / (xv * math.sin(xv)))
        closed_alt = 0.5 * (1.0 / xv**2 - 1.0 / (xv * math.sin(xv)))
        plain[idx] = abs(np.sum(denom) - closed_plain)
        alt[idx] = abs(np.sum(denom[1::2]) - np.sum(denom[::2]) - closed_alt)
    return {"plain": plain[()], "alternating": alt[()]}


# every x_list entry off the lattice: 0.05 + 0.37 k, k < 40, stays at least
# 0.05 away from every multiple of pi
LONG_X_LIST = 0.05 + 0.37 * np.arange(40)


@pytest.mark.parametrize(
    "n_terms",
    [1, 2, 7, 8, 9, 127, 128, 129, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1,
     2 * SUM_BLOCK + 3, 1_000_000],
)
def test_streamed_sums_equal_the_full_array_sums(n_terms):
    # the blocks follow numpy's own pairwise split, so every deviation is
    # bit for bit the one of np.sum over the whole array of terms
    for x in (1.0, np.array([[0.3, -1.0], [2.5, 7.0]]), LONG_X_LIST):
        got, ref = verify_sum_identities(x, n_terms), _full_array_sums(x, n_terms)
        assert np.shape(got["plain"]) == np.shape(x)
        for key in ("plain", "alternating"):
            np.testing.assert_array_equal(got[key], ref[key])
    assert type(verify_sum_identities(1.0, n_terms)["plain"]) is np.float64


def test_sum_identities_reject_too_few_terms():
    with pytest.raises(ValueError, match="n_terms"):
        verify_sum_identities(1.0, 0)


@pytest.mark.parametrize("n_terms", [4_000_000, 20_000_000])
def test_streamed_sums_hold_a_bounded_working_set(n_terms):
    # the full arrays of terms took 61 MB at 4e6 terms; the stream holds two
    # blocks of SUM_BLOCK floats, whatever the number of terms
    verify_sum_identities(np.array([0.3, 1.0, 2.5]), 10)  # warm
    tracemalloc.start()
    try:
        verify_sum_identities(np.array([0.3, 1.0, 2.5]), n_terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_schur_frobenius_inverts_dispersion():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (-1.0, 0.3, 2.9):
            z = 5 + 2j
            fiber = FiberParams(0.1, tau, z)
            s = EffectiveModel(g, fiber, 1).schur_frobenius(z)
            assert abs(s * (k_closed(g, tau, z, eps=0.1) - z) - 1.0) < 1e-9


def test_band_roots_spot_values_ex0():
    g = build_example("ex0")
    roots = band_roots(g, 1.0, 400.0)
    expect = [1.9558, 59.8879, 165.0559, 379.1828]
    assert len(roots) >= 4
    for e, r in zip(expect, roots[:4]):
        assert r == pytest.approx(e, abs=2e-3)


def test_band_roots_include_zero_and_decoupled_levels():
    g = build_example("ex0")
    roots = np.asarray(band_roots(g, 0.0, 400.0))
    assert np.min(np.abs(roots - 0.0)) < 1e-8
    # at cos(tau) = 1 the even sine poles host decoupled eigenvalues
    assert np.min(np.abs(roots - (2 * math.pi / 0.5) ** 2)) < 1e-8


def test_band_roots_near_pi_ex0():
    g = build_example("ex0")
    roots = np.asarray(band_roots(g, math.pi - 1e-3, 400.0))
    for e in (11.8428, 39.4784, 187.7578, 355.3058):
        assert np.min(np.abs(roots - e)) < 2e-3


def test_ex2_flat_levels_present_for_all_tau():
    g = build_example("ex2")
    flats = flat_levels(g, 400.0)
    assert any(abs(f - (2 * math.pi / 0.4) ** 2) < 1e-10 for f in flats)
    for tau in (0.0, 1.0, math.pi - 1e-3):
        roots = np.asarray(band_roots(g, tau, 400.0))
        assert np.min(np.abs(roots - (2 * math.pi / 0.4) ** 2)) < 1e-8


def test_band_roots_satisfy_dispersion_equation():
    g = build_example("ex2")
    flats = set(flat_levels(g, 300.0))
    for tau in (0.4, 2.0):
        for r in band_roots(g, tau, 300.0):
            if r < 1e-8 or any(abs(r - f) < 1e-8 for f in flats):
                continue
            try:
                resid = abs(k_closed(g, tau, r) - r)
            except PoleError:
                continue  # eigenvalue sitting at a removable pole
            assert resid < 1e-6 * max(1.0, r)


def test_band_roots_spot_values_ex2():
    g = build_example("ex2")
    roots = band_roots(g, 0.0, 300.0)
    expect = [0.0, 77.4373, 195.0017, 246.7401]
    for e, r in zip(expect, roots[:4]):
        assert r == pytest.approx(e, abs=2e-3)


# z points off the poles of every example; the last has Im(sqrt(z)) = 180, so
# every soft argument sqrt(z) l/a has |Im| > 50 (the overflow-safe branch)
_Z_POINTS = np.array([0.37, 2 + 1j, 5 + 2j, 10 + 0.7j, 83.1, -6.0, -32400.0 + 3j])
_TAU_POINTS = np.array([-(math.pi - 1e-3), -2.2, -0.4, 0.0, 0.9, 2.9])


def _assert_rel_close(arr, ref, rtol=1e-14):
    assert arr.shape == ref.shape
    assert np.all(np.abs(arr - ref) <= rtol * np.abs(ref))


def test_k_closed_scalars_return_complex():
    for name in ("ex0", "ex1", "ex2"):
        assert type(k_closed(build_example(name), 0.7, 3.1, eps=0.1)) is complex


def test_k_closed_array_z_matches_scalar_loop():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (-2.2, 0.0, 1.3):
            arr = k_closed(g, tau, _Z_POINTS, eps=0.1)
            ref = np.array([k_closed(g, tau, complex(z), eps=0.1) for z in _Z_POINTS])
            _assert_rel_close(arr, ref)


def test_k_closed_array_tau_matches_scalar_loop():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for z in _Z_POINTS:
            arr = k_closed(g, _TAU_POINTS, complex(z), eps=0.1)
            ref = np.array([k_closed(g, float(t), complex(z), eps=0.1) for t in _TAU_POINTS])
            _assert_rel_close(arr, ref)


def test_k_closed_array_raises_on_one_pole_element():
    # ex0: sqrt(z) l2/a2 = pi at z = (2 pi)^2; the other points are regular
    g = build_example("ex0")
    z_pole = (2.0 * math.pi) ** 2 * (1.0 + 0.1 * POLE_GUARD)
    with pytest.raises(PoleError):
        k_closed(g, 0.3, np.array([2.0, z_pole, 5.0]))
    k_closed(g, 0.3, np.array([2.0, 5.0]))


def _band_roots_scalar_scan(graph, tau, z_max, scan_points=256, root_tol=1e-12):
    """Reference: the band scan with one scalar k_closed call per point."""
    pole_data = _pole_list(graph, z_max * (1.0 + 1e-9))
    edges = [0.0] + [z for z, _, _ in pole_data] + [z_max]
    pads = [10.0 * POLE_GUARD * slope for _, _, slope in pole_data]

    def f(z):
        return (k_closed(graph, tau, z + 0j) - z).real

    roots = list(flat_levels(graph, z_max))
    for z_p, parity, _ in pole_data:
        if parity is not None and abs(math.cos(tau) - parity) < 1e-9:
            roots.append(z_p)
    if abs(f(1e-9)) <= 1e-8:
        roots.append(0.0)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        a = lo + pads[i - 1] if i >= 1 else max(lo, 1e-12)
        b = hi - pads[i] if i < len(pole_data) else hi
        if hi <= lo or b <= a:
            continue
        grid = np.linspace(a, b, scan_points)
        vals = np.array([f(x) for x in grid])
        for j in range(scan_points - 1):
            if np.sign(vals[j]) != np.sign(vals[j + 1]):
                roots.append(brentq(f, grid[j], grid[j + 1], xtol=root_tol, rtol=1e-15))
        mags = np.abs(vals)
        scale = max(1.0, float(np.max(mags)))
        for j in range(1, scan_points - 1):
            if not (mags[j] <= mags[j - 1] and mags[j] <= mags[j + 1]):
                continue
            if np.sign(vals[j - 1]) != np.sign(vals[j + 1]) or vals[j] == 0.0:
                continue
            res = minimize_scalar(
                lambda t: f(t) ** 2,
                bounds=(grid[j - 1], grid[j + 1]),
                method="bounded",
                options={"xatol": root_tol},
            )
            z_star = float(res.x)
            if abs(f(z_star)) <= 1e-7 * scale and not any(
                abs(z_star - r) < 1e-6 * max(1.0, z_star) for r in roots
            ):
                roots.append(z_star)
    return np.array(sorted(roots))


def test_band_roots_match_scalar_scan_reference():
    # the same roots, each within the sum of the two refinements' tolerances:
    # brentq's bracket and _refine's are narrower than ROOT_TOL + 1e-15 r
    for name in ("ex0", "ex2"):
        g = build_example(name)
        for tau in tau_grid(17):
            got = band_roots(g, float(tau), 260.0)
            ref = _band_roots_scalar_scan(g, float(tau), 260.0)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 2.0 * (ROOT_TOL + 1e-15 * ref))


@pytest.mark.parametrize("z_max", [0.0, -5.0, math.nan])
def test_band_roots_refuse_a_z_max_that_is_not_positive_and_finite(z_max):
    # z_max = inf, where the Dirichlet levels below it never end, is tested
    # through bind_config (test_lab), so that no run of it can hang
    with pytest.raises(ValueError, match="z_max must be positive and finite"):
        band_roots(build_example("ex2"), 1.0, z_max)


def test_band_roots_raise_where_the_scan_is_not_decreasing(monkeypatch):
    # a Gaussian bump on K makes K - z rise near z = 20: the scan must name
    # the interval (without the check it returns 3 roots and says nothing)
    original = dispersion.k_closed

    def bumped(graph, tau, z, eps=None):
        return original(graph, tau, z, eps=eps) + 3.0 * np.exp(-(((z - 20.0) / 0.5) ** 2))

    monkeypatch.setattr(dispersion, "k_closed", bumped)
    g = build_example("ex0")
    with pytest.raises(ArithmeticError, match=r"at tau=1 on the scan of \[") as info:
        band_roots(g, 1.0, 260.0)
    a, b = map(float, re.search(r"\[(\S+), (\S+)\]", str(info.value)).groups())
    assert a < 20.0 < b


# _refine's contract, on decreasing functions with a sign change at a known
# root: a line, a cubic that flattens at the root, tanh and exp, on brackets
# of 1e-3 ... 20 times their length scale 1/scale.  Their end values stay
# within 1e12 of each other; the scan values of band_roots stay within 4e5
# (300 drawn cells and tau).  The roots are 0 or of the size of band_roots'
# (its scan starts at z = 1e-12): near a subnormal root the steps themselves
# round to subnormals, and the far end needs about a thousand halvings
def _decreasing(kind, scale, root):
    if kind == "line":
        return lambda x: scale * (root - x)
    if kind == "cubic":
        return lambda x: (root - x) * (0.01 + scale * (x - root) ** 2)
    if kind == "tanh":
        return lambda x: math.tanh(scale * (root - x))
    return lambda x: 1.0 - math.exp(scale * (x - root))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["line", "cubic", "tanh", "exp"]),
    scale=st.floats(0.1, 1e4),
    root=st.one_of(st.just(0.0), st.floats(1e-6, 300.0), st.floats(-300.0, -1e-6)),
    below=st.floats(1e-3, 20.0),
    above=st.floats(1e-3, 20.0),
)
# a root at 0, where the bound is ROOT_TOL / 2 alone
@example(kind="exp", scale=0.1, root=0.0, below=1.0, above=1.0)
def test_refine_closes_the_bracket_around_a_known_root(kind, scale, root, below, above):
    # the bracket closes below ROOT_TOL + 1e-15 |x| and _refine returns its
    # midpoint, so the root lies within half of that; 4 ulps of the root
    # allow for the sign of f near it, which its rounding may flip
    f = _decreasing(kind, scale, root)
    a, b = root - below / scale, root + above / scale
    fa, fb = f(a), f(b)
    assume(fa > 0.0 > fb)
    got = _refine(f, a, b, fa, fb)
    assert abs(got - root) <= 0.5 * (ROOT_TOL + 1e-15 * abs(got)) + 4.0 * math.ulp(root)


def test_refine_returns_an_exact_zero_as_it_is():
    # the first false-position step of 1 - x on [0, 3] lands on x = 1
    assert _refine(lambda x: 1.0 - x, 0.0, 3.0, 1.0, -2.0) == 1.0
    # a zero at an end: no step is taken
    def never(x):
        raise AssertionError("no value is needed")

    assert _refine(never, 2.0, 5.0, 0.0, -1.0) == 2.0
    assert _refine(never, 2.0, 5.0, 1.0, 0.0) == 5.0


def test_refine_raises_arithmetic_errors_naming_the_bracket(monkeypatch):
    # NaN inside the bracket: the first step on 0.5 - x lands on 0.5
    def holed(x):
        return math.nan if abs(x - 0.5) < 0.1 else 0.5 - x

    with pytest.raises(ArithmeticError, match=r"NaN value at z=0\.5 in the bracket \[0, 1\]"):
        _refine(holed, 0.0, 1.0, 0.5, -0.5)
    # the root pi/2 of cos takes more than three steps from [0, 3]
    f0, f3 = math.cos(0.0), math.cos(3.0)
    assert abs(_refine(math.cos, 0.0, 3.0, f0, f3) - math.pi / 2) <= ROOT_TOL
    monkeypatch.setattr(dispersion, "REFINE_STEPS", 3)
    with pytest.raises(ArithmeticError, match=r"did not close the bracket \[0, 3\] in 3 steps"):
        _refine(math.cos, 0.0, 3.0, f0, f3)
