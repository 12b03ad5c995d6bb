import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from qglab import dispersion
from qglab.dispersion import (
    ROOT_TOL,
    SUM_BLOCK,
    _brent,
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
    for name in ("ex0", "ex2"):
        g = build_example(name)
        for tau in tau_grid(17):
            got = band_roots(g, float(tau), 260.0)
            ref = _band_roots_scalar_scan(g, float(tau), 260.0)
            np.testing.assert_array_equal(got, ref)


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


# _brent against scipy's brentq: the tolerances of band_roots, loose ones,
# and scipy's default xtol with its smallest rtol (4 machine eps)
BRENT_TOLS = [(ROOT_TOL, 1e-15), (1e-3, 1e-10), (2e-12, 4 * np.finfo(float).eps)]
FINITE = st.floats(-1e3, 1e3, allow_nan=False)


def _drawn_function(kind, coeffs, root):
    """A smooth function with a sign change at ``root`` (cubic, tanh or exp
    shape), or a cubic with up to three roots or none (``poly``)."""
    c0, c1, c2, c3 = coeffs
    if kind == "cubic":
        return lambda x: (1.0 + c1 * c1) * (x - root) + c3 * (x - root) ** 3
    if kind == "tanh":
        return lambda x: (1.0 + abs(c0)) * math.tanh((0.1 + abs(c1)) * (x - root))
    if kind == "exp":
        return lambda x: math.exp(min((0.1 + abs(c2)) * (x - root), 700.0)) - 1.0
    return lambda x: c0 + c1 * (x - root) + c2 * (x - root) ** 2 + c3 * (x - root) ** 3


def _outcome(solve):
    """The root, or how the solve failed: brentq's ValueError (no sign
    change) and RuntimeError (no convergence) against _brent's
    ArithmeticError with the same reason."""
    try:
        return solve()
    except RuntimeError:
        return "no convergence"
    except ArithmeticError as exc:
        return "no convergence" if "did not converge" in str(exc) else f"bad bracket: {exc}"
    except ValueError:
        return "bad bracket"


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "tanh", "exp", "poly"]),
    coeffs=st.tuples(*[st.floats(-5.0, 5.0)] * 4),
    root=st.floats(-50.0, 50.0),
    a=FINITE,
    b=FINITE,
    tols=st.sampled_from(BRENT_TOLS),
)
@example(kind="cubic", coeffs=(0.0, 0.0, 0.0, 1.0), root=0.3, a=-1.0, b=1.0, tols=BRENT_TOLS[0])
@example(kind="poly", coeffs=(1.0, 0.0, 1.0, 0.0), root=0.0, a=-1.0, b=1.0, tols=BRENT_TOLS[0])
# a triple root: no convergence in 100 iterations at this xtol
@example(kind="poly", coeffs=(0.0, 0.0, 0.0, 1.0), root=-1.0, a=0.0, b=-3.0, tols=BRENT_TOLS[0])
# values near 1e-246: the extrapolation divisor underflows to 0, and the
# step bisects as the C code's inf or NaN does
@example(
    kind="poly", coeffs=(0.0, 0.0, 0.0, 3.888255476537775e-246), root=0.0, a=0.5, b=-2.0,
    tols=BRENT_TOLS[2],
)
def test_brent_equals_scipy_brentq(kind, coeffs, root, a, b, tols):
    # the same float, or an ArithmeticError for the same reason as brentq's
    # error: no sign change, or no convergence in 100 iterations (a root of
    # odd multiplicity > 1 at a tight xtol)
    f = _drawn_function(kind, coeffs, root)
    xtol, rtol = tols
    ref = _outcome(lambda: brentq(f, a, b, xtol=xtol, rtol=rtol))
    got = _outcome(lambda: _brent(f, a, b, xtol, rtol))
    if isinstance(ref, float):
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
    elif ref == "bad bracket":
        assert got.startswith("bad bracket: no sign change on the bracket")
    else:
        assert got == ref


def test_brent_returns_a_zero_end_as_it_is():
    for a, b, f in [
        (1.0, 2.0, lambda x: x - 1.0),  # f(a) == 0
        (0.0, 2.0, lambda x: x - 2.0),  # f(b) == 0
        (-0.0, 1.0, lambda x: x),  # a -0.0 end, where f is -0.0
        (0.0, -1.0, lambda x: -x),  # f(a) == -0.0 at a +0.0 end
    ]:
        got = _brent(f, a, b, ROOT_TOL, 1e-15)
        ref = brentq(f, a, b, xtol=ROOT_TOL, rtol=1e-15)
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
    assert math.copysign(1.0, _brent(lambda x: x, -0.0, 1.0, ROOT_TOL, 1e-15)) == -1.0


def test_brent_raises_arithmetic_errors_naming_the_bracket():
    with pytest.raises(ArithmeticError, match=r"no sign change on the bracket \[1, 2\]"):
        _brent(lambda x: x * x, 1.0, 2.0, ROOT_TOL, 1e-15)
    # NaN inside the bracket: the first secant step lands on x = 0.5
    def holed(x):
        return math.nan if abs(x - 0.5) < 0.1 else x - 0.5

    with pytest.raises(ArithmeticError, match=r"NaN value at z=0\.5 in the bracket \[0, 1\]"):
        _brent(holed, 0.0, 1.0, ROOT_TOL, 1e-15)
    with pytest.raises(ValueError, match="NaN"):
        brentq(holed, 0.0, 1.0, xtol=ROOT_TOL, rtol=1e-15)

    def slow(x):
        return math.copysign(abs(x - 0.3) ** 0.05, x - 0.3)

    with pytest.raises(ArithmeticError, match=r"not converge in 3 iterations on the bracket \[0, 1\]"):
        _brent(slow, 0.0, 1.0, ROOT_TOL, 1e-15, maxiter=3)
    with pytest.raises(RuntimeError):
        brentq(slow, 0.0, 1.0, xtol=ROOT_TOL, rtol=1e-15, maxiter=3)
