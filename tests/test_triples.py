import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglab.graphs import build_example
from qglab.mmatrix import FiberParams, m_blocks_closed
from qglab.triples import (
    b_eff,
    b_matrix,
    beff_deviation,
    btilde_closed_ex0,
    btilde_numeric,
    delta_fn,
    delta_limit,
    projection_transform,
    rotate_triple,
    rotation_x,
    second_swap,
)


def test_b_is_negative_stiff_m():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        fiber = FiberParams(0.1, 0.9, 2 + 1j)
        b = b_matrix(g, fiber)
        assert np.max(np.abs(b + m_blocks_closed(g, fiber).m_stiff)) == 0.0


def test_rotation_is_unitary():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (-3.0, -0.7, 0.0, 1.3, 3.1):
            x = rotation_x(g, tau)
            assert np.max(np.abs(x.conj().T @ x - np.eye(2))) < 1e-14


def test_rotated_b_is_diagonal_ex0_ex2():
    for name in ("ex0", "ex2"):
        g = build_example(name)
        for tau in (-2.0, 0.4, 2.8):
            fiber = FiberParams(0.1, tau, 5 + 2j)
            b_hat = rotate_triple(b_matrix(g, fiber), rotation_x(g, tau))
            scale = np.max(np.abs(b_hat))
            assert abs(b_hat[0, 1]) < 1e-13 * scale
            assert abs(b_hat[1, 0]) < 1e-13 * scale


def test_transform_matches_closed_diagonal():
    # ex0 at the tolerance of the acceptance criterion; ex2 relative
    for tau in np.linspace(-3.0, 3.0, 7):
        for z in (0.7 + 0.5j, 5 + 1.3j, 17 + 0.5j):
            for eps in (0.5, 0.125, 0.03125):
                fiber = FiberParams(eps, float(tau), z)
                g0 = build_example("ex0")
                dev0 = np.max(
                    np.abs(btilde_numeric(g0, fiber) - btilde_closed_ex0(g0, fiber))
                )
                assert dev0 < 1e-12
                g2 = build_example("ex2")
                scale = 1.0 + np.max(np.abs(b_matrix(g2, fiber)))
                dev2 = np.max(
                    np.abs(btilde_numeric(g2, fiber) - btilde_closed_ex0(g2, fiber))
                )
                assert dev2 / scale < 1e-13


@settings(max_examples=40, deadline=None)
@given(
    bre=st.floats(-5, 5),
    cre=st.sampled_from([-3.0, -0.5, 0.7, 4.0]),
    dre=st.floats(-2, 2),
    dim=st.floats(-2, 2),
)
def test_projection_transform_closed_algebra(bre, cre, dre, dim):
    d = complex(dre, dim)
    m = np.array([[bre, d], [np.conj(d), cre]], dtype=complex)
    out = projection_transform(m)
    expect = np.array(
        [
            [(bre * cre - abs(d) ** 2) / cre, d / cre],
            [np.conj(d) / cre, -1.0 / cre],
        ]
    )
    assert np.max(np.abs(out - expect)) < 1e-10 * (1 + np.max(np.abs(expect)))


def test_swaps_equal_their_matrix_products():
    # the closed 2 x 2 forms against (P B - P_perp)(P_perp B + P)^{-1} and the
    # same with P and P_perp exchanged, on a stack of general complex B
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    p, p_perp = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for swap, q, q_perp in ((projection_transform, p, p_perp), (second_swap, p_perp, p)):
        ref = (q @ b - q_perp) @ np.linalg.inv(q_perp @ b + q)
        assert np.max(np.abs(swap(b) - ref)) < 1e-13 * np.max(np.abs(ref))


def test_second_swap_recovers_delta_ex1():
    g = build_example("ex1")
    for tau in (-2.5, 0.6, 3.0):
        for eps in (0.2, 0.05):
            fiber = FiberParams(eps, tau, 2 + 1j)
            b_prime = second_swap(btilde_numeric(g, fiber))
            assert abs(b_prime[0, 0] + delta_fn(g, fiber)) < 1e-13


def test_b_eff_values():
    z = 5 + 2j
    g0 = build_example("ex0")
    fiber = FiberParams(0.1, 0.9, z)
    e0 = b_eff(g0, fiber)
    assert e0[0, 0] == pytest.approx(-g0.params["l1"] * z / 2)
    assert e0[1, 1] == 0.0
    g2 = build_example("ex2")
    e2 = b_eff(g2, fiber)
    assert e2[0, 0] == pytest.approx(-g2.params["l3"] * z / 2)
    g1 = build_example("ex1")
    e1 = b_eff(g1, fiber)
    assert e1[0, 0] == pytest.approx(1.0 / delta_limit(g1, fiber))


def test_delta_converges_to_limit_quadratically():
    g = build_example("ex1")
    errs = []
    eps_list = [0.2, 0.1, 0.05, 0.025]
    for eps in eps_list:
        fiber = FiberParams(eps, 1.0, 2 + 1j)
        errs.append(abs(delta_fn(g, fiber) - delta_limit(g, fiber)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_beff_deviation_quadratic_rate():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        errs = [
            beff_deviation(g, FiberParams(eps, 0.8, 2 + 1j))
            for eps in (0.2, 0.1, 0.05)
        ]
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0


def test_beff_deviation_uniform_near_band_edge():
    import math

    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for tau in (math.pi - 1e-3, -(math.pi - 1e-3)):
            errs = [
                beff_deviation(g, FiberParams(eps, tau, 2 + 1j))
                for eps in (0.1, 0.05)
            ]
            assert 3.0 < errs[0] / errs[1] < 5.0
