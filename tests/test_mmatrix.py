import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglab.graphs import build_example
from qglab.mmatrix import (
    FiberParams,
    PoleError,
    check_additivity,
    cot_csc,
    guard_pole,
    herglotz_min_eig,
    m_blocks_closed,
    m_general,
    sqrt_upper,
)


def test_fiber_k_branch():
    assert FiberParams(0.1, 0.0, 4.0).k == pytest.approx(2.0)
    k = FiberParams(0.1, 0.0, -4.0).k
    assert k.imag > 0
    k = FiberParams(0.1, 0.0, 2 + 1j).k
    assert k.imag >= 0


def test_sqrt_upper_scalar_and_array_agree():
    z = np.array([4.0, -4.0, 2 + 1j, 2 - 1j, -3 - 1e-300j, 0.0])
    k = sqrt_upper(z)
    assert np.all(k.imag >= 0)
    np.testing.assert_allclose(k * k, z, atol=1e-12)
    for zi, ki in zip(z, k):
        assert sqrt_upper(complex(zi)) == pytest.approx(ki, rel=1e-15)


def test_trig_kernels_array_branch_matches_scalar():
    x = np.array([0.3 + 0.1j, 2.0 - 1.5j, 1.0 + 60.0j, -0.7 - 75.0j, 4.0 + 700.0j])
    for arr, ref in zip(cot_csc(x), zip(*(cot_csc(complex(xi)) for xi in x))):
        ref = np.array(ref)
        assert np.all(np.abs(arr - ref) <= 1e-14 * np.abs(ref) + 1e-300)
    with pytest.raises(PoleError):
        cot_csc(np.array([1.0, math.pi + 1e-10, 2.0]))


def _former_cot(x):
    """The separate cot kernel that ``cot_csc`` replaced, as it was."""
    if isinstance(x, np.ndarray):
        x = guard_pole(x).astype(complex)
        up, down = x.imag > 50.0, x.imag < -50.0
        mid = ~(up | down)
        out = np.empty_like(x)
        out[mid] = np.cos(x[mid]) / np.sin(x[mid])
        q = np.exp(2j * x[up])
        out[up] = 1j * (q + 1.0) / (q - 1.0)
        q = np.exp(-2j * x[down])
        out[down] = 1j * (1.0 + q) / (1.0 - q)
        return out
    guard_pole(x)
    if x.imag > 50.0:
        q = cmath.exp(2j * x)
        return 1j * (q + 1.0) / (q - 1.0)
    if x.imag < -50.0:
        q = cmath.exp(-2j * x)
        return 1j * (1.0 + q) / (1.0 - q)
    return cmath.cos(x) / cmath.sin(x)


def _former_csc(x):
    """The separate csc kernel that ``cot_csc`` replaced, as it was."""
    if isinstance(x, np.ndarray):
        x = guard_pole(x).astype(complex)
        up, down = x.imag > 50.0, x.imag < -50.0
        mid = ~(up | down)
        out = np.empty_like(x)
        out[mid] = 1.0 / np.sin(x[mid])
        xu, xd = x[up], x[down]
        out[up] = 2j * np.exp(1j * xu) / (np.exp(2j * xu) - 1.0)
        out[down] = 2j * np.exp(-1j * xd) / (1.0 - np.exp(-2j * xd))
        return out
    guard_pole(x)
    if x.imag > 50.0:
        return 2j * cmath.exp(1j * x) / (cmath.exp(2j * x) - 1.0)
    if x.imag < -50.0:
        return 2j * cmath.exp(-1j * x) / (1.0 - cmath.exp(-2j * x))
    return 1.0 / cmath.sin(x)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


# the three branches of the kernel: Im x > 50, Im x < -50 and in between,
# with real parts that reach the poles k pi
TRIG_ARGS = st.builds(
    complex,
    st.floats(-20.0, 20.0) | st.sampled_from([0.0, math.pi, -2 * math.pi + 1e-9]),
    st.floats(50.0, 400.0, exclude_min=True)
    | st.floats(-400.0, -50.0, exclude_max=True)
    | st.floats(-50.0, 50.0)
    | st.sampled_from([0.0, 1e-12, 50.0, -50.0]),
)


def _kernel_or_pole(kernel, x):
    try:
        return kernel(x)
    except PoleError:
        return PoleError


@settings(max_examples=200, deadline=None)
@given(x=TRIG_ARGS)
def test_cot_csc_scalar_equals_former_kernels_bit_for_bit(x):
    got = _kernel_or_pole(cot_csc, x)
    former = _kernel_or_pole(_former_cot, x), _kernel_or_pole(_former_csc, x)
    if got is PoleError:
        assert former == (PoleError, PoleError)
        return
    assert isinstance(got[0], complex) and isinstance(got[1], complex)
    assert np.array_equal(_bits(got), _bits(former))


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(TRIG_ARGS, min_size=1, max_size=12))
def test_cot_csc_array_equals_former_kernels_bit_for_bit(xs):
    x = np.array(xs)
    got = _kernel_or_pole(cot_csc, x)
    former = _kernel_or_pole(_former_cot, x), _kernel_or_pole(_former_csc, x)
    if got is PoleError:
        assert former == (PoleError, PoleError)
        return
    assert np.array_equal(_bits(got[0]), _bits(former[0]))
    assert np.array_equal(_bits(got[1]), _bits(former[1]))


def test_fiber_rejects_bad_eps():
    with pytest.raises(ValueError):
        FiberParams(0.0, 0.0, 1.0)


def test_speed_contrast():
    g = build_example("ex0")
    f = FiberParams(0.1, 0.0, 1.0)
    assert f.speed(g.edges[0]) == pytest.approx(10.0)  # stiff: a1/eps
    assert f.speed(g.edges[1]) == pytest.approx(1.0)  # soft: a2


def test_trig_guard():
    with pytest.raises(PoleError):
        guard_pole(math.pi + 1e-10)
    with pytest.raises(PoleError):
        cot_csc(2 * math.pi + 1e-9 + 0j)


def test_trig_overflow_safe():
    # large |Im| arguments approach -+i without overflow
    assert cot_csc(1.0 + 100j)[0] == pytest.approx(-1j)
    assert cot_csc(1.0 - 100j)[0] == pytest.approx(1j)
    assert abs(cot_csc(1.0 + 200j)[1]) < 1e-10


def test_m_matrix_oracle_point():
    # ex0, eps = 0.1, z = 1 (k = 1): stiff argument 0.05, soft argument 0.5
    g = build_example("ex0")
    fiber = FiberParams(0.1, 0.0, 1.0)
    m = m_blocks_closed(g, fiber).m_full
    m11 = -10.0 / math.tan(0.05) - 1.0 / math.tan(0.5)
    m12 = 10.0 / math.sin(0.05) + 1.0 / math.sin(0.5)
    assert m[0, 0] == pytest.approx(m11, rel=1e-13)
    assert m[0, 1] == pytest.approx(m12, rel=1e-13)
    assert m11 == pytest.approx(-201.66379327065258)
    assert m12 == pytest.approx(202.1691872882311)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["ex0", "ex1", "ex2"]),
    tau=st.floats(-3.1, 3.1),
    eps=st.sampled_from([0.5, 0.2, 0.1, 0.05]),
    re=st.floats(0.5, 20.0),
    im=st.floats(0.2, 3.0),
)
def test_closed_blocks_match_general(name, tau, eps, re, im):
    g = build_example(name)
    fiber = FiberParams(eps, tau, complex(re, im))
    mset = m_blocks_closed(g, fiber)
    m = m_general(g, fiber)
    assert np.max(np.abs(m - mset.m_full)) / (1 + np.max(np.abs(m))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["ex0", "ex1", "ex2"]),
    tau=st.floats(-3.1, 3.1),
    re=st.floats(0.5, 20.0),
    im=st.floats(0.2, 3.0),
)
def test_additivity_and_symmetry(name, tau, re, im):
    g = build_example(name)
    z = complex(re, im)
    fiber = FiberParams(0.1, tau, z)
    mset = m_blocks_closed(g, fiber)
    stiff, soft = (m_general(g.subgraph(part), fiber) for part in ("stiff", "soft"))
    assert check_additivity(mset, stiff, soft) < 1e-11
    conj_set = m_blocks_closed(g, FiberParams(0.1, tau, np.conj(z)))
    assert mset.symmetry_defect(conj_set) < 1e-11


def test_herglotz_positivity():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        for z in (2 + 1j, 5 + 2j, 10 + 0.7j):
            m = m_blocks_closed(g, FiberParams(0.1, 0.8, z)).m_full
            assert herglotz_min_eig(m) > -1e-10


def test_nonuniform_speeds_ex2():
    g = build_example("ex2", a1=1.2, a2=0.8)
    fiber = FiberParams(0.2, 1.1, 3 + 0.5j)
    mset = m_blocks_closed(g, fiber)
    m = m_general(g, fiber)
    assert np.max(np.abs(m - mset.m_full)) < 1e-12


def test_pole_raises_in_blocks():
    g = build_example("ex0")
    # soft argument k*l2 = pi exactly: z = (pi/0.5)^2 with k real
    z = (math.pi / 0.5) ** 2
    with pytest.raises(PoleError):
        m_blocks_closed(g, FiberParams(0.1, 0.0, z))
