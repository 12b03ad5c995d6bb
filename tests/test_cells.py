"""The per-cell record and the closed forms built on it, away from the defaults.

At the default cells a2 = 1 everywhere (and a1 = a2 = 1 in ex2), so a dropped
or swapped soft speed leaves the default-cell tests blind.  Here lengths
summing to 1 and speeds in [0.5, 3] are drawn, with Im z >= 0.5 (clear of the
real-axis poles) and |tau| <= 3 (clear of the ex1 equal-impedance set
tau = -pi).
"""

import ast
import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qglab
from qglab.dispersion import k_closed, k_series, schur_frobenius
from qglab.graphs import build_example, datta_weights, stiff_length
from qglab.mmatrix import FiberParams, m_blocks_closed, m_general
from qglab.realline import difference_symbol, make_line_grid, multiplier_symbol
from qglab.triples import b_matrix, btilde_closed_ex0, btilde_numeric

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


@settings(max_examples=30, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_schur_complement_inverts_dispersion(g, tau, z, eps):
    s = schur_frobenius(g, tau, z, eps, resolution=64)
    assert abs(s * (k_closed(g, tau, z, eps=eps) - z) - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(g=cells(), tau=TAU, z=Z, eps=EPS)
def test_closed_blocks_match_general(g, tau, z, eps):
    fiber = FiberParams(eps, tau, z)
    m = m_general(g, datta_weights(g, tau), fiber)
    closed = m_blocks_closed(g, fiber).m_full
    assert np.max(np.abs(m - closed)) <= 1e-12 * (1.0 + np.max(np.abs(m)))


@settings(max_examples=30, deadline=None)
@given(g=cells(("ex0", "ex2")), tau=TAU, z=Z, eps=EPS)
def test_btilde_closed_matches_numeric(g, tau, z, eps):
    fiber = FiberParams(eps, tau, z)
    dev = np.max(np.abs(btilde_numeric(g, fiber) - btilde_closed_ex0(g, fiber)))
    assert dev <= 1e-12 * (1.0 + np.max(np.abs(b_matrix(g, fiber))))


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
    found = []
    for path in sorted(pathlib.Path(qglab.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        tree = ast.parse(path.read_text())
        if path.name == "mmatrix.py":
            tree.body = [
                node for node in tree.body
                if getattr(node, "name", None) != "m_blocks_closed"
            ]
        found += [f"{path.name}:{line}" for line in _literal_example_compares(tree)]
    assert found == []
