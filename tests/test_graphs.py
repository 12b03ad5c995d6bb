import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglab.graphs import (
    EdgeSpec,
    MetricGraph,
    ParameterError,
    build_example,
    datta_weights,
)


def _edge_ids(g, part):
    return tuple(e.id for e in g.subgraph(part).edges)


def test_ex0_defaults():
    g = build_example("ex0")
    assert g.example == "ex0"
    assert len(g.edges) == 2
    assert math.isclose(sum(e.length for e in g.edges), 1.0)
    assert _edge_ids(g, "stiff") == (1,)
    assert _edge_ids(g, "soft") == (2,)


def test_ex1_defaults():
    g = build_example("ex1")
    assert _edge_ids(g, "stiff") == (1, 3)
    assert _edge_ids(g, "soft") == (2,)
    assert g.params["a3"] == 2.0


def test_ex2_defaults():
    g = build_example("ex2")
    assert _edge_ids(g, "stiff") == (3,)
    assert _edge_ids(g, "soft") == (1, 2)


def test_total_length_enforced():
    with pytest.raises(ParameterError):
        build_example("ex0", l1=0.5, l2=0.6)


def test_positive_lengths_enforced():
    with pytest.raises((ParameterError, ValueError)):
        build_example("ex1", l1=-0.1, l2=0.7, l3=0.4)


def test_unknown_example():
    with pytest.raises(ValueError):
        build_example("ex9")


def test_subgraph_partition():
    g = build_example("ex1")
    soft = g.subgraph("soft")
    stiff = g.subgraph("stiff")
    assert {e.id for e in soft.edges} == {2}
    assert {e.id for e in stiff.edges} == {1, 3}


def test_loops_rejected():
    with pytest.raises(ValueError):
        EdgeSpec(id=1, length=1.0, speed_a=1.0, stiffness="soft", left=1, right=1)


@settings(max_examples=25, deadline=None)
@given(
    tau=st.floats(-math.pi, math.pi, allow_nan=False),
    name=st.sampled_from(["ex0", "ex1", "ex2"]),
)
def test_weights_unimodular(tau, name):
    g = build_example(name)
    for value in datta_weights(g, tau).values():
        assert abs(abs(value) - 1.0) < 1e-14


@pytest.mark.parametrize("tau", [-math.pi, math.pi])
def test_weights_accept_closed_tau_interval(tau):
    for name in ("ex0", "ex1", "ex2"):
        assert len(datta_weights(build_example(name), tau)) > 0


@pytest.mark.parametrize("tau", [math.pi + 1e-9, -math.pi - 1e-9])
def test_weights_reject_tau_outside_closed_interval(tau):
    with pytest.raises(ParameterError, match=r"\[-pi, pi\]"):
        datta_weights(build_example("ex1"), tau)


def test_weights_cover_all_incidences():
    for name in ("ex0", "ex1", "ex2"):
        g = build_example(name)
        w = datta_weights(g, 0.7)
        for e in g.edges:
            assert (e.left, e.id) in w
            assert (e.right, e.id) in w


def test_ex1_weight_phases():
    g = build_example("ex1")
    tau = 0.9
    w = datta_weights(g, tau)
    p = g.params
    assert w[(1, 3)] == pytest.approx(
        complex(math.cos(tau * (p["l2"] + p["l3"])), math.sin(tau * (p["l2"] + p["l3"])))
    )
    assert w[(2, 1)] == pytest.approx(
        complex(math.cos(tau * p["l3"]), math.sin(tau * p["l3"]))
    )


@pytest.mark.parametrize(
    "name, key",
    [("ex0", "a2"), ("ex0", "l3"), ("ex0", "a_1"), ("ex1", "a2"), ("ex2", "eps")],
)
def test_unknown_keys_rejected(name, key):
    accepted = build_example(name).cell.defaults
    with pytest.raises(ParameterError) as info:
        build_example(name, **{key: 0.25})
    message = str(info.value)
    assert key in message
    assert all(k in message for k in accepted)


def test_custom_parameters():
    g = build_example("ex2", l1=0.2, l2=0.5, l3=0.3, a1=1.2, a2=0.8, a3=2.5)
    assert g.params["a2"] == 0.8
    assert isinstance(g, MetricGraph)
