"""Metric graphs, the three worked examples, and the tau-dependent vertex weights.

The graph period cell is rescaled so that the total edge length is 1.  Each
edge is identified with the interval [0, l_e]; ``left``/``right`` name the
vertices sitting at coordinates 0 and l_e respectively.  Edges carry a
constant propagation speed ``speed_a`` and a stiffness flag: on stiff edges
the epsilon-rescaled coefficient is (a_e/eps)^2, on soft edges it is a_e^2.

Vertex conditions are weighted Kirchhoff (Datta-Das Sarma) conditions: at
each vertex V the weighted traces w_V(e) * u_e(V) share a common value and
the weighted co-derivatives sum to zero.  All weights are unimodular.

``build_example`` names the worked examples (elsewhere only the literal
blocks of ``mmatrix.m_blocks_closed`` do): it attaches to each graph a
``Cell`` record holding what the closed forms of the other modules read
(soft chain and loop edges, effective mass, stiff zero-energy vector,
boundary coupling).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np


STIFF = "stiff"
SOFT = "soft"

_LENGTH_TOL = 1e-12
XI_FLOOR = 1e-10


class ParameterError(ValueError):
    """Invalid graph or example parameters."""


class PoleError(ArithmeticError):
    """A closed form is evaluated too close to one of its poles: a trig
    argument near a pole of cot/csc, or a degenerate boundary vector."""


@dataclass(frozen=True)
class EdgeSpec:
    """One metric edge: interval [0, length] with constant speed."""

    id: int
    length: float
    speed_a: float
    stiffness: str  # STIFF or SOFT
    left: int
    right: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError(f"edge {self.id}: length must be positive")
        if self.speed_a <= 0:
            raise ParameterError(f"edge {self.id}: speed must be positive")
        if self.stiffness not in (STIFF, SOFT):
            raise ParameterError(f"edge {self.id}: bad stiffness tag")
        if self.left == self.right:
            raise ParameterError(
                f"edge {self.id}: loops are not supported; split the loop "
                "with a degree-2 vertex first"
            )

    @property
    def is_stiff(self) -> bool:
        return self.stiffness == STIFF


@dataclass(frozen=True)
class Cell:
    """What the closed forms know about one worked cell, built once per graph.

    Each cell is a stiff part of length L (``stiff_length``) with zero-energy
    boundary vector psi = (1, omega)/sqrt(2), plus soft edges whose Dirichlet
    data enter the dispersion function (see ``dispersion.k_closed``).

    defaults: the accepted ``build_example`` keys and their default values.
    phases: (vertex, edge id) -> l; the Datta weight there is e^{i tau l}.
        The weights also tie the soft edge ends at each vertex, so the
        effective boundary system needs no further tie.
    chain: the soft edge joining V1 to V2; its ends couple through coupling.
    loop: the soft edge whose two ends the stiff part ties together, or None.
    germ: sigma^2, the effective mass of a stiff cycle (0 without one).
    omega(tau): X = [[1, 1], [omega, -omega]]/sqrt(2) diagonalises eps B(0).
    coupling(tau): cos tau, or Re theta(tau) for a stiff cycle; computed
        apart from omega, so the Schur check compares two routes.
    """

    defaults: dict
    phases: dict
    chain: EdgeSpec
    loop: EdgeSpec | None
    germ: float
    omega: Callable
    coupling: Callable


@dataclass(frozen=True)
class MetricGraph:
    """A metric graph of total length 1 with a stiff/soft edge partition."""

    edges: tuple[EdgeSpec, ...]
    vertices: tuple[int, ...]
    example: str | None = None  # "ex0" / "ex1" / "ex2" when built from one
    params: dict = field(default_factory=dict)
    _cell: Cell | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = sum(e.length for e in self.edges)
        if abs(total - 1.0) > _LENGTH_TOL:
            raise ParameterError(
                f"edge lengths must sum to 1 (got {total!r})"
            )
        vset = set(self.vertices)
        for e in self.edges:
            if e.left not in vset or e.right not in vset:
                raise ParameterError(f"edge {e.id}: unknown endpoint vertex")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate edge ids")

    @property
    def cell(self) -> Cell:
        """The worked-cell record (graphs from ``build_example`` only)."""
        if self._cell is None:
            raise ValueError("closed forms exist for the three worked cells only")
        return self._cell

    def subgraph(self, part: str) -> "MetricGraph":
        """Stiff or soft component, keeping lengths/ids/weights untouched.

        The component is returned as a plain edge collection (its total
        length is below 1), so the length invariant is not re-imposed.
        """
        if part == "full":
            return self
        want_stiff = {"stiff": True, "soft": False}[part]
        edges = tuple(e for e in self.edges if e.is_stiff == want_stiff)
        verts = tuple(sorted({v for e in edges for v in (e.left, e.right)}))
        g = object.__new__(MetricGraph)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "vertices", verts)
        object.__setattr__(g, "example", self.example)
        object.__setattr__(g, "params", self.params)
        object.__setattr__(g, "_cell", self._cell)
        return g


def stiff_length(graph: MetricGraph) -> float:
    """Total length L of the stiff component (the multiplier prefactor)."""
    return sum(e.length for e in graph.edges if e.is_stiff)


# Default parameters (the accepted keys) and stiff edge ids of each cell.
# The soft speed a2 is fixed at 1 where it is not a key.
_LAYOUTS = {
    "ex0": (dict(l1=0.5, l2=0.5, a1=1.0), (1,)),
    "ex1": (dict(l1=0.3, l2=0.4, l3=0.3, a1=1.0, a3=2.0), (1, 3)),
    "ex2": (dict(l1=0.3, l2=0.4, l3=0.3, a1=1.0, a2=1.0, a3=2.0), (3,)),
}
EXAMPLES = tuple(_LAYOUTS)
# (left, right) vertices of e1, e2, e3; see build_example.
_ENDS = {1: (2, 1), 2: (1, 2), 3: (2, 1)}


def build_example(example: str, **params) -> MetricGraph:
    """Construct one of the three worked period-cell graphs.

    ex0: two edges between vertices 1, 2 -- e1 stiff (speed a1), e2 soft
         (speed a2 = 1).  Parameters: l1, l2, a1.
    ex1: three edges -- e1, e3 stiff (speeds a1, a3), e2 soft (a2 = 1).
         Parameters: l1, l2, l3, a1, a3.
    ex2: three edges -- e3 stiff (speed a3), e1, e2 soft (speeds a1, a2).
         Parameters: l1, l2, l3, a1, a2, a3.

    Any other key raises ParameterError.  Orientation convention (fixing
    which endpoint is coordinate 0): e1: 2 -> 1, e2: 1 -> 2, e3: 2 -> 1.
    """
    example = example.lower()
    if example not in _LAYOUTS:
        raise ParameterError(
            f"unknown example {example!r}; known: {', '.join(EXAMPLES)}"
        )
    defaults, stiff_ids = _LAYOUTS[example]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(
            f"{example} does not take {', '.join(unknown)}; "
            f"accepted keys: {', '.join(defaults)}"
        )
    p = dict(defaults, **params)
    p.setdefault("a2", 1.0)
    ids = [i for i in _ENDS if f"l{i}" in defaults]
    edges = tuple(
        EdgeSpec(
            i, p[f"l{i}"], p[f"a{i}"], STIFF if i in stiff_ids else SOFT, *_ENDS[i]
        )
        for i in ids
    )
    graph = MetricGraph(edges=edges, vertices=(1, 2), example=example, params=p)
    object.__setattr__(graph, "_cell", _make_cell(graph, defaults))
    return graph


def _make_cell(graph: MetricGraph, defaults: dict) -> Cell:
    """The record of a freshly built example graph."""
    p = graph.params
    e1, e2 = graph.edges[:2]
    if graph.example == "ex0":
        return Cell(
            defaults, {}, chain=e2, loop=None, germ=0.0,
            omega=partial(phase, p["l1"]), coupling=_cos,
        )
    phases = {(1, 3): p["l2"] + p["l3"], (2, 1): p["l3"]}
    if graph.example == "ex1":
        sigma_sq = 1.0 / (p["l1"] / p["a1"] ** 2 + p["l3"] / p["a3"] ** 2)
        return Cell(
            defaults, phases, chain=e2, loop=None, germ=sigma_sq,
            omega=partial(_omega_ex1, graph), coupling=partial(_re_theta_ex1, graph),
        )
    return Cell(
        defaults, phases, chain=e1, loop=e2, germ=0.0,
        omega=partial(phase, -p["l2"]), coupling=_cos,
    )


def phase(length: float, tau):
    """e^{i tau length}: a complex for a real scalar tau, the elementwise
    complex array for an ndarray."""
    if isinstance(tau, np.ndarray):
        return np.exp(1j * tau * length)
    return cmath.exp(1j * tau * length)


def _cos(tau):
    """cos tau for a real scalar or an ndarray."""
    return np.cos(tau) if isinstance(tau, np.ndarray) else math.cos(tau)


def xi_ex1(graph: MetricGraph, tau):
    """The ex1 kernel scalar xi(tau) of the stiff boundary matrix (the
    elementwise array for an ndarray tau)."""
    p = graph.params
    return -(p["a1"] ** 2 / p["l1"]) * phase(p["l1"] + p["l3"], tau) - (
        p["a3"] ** 2 / p["l3"]
    ) * phase(-p["l2"], tau)


def _unit(value, tau):
    """value / |value|; PoleError at the tau of the smallest |value| < XI_FLOOR."""
    size = abs(value)
    if np.any(size < XI_FLOOR):
        i = np.argmin(size)
        at = np.ravel(np.broadcast_to(tau, np.shape(size)))[i]
        raise PoleError(
            f"|xi(tau)| = {np.ravel(size)[i]:.2e} below floor at tau = {at}; tau in the "
            "equal-impedance exclusion band"
        )
    return value / size


def _omega_ex1(graph: MetricGraph, tau):
    return -_unit(xi_ex1(graph, tau), tau)


def _re_theta_ex1(graph: MetricGraph, tau):
    """Re theta(tau), theta the unit phase of a1^2/l1 e^{-i tau} + a3^2/l3."""
    p = graph.params
    num = (p["a1"] ** 2 / p["l1"]) * phase(-1.0, tau) + p["a3"] ** 2 / p["l3"]
    return _unit(num, tau).real


def datta_weights(graph: MetricGraph, tau: float) -> dict[tuple[int, int], complex]:
    """Unimodular vertex weights w_V(e), keyed by (vertex, edge id).

    ``tau`` (a scalar, or an ndarray giving array weights) must lie in the
    closed interval [-pi, pi]; anything else raises ``ParameterError``.
    w_V(e) = e^{i tau l} where the cell's phase table maps (V, e) to l, and
    1 elsewhere: all weights are 1 for ex0 (and for graphs without a cell);
    for ex1/ex2 the weights at vertex 1 are {1, 1, e^{i tau (l2+l3)}} on
    edges (e1, e2, e3) and at vertex 2 {e^{i tau l3}, 1, 1}.
    """
    if not np.all((-math.pi <= tau) & (tau <= math.pi)):
        raise ParameterError(f"tau must lie in [-pi, pi], got {tau!r}")
    phases = graph._cell.phases if graph._cell is not None else {}
    w: dict[tuple[int, int], complex] = {}
    for e in graph.edges:
        for v in (e.left, e.right):
            length = phases.get((v, e.id))
            w[(v, e.id)] = 1.0 + 0.0j if length is None else phase(length, tau)
    return w
