"""Weyl M-matrices (vertex Dirichlet-to-Neumann maps) of the fiber operators.

For a fiber parameter (eps, tau, z) the operator acts edgewise as
-(c_e)^2 (d/dx + i tau)^2 with c_e = a_e/eps on stiff edges and c_e = a_e on
soft edges.  The M-matrix maps the common weighted vertex values to the sums
of weighted co-derivatives; its entries are built from cot/csc of the
arguments k l_e / c_e with k = sqrt(z), Im k >= 0.

Two independent code paths are provided: ``m_general`` (the generic N x N
formula, any loop-free graph) and ``m_blocks_closed`` (the literal 2 x 2
stiff/soft block formulas of the three examples).  ``check_additivity``
compares each closed block with the generic matrix of its own component;
the closed full matrix is the sum of the blocks, so comparing it with
their sum could not fail.

The fiber parameters may be arrays: they broadcast against each other, and
every matrix here is then a stack of shape (..., N, N) over their broadcast
shape.  Scalars are the 0-d case of the same code, giving one N x N matrix.
The certificates (``check_additivity``, ``MMatrixSet.symmetry_defect``,
``herglotz_min_eig``) reduce over the two trailing axes only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeSpec, MetricGraph, PoleError, datta_weights, phase

POLE_GUARD = 1e-8


@dataclass(frozen=True)
class FiberParams:
    """Fiber parameters: contrast eps, quasimomentum tau, spectral point z.

    Each is a scalar or an ndarray; arrays broadcast against each other.
    """

    eps: float
    tau: float
    z: complex

    def __post_init__(self):
        # fibers are built per point by the resolvent layers: a scalar eps
        # skips the ndarray round trip
        eps = self.eps
        if (eps <= 0).any() if isinstance(eps, np.ndarray) else eps <= 0:
            raise ValueError("eps must be positive")

    @property
    def k(self) -> complex:
        """sqrt(z) on the branch with Im k >= 0 (k = +sqrt(z) for z > 0)."""
        return sqrt_upper(self.z)

    def speed(self, edge: EdgeSpec) -> float:
        """Rescaled propagation speed c_e: a_e/eps (stiff) or a_e (soft)."""
        return edge.speed_a / self.eps if edge.is_stiff else edge.speed_a


def sqrt_upper(z):
    """sqrt(z) on the branch with Im k >= 0 (k = +sqrt(z) for z > 0).

    A scalar gives a complex; an ndarray gives the elementwise complex array.
    """
    if isinstance(z, np.ndarray):
        k = np.sqrt(z.astype(complex))
        return np.where(k.imag < 0, -k, k)
    k = cmath.sqrt(z)
    return -k if k.imag < 0 else k


def guard_pole(x):
    """Raise PoleError when x (a scalar, or any element of an ndarray) is
    within POLE_GUARD of a pole of cot/csc."""
    if isinstance(x, np.ndarray):
        dist = np.abs(x - math.pi * np.round(x.real / math.pi))
        if np.any(dist < POLE_GUARD):
            _guard_scalar(x.flat[int(np.argmin(dist))])
        return x
    return _guard_scalar(x)


def _guard_scalar(x: complex) -> complex:
    nearest = math.pi * round(x.real / math.pi)
    if abs(x - nearest) < POLE_GUARD:
        raise PoleError(f"trig argument {x} within {POLE_GUARD} of {nearest}")
    return x


def cot_csc(x):
    """(cot x, csc x) for complex x, overflow-safe for large |Im x|.

    x may be a scalar (returns two complexes) or an ndarray (returns two
    elementwise complex arrays).  PoleError is raised when x, or any element
    of it, lies within POLE_GUARD of a pole k*pi.  One guard, one |Im x|
    split and one sin serve both: cot = cos/sin and csc = 1/sin for
    |Im x| <= 50, and beyond that the forms in q = exp(+-2ix), which neither
    overflow nor warn.
    """
    if isinstance(x, np.ndarray):
        x = guard_pole(x).astype(complex)
        up, down = x.imag > 50.0, x.imag < -50.0
        mid = ~(up | down)
        cot, csc = np.empty_like(x), np.empty_like(x)
        xm = x[mid]
        sin = np.sin(xm)
        cot[mid] = np.cos(xm) / sin
        csc[mid] = 1.0 / sin
        xu, xd = x[up], x[down]
        q = np.exp(2j * xu)
        cot[up] = 1j * (q + 1.0) / (q - 1.0)
        csc[up] = 2j * np.exp(1j * xu) / (q - 1.0)
        q = np.exp(-2j * xd)
        cot[down] = 1j * (1.0 + q) / (1.0 - q)
        csc[down] = 2j * np.exp(-1j * xd) / (1.0 - q)
        return cot, csc
    _guard_scalar(x)
    if x.imag > 50.0:
        q = cmath.exp(2j * x)  # |q| << 1
        return 1j * (q + 1.0) / (q - 1.0), 2j * cmath.exp(1j * x) / (q - 1.0)
    if x.imag < -50.0:
        q = cmath.exp(-2j * x)
        return 1j * (1.0 + q) / (1.0 - q), 2j * cmath.exp(-1j * x) / (1.0 - q)
    sin = cmath.sin(x)
    return cmath.cos(x) / sin, 1.0 / sin


def m_general(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """The N x N M-matrix from the generic vertex formula, with the Datta
    weights w = ``datta_weights(graph, fiber.tau)``.

    Diagonal (j, j): -k * sum over incident edges of c_e cot(k l_e / c_e).
    Off-diagonal (j, m): sum over shared edges of
        conj(w_{Vm}(e)) w_{Vj}(e) e^{i sgn_m(e) l_e tau} k c_e csc(k l_e/c_e),
    where sgn_m(e) is -1 when V_m sits at coordinate 0 of e and +1 when it
    sits at coordinate l_e.  Entries are 0 for vertex pairs sharing no edge.
    With array fiber parameters (a tau array gives array weights) the result
    is the (..., N, N) stack over their broadcast shape.
    """
    weights = datta_weights(graph, fiber.tau)
    verts = list(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    k = fiber.k
    shape = np.broadcast(fiber.eps, fiber.tau, fiber.z).shape
    m = np.zeros(shape + (n, n), dtype=complex)
    for e in graph.edges:
        c = fiber.speed(e)
        arg = k * e.length / c
        cot, csc = cot_csc(arg)
        jl, jr = idx[e.left], idx[e.right]
        m[..., jl, jl] += -k * c * cot
        m[..., jr, jr] += -k * c * cot
        for vj, vm, sgn_m in ((e.left, e.right, +1), (e.right, e.left, -1)):
            j, mm = idx[vj], idx[vm]
            wj = weights[(vj, e.id)]
            wm = weights[(vm, e.id)]
            m[..., j, mm] += (
                np.conj(wm)
                * wj
                * phase(sgn_m * e.length, fiber.tau)
                * k
                * c
                * csc
            )
    return m


def mat2(a, b, c, d) -> np.ndarray:
    """The complex (..., 2, 2) stack [[a, b], [c, d]] of broadcast entries."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = a, b
    out[..., 1, 0], out[..., 1, 1] = c, d
    return out


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the two trailing axes."""
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class MMatrixSet:
    """Full M-matrix and its stiff/soft blocks at ``fiber``: (..., 2, 2)
    stacks over the broadcast shape of its parameters."""

    m_full: np.ndarray
    m_stiff: np.ndarray
    m_soft: np.ndarray
    fiber: FiberParams

    def symmetry_defect(self, other: "MMatrixSet") -> float | np.ndarray:
        """``deviation`` of M(conj z) from M(z)^* over the three blocks, per
        fiber point (a float for one point, an array over the stack shape).

        ``other`` must be the set evaluated at the conjugate spectral point.
        """
        return np.max(
            [
                deviation(a_conj, _adjoint(a))
                for a, a_conj in (
                    (self.m_full, other.m_full),
                    (self.m_stiff, other.m_stiff),
                    (self.m_soft, other.m_soft),
                )
            ],
            axis=0,
        )


def _block(scale, diag, upper, lower) -> np.ndarray:
    """scale * [[diag, upper], [lower, diag]] as a (..., 2, 2) stack."""
    return np.asarray(scale)[..., None, None] * mat2(diag, upper, lower, diag)


def _soft_edge_block(l, a, k, tau) -> np.ndarray:
    """The block k a [[-cot, csc e^{i l tau}], [csc e^{-i l tau}, -cot]] of
    argument k l / a: a single soft edge V1 -> V2 (ex0, ex1)."""
    y = k * l / a
    cot, csc = cot_csc(y)
    ph = phase(l, tau)
    return _block(k, -a * cot, a * csc * ph, a * csc / ph)


def m_stiff_closed(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """Literal closed-form stiff M-matrix block of the three examples, the
    (..., 2, 2) stack over the broadcast shape of the fiber parameters.

    It evaluates only stiff-edge trig, so it has no pole at a soft
    Dirichlet level; ``m_blocks_closed`` adds the soft block to it.
    """
    if graph.example not in ("ex0", "ex1", "ex2"):
        raise ValueError("closed-form blocks exist for the three examples only")
    p = graph.params
    k, eps, tau = fiber.k, fiber.eps, fiber.tau
    if graph.example == "ex0":
        l1, a1 = p["l1"], p["a1"]
        x1 = k * eps * l1 / a1
        cot, csc = cot_csc(x1)
        ph = phase(l1, tau)
        return _block(k / eps, -a1 * cot, a1 * csc / ph, a1 * csc * ph)
    if graph.example == "ex1":
        l1, l2, l3 = p["l1"], p["l2"], p["l3"]
        a1, a3 = p["a1"], p["a3"]
        x1 = k * eps * l1 / a1
        x3 = k * eps * l3 / a3
        cot1, csc1 = cot_csc(x1)
        cot3, csc3 = cot_csc(x3)
        off = a1 * phase(-(l1 + l3), tau) * csc1 + a3 * phase(l2, tau) * csc3
        off_c = a1 * phase(l1 + l3, tau) * csc1 + a3 * phase(-l2, tau) * csc3
        return _block(k / eps, -a1 * cot1 - a3 * cot3, off, off_c)
    l2, l3, a3 = p["l2"], p["l3"], p["a3"]
    x3 = k * eps * l3 / a3
    cot3, csc3 = cot_csc(x3)
    return _block(
        k / eps, -a3 * cot3, a3 * phase(l2, tau) * csc3, a3 * phase(-l2, tau) * csc3
    )


def m_blocks_closed(graph: MetricGraph, fiber: FiberParams) -> MMatrixSet:
    """Literal closed-form stiff/soft M-matrix blocks of the three examples.

    The vertex ordering is (V1, V2).  The full matrix is the blockwise sum.
    Each block is the (..., 2, 2) stack over the broadcast shape of the
    fiber parameters.
    """
    m_stiff = m_stiff_closed(graph, fiber)
    p = graph.params
    k, tau = fiber.k, fiber.tau
    if graph.example == "ex2":
        l1, l2, l3 = p["l1"], p["l2"], p["l3"]
        a1, a2 = p["a1"], p["a2"]
        y1 = k * l1 / a1
        y2 = k * l2 / a2
        cot1, csc1 = cot_csc(y1)
        cot2, csc2 = cot_csc(y2)
        off = a1 * phase(-(l1 + l3), tau) * csc1 + a2 * phase(l2, tau) * csc2
        off_c = a1 * phase(l1 + l3, tau) * csc1 + a2 * phase(-l2, tau) * csc2
        m_soft = _block(k, -a1 * cot1 - a2 * cot2, off, off_c)
    else:  # a single soft edge (ex0, ex1)
        m_soft = _soft_edge_block(p["l2"], p["a2"], k, tau)
    return MMatrixSet(
        m_full=m_stiff + m_soft, m_stiff=m_stiff, m_soft=m_soft, fiber=fiber
    )


def deviation(m: np.ndarray, ref: np.ndarray) -> float | np.ndarray:
    """max relative entrywise |m - ref| / (1 + |ref|), per matrix of the
    stack: the rounding of each entry, whose size grows as (a/eps)^2 on a
    stiff edge."""
    return np.max(np.abs(m - ref) / (1.0 + np.abs(ref)), axis=(-2, -1))


def check_additivity(
    mset: MMatrixSet, m_stiff: np.ndarray, m_soft: np.ndarray
) -> float | np.ndarray:
    """The larger ``deviation`` of the generic M-matrices ``m_stiff`` and
    ``m_soft`` of the two components (``m_general`` of ``graph.subgraph``)
    from the closed stiff and soft blocks of ``mset``, per fiber point."""
    return np.maximum(deviation(m_stiff, mset.m_stiff), deviation(m_soft, mset.m_soft))


def herglotz_min_eig(m: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of the imaginary part (M - M^*)/(2i), per matrix
    of the stack (one stacked ``eigvalsh``)."""
    im_part = (m - _adjoint(m)) / 2j
    return np.min(np.linalg.eigvalsh(im_part), axis=-1)
