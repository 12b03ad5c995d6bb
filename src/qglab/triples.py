"""Boundary-triple asymptotics: rotated triples, the projection transform,
delta(tau, eps), and the effective boundary matrices.

The z-dependent boundary matrix of the soft-component generalised resolvent
is B(z) = -M_stiff(z).  Conjugating by the unitary X built from the
zero-eigenvalue branch psi of eps*B(0) and then applying the triple swap
    B_tilde = (P B_hat - P_perp)(P_perp B_hat + P)^{-1},   P = diag(1, 0),
produces a boundary matrix with an O(eps^2) limit: diag(-L z / 2, 0) for
ex0/ex2.  For ex1 (a stiff cycle, sigma^2 != 0) a second swap
    B_prime = (P_perp B_tilde - P)(P B_tilde + P_perp)^{-1}
is required; its (1,1) entry is -delta(tau, eps), which converges at
O(eps^2), uniformly in tau, to
    delta_limit = 2 D / [ (a1^2 a3^2/(l1 l3)) (tau/eps)^2 - (l1+l3) D z ],
with D = a1^2/l1 + a3^2/l3.

Every function here takes array fiber parameters (and ``rotation_x`` a tau
array): the matrices are then (..., 2, 2) stacks over the broadcast shape of
the fiber parameters, the 2 x 2 algebra acts on the two trailing axes, and
the scalars (``delta_fn``, ``beff_deviation``, ...) are arrays of that shape.
Scalars are the 0-d case of the same code.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import MetricGraph, PoleError, stiff_length
from .mmatrix import FiberParams, ccot, ccsc, m_stiff_closed, mat2


def b_matrix(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """The z-dependent boundary matrix B(z) = -M_stiff(z)."""
    return -m_stiff_closed(graph, fiber)


def rotation_x(graph: MetricGraph, tau) -> np.ndarray:
    """Unitary X = [[1, 1], [omega, -omega]]/sqrt(2): columns (psi, psi_perp)
    diagonalising eps*B(0), with omega from the cell record; a (..., 2, 2)
    stack over the shape of a tau array."""
    omega = graph.cell.omega(tau)
    return mat2(1.0, 1.0, omega, -omega) / math.sqrt(2.0)


def rotate_triple(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Similarity transform B_hat = X^* B X (X unitary), the stacks ``b`` and
    ``x`` broadcast against each other.  Raises when any X of the stack is
    not unitary."""
    x_adj = x.conj().swapaxes(-1, -2)
    if np.max(np.abs(x_adj @ x - np.eye(2))) > 1e-13:
        raise ValueError("X is not unitary")
    return x_adj @ b @ x


def projection_transform(b: np.ndarray) -> np.ndarray:
    """Boundary matrix of the swapped triple, (P B - P_perp)(P_perp B + P)^{-1}
    with P = diag(1, 0), in closed form:
        [[b00 - b01 b10 / b11, b01 / b11], [b10 / b11, -1 / b11]].
    Raises ArithmeticError where any b11 of the stack is 0 (a singular
    P_perp B + P)."""
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    if (b11 == 0).any():
        raise ArithmeticError("projection transform: singular denominator (b11 = 0)")
    return mat2(b00 - b01 * b10 / b11, b01 / b11, b10 / b11, -1.0 / b11)


def second_swap(b_tilde: np.ndarray) -> np.ndarray:
    """The swap with the roles of P and P_perp exchanged: the same map with
    both indices reversed."""
    return projection_transform(b_tilde[..., ::-1, ::-1])[..., ::-1, ::-1]


def btilde_closed_ex0(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """Closed diagonal form of B_tilde for a single stiff edge (ex0, ex2).

    diag( (a k/eps)(cot - csc)(k eps l/a),
          -(eps/(a k)) / (cot + csc)(k eps l/a) )
    with (l, a) the stiff-edge data.
    """
    stiff = [e for e in graph.edges if e.is_stiff]
    if len(stiff) != 1:
        raise ValueError("closed diagonal form needs a single stiff edge (ex0/ex2)")
    l, a = stiff[0].length, stiff[0].speed_a
    k, eps = fiber.k, fiber.eps
    x = k * eps * l / a
    cot, csc = ccot(x), ccsc(x)
    return mat2((a * k / eps) * (cot - csc), 0.0, 0.0, -(eps / (a * k)) / (cot + csc))


def delta_fn(graph: MetricGraph, fiber: FiberParams) -> complex | np.ndarray:
    """delta(tau, eps) = (B00 + s) / (B00^2 - B10 B01) for a cell with a
    stiff cycle (ex1), read off B = b_matrix = (1/eps)[[alpha, beta12],
    [beta21, alpha]]: s = (u_bar B10 + u B01)/2 with u = xi/|xi| = -omega,
    the bars understood as analytic continuations.  Raises PoleError when
    any |eps^2 (B00^2 - B10 B01)| = |alpha^2 - |beta|^2| is below 1e-12."""
    b = b_matrix(graph, fiber)
    b00, b01, b10 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0]
    u = -graph.cell.omega(fiber.tau)
    s = (np.conj(u) * b10 + u * b01) / 2.0
    denom = b00 * b00 - b10 * b01
    scaled = abs(fiber.eps * fiber.eps * denom)
    if np.any(scaled < 1e-12):
        raise PoleError(
            f"delta: |alpha^2 - |beta|^2| = {np.min(scaled):.2e} below the guard 1e-12"
        )
    return (b00 + s) / denom


def delta_limit(graph: MetricGraph, fiber: FiberParams) -> complex | np.ndarray:
    """The uniform-in-tau limit of delta(tau, eps)."""
    p = graph.params
    l1, l3 = p["l1"], p["l3"]
    a1, a3 = p["a1"], p["a3"]
    d = a1**2 / l1 + a3**2 / l3
    t_sq = (fiber.tau / fiber.eps) ** 2
    return 2.0 * d / ((a1**2 * a3**2 / (l1 * l3)) * t_sq - (l1 + l3) * d * fiber.z)


def b_eff(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """Effective boundary matrix in the swapped-triple coordinates:
    diag((sigma^2 (tau/eps)^2 - L z)/2, 0), i.e. diag(-L z/2, 0) for ex0/ex2
    and diag(1/delta_limit, 0) for ex1."""
    germ_term = graph.cell.germ * (fiber.tau / fiber.eps) ** 2
    return mat2((germ_term - stiff_length(graph) * fiber.z) / 2.0, 0.0, 0.0, 0.0)


def btilde_numeric(graph: MetricGraph, fiber: FiberParams) -> np.ndarray:
    """B_tilde computed along the generic route (rotate, then swap)."""
    return projection_transform(
        rotate_triple(b_matrix(graph, fiber), rotation_x(graph, fiber.tau))
    )


def beff_deviation(graph: MetricGraph, fiber: FiberParams) -> float | np.ndarray:
    """Distance of the swapped boundary matrix from its effective limit, in
    the 2-norm of each matrix of the stack (a float for one fiber point).

    Without a stiff cycle (sigma^2 = 0; ex0/ex2): ||B_tilde - b_eff||.  With
    one (ex1) the comparison is made after the second swap, where the
    boundary matrix is -diag(delta, 0) up to higher order:
    ||B_prime + diag(delta_limit, 0)||.
    """
    bt = btilde_numeric(graph, fiber)
    if not graph.cell.germ:
        diff = bt - b_eff(graph, fiber)
    else:
        diff = second_swap(bt) + mat2(delta_limit(graph, fiber), 0.0, 0.0, 0.0)
    norm = np.linalg.norm(diff, 2, axis=(-2, -1))
    return float(norm) if norm.ndim == 0 else norm
