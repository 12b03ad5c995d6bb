"""Experiment harness: parameter sweeps, operator-norm estimation, slope
fits, and the eleven tagged experiments behind the acceptance checks.

Every experiment is deterministic given its configuration (fixed seeds,
ordered accumulation) and returns an ``ExperimentResult`` with per-point
rows (CSV-ready), its ``Check`` records (each figure with its bound) and
its FAIL lines; it passes iff every check is ok and there is no FAIL line.
"""

from __future__ import annotations

import csv
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import dispersion, realline, triples
from .effective import EffectiveModel, PsiEmbedding
from .fdsolver import MIN_RESOLUTION, DiscretizedOperator, FemLayout
from .graphs import EXAMPLES, ParameterError, build_example
from .krein import KernelOperator, ResolventWorkspace
from .mmatrix import (
    FiberParams,
    check_additivity,
    deviation,
    herglotz_min_eig,
    m_blocks_closed,
    m_general,
)

DEFAULT_Z = (2 + 1j, 5 + 2j, 10 + 0.7j)
DEFAULT_EPS = tuple(2.0**-j for j in range(3, 9))
DEFAULT_EXAMPLES = ("ex0", "ex1", "ex2")
DEFAULT_TAUS = (-(math.pi - 1e-3), -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, math.pi - 1e-3)

# the tolerances the README states for each certificate
ADDITIVITY_TOL, SYMMETRY_TOL, HERGLOTZ_FLOOR = 1e-11, 1e-12, -1e-10
BTILDE_TOL = 1e-12
SERIES_REL_TOL = 1e-3
SUM_TOL = 2e-6
SCHUR_TOL = 1e-9
SYMBOL_TOL = 1e-10


def tau_grid(count: int = 17) -> np.ndarray:
    """Quasimomentum grid from -(pi - 1e-3) to pi - 1e-3, exactly antisymmetric.

    The points above the middle are those of ``np.linspace``; the lower half
    is their negated mirror and the middle of an odd count is 0, so
    ``grid == -grid[::-1]`` bit for bit.  Count 1 gives [-(pi - 1e-3)].
    """
    grid = np.linspace(-(math.pi - 1e-3), math.pi - 1e-3, count)
    if count > 1:
        half = count // 2
        grid[:half] = -grid[:count - half - 1:-1]
        grid[half:count - half] = 0.0
    return grid


# ---------------------------------------------------------------------------
# numeric utilities


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(err) against log(eps)."""

    slope: float
    intercept: float
    r_squared: float


MIN_FIT_POINTS = 4


def _fit(eps_values, errors):
    """Least-squares fits of log(err) ~ slope log(eps) + intercept, one per
    row of ``errors`` (last axis over ``eps_values``), all in one centred
    solve: (slopes, intercepts, xc, yc), xc and yc the centred logs.  A row
    holding a NaN gets a NaN slope."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_values.size < MIN_FIT_POINTS:
        raise ValueError(f"slope fit needs at least {MIN_FIT_POINTS} points")
    if np.any(eps_values <= 0) or np.any(errors <= 0):
        raise ValueError("slope fit needs positive values")
    lx, ly = np.log(eps_values), np.log(errors)
    xc, yc = lx - lx.mean(), ly - ly.mean(axis=-1, keepdims=True)
    slope = (yc * xc).sum(axis=-1) / (xc * xc).sum()
    return slope, ly.mean(axis=-1) - slope * lx.mean(), xc, yc


def fit_slope(eps_values, errors) -> SlopeFit:
    """Fit err ~ C eps^slope on >= MIN_FIT_POINTS positive pairs: the
    one-row case of the array fit."""
    slope, intercept, xc, yc = _fit(eps_values, errors)
    ss_tot = float(np.sum(yc**2))
    ss_res = float(np.sum((yc - slope * xc) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return SlopeFit(float(slope), float(intercept), r_sq)


def _applies(op):
    """(matvec, rmatvec) of a matrix, or of an operator that has both (a
    ``KernelOperator``, the FEM resolvent); rmatvec(y) is D^H y."""
    if isinstance(op, np.ndarray):
        op = np.asarray(op, dtype=complex)
        return (lambda x: op @ x), (lambda y: np.conj(op.T @ np.conj(y)))
    return op.matvec, op.rmatvec


# the power iteration's relative tolerance on successive singular values
NORM_TOL = 1e-8


def start_vector(n: int) -> np.ndarray:
    """The power iteration's deterministic unit start vector in C^n, drawn
    from seed 0; read-only, so one draw can serve many iterations."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def operator_norm_diff(
    a, b, w: np.ndarray, *, start: np.ndarray | None = None, max_iter: int = 500
) -> float:
    """Largest singular value of the quadrature-weighted difference a - b.

    The operators act on an L2 space discretised with trapezoid weights w,
    so the relevant norm is that of W^{1/2} (a - b) W^{-1/2}.  Power
    iteration on its normal matrix, relative tolerance ``NORM_TOL``, at
    most ``max_iter`` iterations, from ``start`` or else from
    ``start_vector(a.shape[1])``, the same vector.  The weights are
    applied to the iterates, not to a scaled copy of D = a - b: with
    s = sqrt(w), one step is v -> D^H (w D (v / s)) / s.  Each side is
    a matrix or anything with ``shape``, ``matvec`` and ``rmatvec`` (a
    ``KernelOperator``, the FEM resolvent); two matrices or two
    ``KernelOperator``s are subtracted once (the latter dropping the
    Dirichlet blocks they share), otherwise each step applies both sides.
    Whatever an apply raises propagates.  Raises ``ArithmeticError`` if the
    relative step is still above ``NORM_TOL`` after ``max_iter`` iterations,
    because an unconverged power iteration under-estimates the norm.
    """
    if b is not None and b.shape != a.shape:
        raise ValueError("non-conformable operator blocks")
    if any(isinstance(a, kind) and isinstance(b, kind) for kind in (np.ndarray, KernelOperator)):
        a, b = a - b, None
    if b is None:
        apply, apply_h = _applies(a)
    else:
        (apply_a, apply_ha), (apply_b, apply_hb) = _applies(a), _applies(b)

        def apply(x):
            return apply_a(x) - apply_b(x)

        def apply_h(y):
            return apply_ha(y) - apply_hb(y)

    w = np.asarray(w, dtype=float)
    s = np.sqrt(w)
    v = start_vector(a.shape[1]) if start is None else start
    sigma, step = 0.0, math.inf
    for _ in range(max_iter):
        u = apply_h(w * apply(v / s)) / s
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return 0.0
        v = u / nrm
        new_sigma = math.sqrt(nrm)
        if abs(new_sigma - sigma) <= NORM_TOL * max(new_sigma, 1e-300):
            return new_sigma
        step = abs(new_sigma - sigma) / new_sigma
        sigma = new_sigma
    raise ArithmeticError(
        f"operator_norm_diff: power iteration not converged after max_iter="
        f"{max_iter} steps (last relative step {step:.3e}, tol {NORM_TOL:.1e})"
    )


# ---------------------------------------------------------------------------
# experiment plumbing


@dataclass(frozen=True)
class Check:
    """One certified figure and its bound: ``ok`` iff lo <= value <= hi.

    ``value`` is a number or an array (such as the per-tau slopes of one
    cell), and every element must lie in [lo, hi].  A NaN compares false,
    so it is never ok, and an empty array certifies nothing, so it is not
    ok either.  ``str`` renders the figure with its bound and marks a
    failing check.
    """

    name: str
    value: float | np.ndarray
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def ok(self) -> bool:
        value = np.asarray(self.value, dtype=float)
        return value.size > 0 and bool(np.all((self.lo <= value) & (value <= self.hi)))

    def __str__(self) -> str:
        figures = ", ".join(f"{x:#.4g}" for x in np.ravel(self.value))
        if np.ndim(self.value):
            figures = f"[{figures}]"
        if self.lo == -math.inf:
            bound = f"tol {self.hi:g}"
        elif self.hi == math.inf:
            bound = f"floor {self.lo:g}"
        else:
            bound = f"band [{self.lo:g}, {self.hi:g}]"
        return f"{self.name} = {figures} ({bound})" + ("" if self.ok else " FAIL")


@dataclass
class ExperimentResult:
    """An experiment's checks, its FAIL lines (the points or cells that
    raised, with the reason) and its data rows.

    ``extra_tables`` maps a table name to a zero-argument function that
    builds the table's rows; it is called only by what reads the table
    (the CLI, when it writes ``<name>.csv``), and each call builds the
    rows anew."""

    tag: str
    checks: list[Check]
    failures: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    extra_tables: dict[str, Callable[[], list[dict]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures and all(check.ok for check in self.checks)

    @property
    def summary(self) -> list[str]:
        return [*self.failures, *map(str, self.checks)]


def write_csv(path: str, rows: list[dict]) -> None:
    """Write ``rows`` under a header of the first row's keys; no rows write
    an empty file, so no earlier run's rows stay behind."""
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return [_parse_value(tok) for tok in text.split(",") if tok.strip()]
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        return text


def parse_config(path: str) -> dict:
    """Flat key=value configuration (``#`` comments, commas make lists)."""
    cfg: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = _parse_value(value)
    return cfg


def _each(failures: list[str], points, compute, where) -> list[tuple]:
    """(p, compute(p)) for each point p that computes, in order.

    A point whose ``compute`` raises ArithmeticError (a pole, a singular or
    unconverged solve, a datum beyond the model band) is the FAIL line
    ``where(p): <Type>: <reason>``, appended to ``failures``; anything else
    is a fault and propagates.
    """
    done = []
    for p in points:
        try:
            done.append((p, compute(p)))
        except ArithmeticError as exc:
            failures.append(f"{where(p)}: {type(exc).__name__}: {exc}")
    return done


def _worst(values, reduce=np.max) -> float:
    """``reduce`` of ``values``, which propagates a NaN; NaN when there are
    no values (every point raised), so the check on it fails."""
    values = np.asarray(values, dtype=float)
    return float(reduce(values)) if values.size else math.nan


def _sweep(failures, points, eps_list, error, where):
    """error(p, eps) at each point p over ``eps_list``, by ``_each``.

    Returns the (points, eps) array of errors, NaN where the point failed,
    and the samples (p, eps, error) that were computed, in sweep order.
    """
    done = _each(
        failures, np.ndindex(len(points), len(eps_list)),
        lambda ij: error(points[ij[0]], eps_list[ij[1]]),
        lambda ij: where(points[ij[0]], eps_list[ij[1]]),
    )
    errors = np.full((len(points), len(eps_list)), math.nan)
    for ij, err in done:
        errors[ij] = err
    return errors, [(points[i], eps_list[j], err) for (i, j), err in done]


def _slopes(name: str, eps_list, errors, lo: float = 1.8, hi: float = 2.2) -> Check:
    """The check that each row of ``errors`` (over ``eps_list``) fits
    err ~ eps^slope with the slope in [lo, hi], all rows in one fit.  A row
    holding a NaN (a point that raised) gets a NaN slope, and fails."""
    return Check(name, _fit(eps_list, errors)[0], lo, hi)


def _germ_free_cells(examples):
    """The selected cells without a stiff cycle, and a FAIL line when there
    are none."""
    cells = [g for g in map(build_example, examples) if not g.cell.germ]
    if cells:
        return cells, []
    return cells, [f"no selected cell without a stiff cycle (examples: {', '.join(examples)})"]


# ---------------------------------------------------------------------------
# experiments: each runner's keyword parameters are its config keys, with
# their defaults (a tuple default marks a list-valued key)


# (block, row, col) of the twelve entries per point of ``mmatrix_entries``
_ENTRY_KEYS = [
    (block, r, c) for block in ("full", "stiff", "soft") for r in range(2) for c in range(2)
]


def run_additivity(
    *, examples=DEFAULT_EXAMPLES, eps_list=(0.5, 0.3, 0.2, 0.1, 0.05), tau_count=5,
    z_list=DEFAULT_Z,
) -> ExperimentResult:
    """M-matrix block additivity plus symmetry/Herglotz certificates, each
    evaluated on the whole (tau, z) grid at once per (cell, eps).

    Each closed block is checked against the generic M-matrix of its own
    component (``check_additivity``), and the closed full matrix against the
    sum of the two (``vs_general``)."""
    taus = np.linspace(-3.0, 3.0, tau_count)[:, None]
    zs = np.array([*z_list, complex(7.0, 0.3)])
    points = [(tau, z) for tau in taus.ravel().tolist() for z in zs.tolist()]
    rows, blocks_at_eps, failures = [], [], []
    for name in examples:
        g = build_example(name)

        def blocks_at(eps):
            fiber = FiberParams(float(eps), taus, zs)
            mset = m_blocks_closed(g, fiber)
            stiff, soft = (m_general(g.subgraph(part), fiber) for part in ("stiff", "soft"))
            sym = mset.symmetry_defect(
                m_blocks_closed(g, FiberParams(float(eps), taus, zs.conj()))
            )
            dev = check_additivity(mset, stiff, soft)
            return mset, dev, deviation(stiff + soft, mset.m_full), sym

        # one pole point fails the (cell, eps) grid
        for eps, (mset, dev, gen, sym) in _each(
            failures, eps_list, blocks_at,
            lambda eps: f"{name}: M-matrix failed on the (tau, z) grid at eps={eps:g}, "
                        f"z in {zs.tolist()}",
        ):
            full = mset.m_full
            herg = herglotz_min_eig(full)
            blocks = np.stack([full, mset.m_stiff, mset.m_soft], axis=-3)
            blocks_at_eps.append((name, eps, blocks.reshape(len(points), 12)))
            for (tau, z), d, gn, sy, h in zip(
                points, dev.ravel().tolist(), gen.ravel().tolist(),
                sym.ravel().tolist(), herg.ravel().tolist(),
            ):
                rows.append(dict(example=name, eps=eps, tau=tau, re_z=z.real,
                                 im_z=z.imag, additivity=d, vs_general=gn,
                                 symmetry=sy, herglotz_min=h))
    checks = [
        Check(f"additivity max deviation over {len(rows)} points",
              _worst([r["additivity"] for r in rows]), hi=ADDITIVITY_TOL),
        Check("closed-vs-general max deviation",
              _worst([r["vs_general"] for r in rows]), hi=1e-11),
        Check("relative symmetry defect",
              _worst([r["symmetry"] for r in rows]), hi=SYMMETRY_TOL),
        Check("Herglotz min eigenvalue",
              _worst([r["herglotz_min"] for r in rows], np.min), lo=HERGLOTZ_FLOOR),
    ]

    def entries():
        return [
            dict(example=name, eps=eps, tau=tau, re_z=z.real, im_z=z.imag,
                 block=block, row=r, col=c, re=v.real, im=v.imag)
            for name, eps, blocks in blocks_at_eps
            for (tau, z), values in zip(points, blocks.tolist())
            for (block, r, c), v in zip(_ENTRY_KEYS, values)
        ]

    return ExperimentResult(
        "additivity", checks, failures, rows, {"mmatrix_entries": entries}
    )


def run_krein_vs_direct(
    *, examples=DEFAULT_EXAMPLES, eps=0.3, tau=1.0, z=2 + 1j,
    resolutions=(256, 512, 1024),
) -> ExperimentResult:
    """Closed-form resolvent against the finite-element oracle.

    Each cell checks error / (h^2 ||R||) at every resolution, and the ratio
    of successive errors (the O(h^2) decay).  A resolution at which either
    resolvent raises (z on a discrete or a Dirichlet level) is a FAIL line
    naming it, and its error is NaN, so the ratios next to it fail.
    """
    if len(resolutions) < 2:
        return ExperimentResult("krein_vs_direct", [], [
            f"needs at least two resolutions for a halving ratio, got {list(resolutions)}"
        ])
    rows, checks, failures = [], [], []
    h = 1.0 / np.array(resolutions, dtype=float)
    for name in examples:
        g = build_example(name)
        fiber = FiberParams(eps, tau, z)

        def error_and_norm(res):
            # the FEM resolvent is applied matrix-free, so a z at a discrete
            # level raises inside the power iteration
            ws = ResolventWorkspace(g, fiber, res)
            r_k, w = ws.generalized_resolvent(z, 0.0), ws.grid.w
            r_d = DiscretizedOperator(g, fiber, resolution=res).resolvent(z)
            return operator_norm_diff(r_k, r_d, w), operator_norm_diff(r_k, None, w)

        errs, norms = np.full(h.size, math.nan), np.full(h.size, math.nan)
        for i, (err, norm_r) in _each(
            failures, range(h.size), lambda i: error_and_norm(resolutions[i]),
            lambda i: f"{name}: resolvents failed at resolution={resolutions[i]}, z={z}",
        ):
            errs[i], norms[i] = err, norm_r
        scaled = Check(f"{name}: error / (h^2 ||R||)", errs / (h * h * norms), hi=5.0)
        bounds = scaled.hi * h * h * norms
        rows += [
            dict(example=name, resolution=res, error=err, bound=bound,
                 resolvent_norm=norm_r, within_bound=err <= bound)
            for res, err, bound, norm_r in zip(
                resolutions, errs.tolist(), bounds.tolist(), norms.tolist()
            )
            if not math.isnan(err)
        ]
        checks += [scaled, Check(f"{name}: halving ratios", errs[:-1] / errs[1:], 3.0, 5.0)]
    return ExperimentResult("krein_vs_direct", checks, failures, rows)


def _rate_sweep(failures, name, z, tau_list, eps_list, row):
    """``_sweep`` of one cell's (tau, eps) grid, one row at a time.

    ``row(fiber)`` builds a tau's eps-free objects at its first eps and
    returns that row's ``error(eps)``, so a row's objects live for that row
    only.  Returns the (tau, eps) errors and the samples (tau, eps, error),
    as ``_sweep`` does.
    """
    errors, samples = np.full((len(tau_list), len(eps_list)), math.nan), []
    for i, tau in enumerate(tau_list):
        error = row(FiberParams(eps_list[0], tau, z))
        errors[i], done = _sweep(
            failures, [tau], eps_list, lambda _, e: error(e),
            lambda t, e: f"{name}: resolvents failed at tau={t:.6g}, eps={e:g}, z={z}",
        )
        samples += done
    return errors, samples


def _soft_row(graph, fiber: FiberParams, res: int):
    """The ``error(eps)`` of one (cell, tau) row of ``gen_res_rate``: the
    norm of generalised minus effective resolvent on the soft grid.  The
    model and the start vector are built once, at the row's first eps;
    each eps reads the model's ``at_eps`` sibling, which redoes only what
    eps enters."""
    model, z = EffectiveModel(graph, fiber, res), fiber.z
    start = start_vector(model.grid.size)

    def error(eps: float) -> float:
        at = model.at_eps(eps)
        r_eps = at.kernels.generalized_resolvent(z, triples.b_matrix(graph, at.fiber))
        return operator_norm_diff(r_eps, at.r_eff(z), at.grid.w, start=start)

    return error


def run_gen_res_rate(
    *, examples=DEFAULT_EXAMPLES, eps_list=DEFAULT_EPS, tau_list=DEFAULT_TAUS,
    z=2 + 1j, resolution=96,
) -> ExperimentResult:
    """O(eps^2) convergence of the soft-component generalised resolvent."""
    rows, checks, failures = [], [], []
    for name in examples:
        g = build_example(name)
        errors, samples = _rate_sweep(
            failures, name, z, tau_list, eps_list,
            lambda fiber: _soft_row(g, fiber, resolution),
        )
        rows += [dict(example=name, tau=tau, eps=e, error=err)
                 for tau, e, err in samples]
        checks.append(_slopes(f"{name}: slopes", eps_list, errors))
    return ExperimentResult("gen_res_rate", checks, failures, rows)


def _full_row(graph, fiber: FiberParams, res: int):
    """As ``_soft_row`` for ``full_res_rate``, with Psi built once too:
    ||(A_eps - z)^{-1} - Psi* (A_hom - z)^{-1} Psi|| on the full grid."""
    model, z = EffectiveModel(graph, fiber, res), fiber.z
    start, psi = start_vector(model.workspace.grid.size), PsiEmbedding(model.workspace)

    def error(eps: float) -> float:
        at = model.at_eps(eps)
        ws = at.workspace
        r_full = ws.generalized_resolvent(z, 0.0)
        return operator_norm_diff(r_full, psi.sandwich(at.a_hom(z)), ws.grid.w, start=start)

    return error


def _dilation_certificates(graph, tau: float, eps: float, z: complex, w: complex, res: int):
    """(identity residual, adjoint defect, Herglotz min, route defect)."""
    fiber = FiberParams(eps, tau, z)
    model = EffectiveModel(graph, fiber, res)
    wv = np.concatenate([model.grid.w, [1.0]])
    r_z = model.a_hom(z).dense()
    r_w = model.a_hom(w).dense()
    ident = operator_norm_diff(r_z - r_w, (z - w) * model.compose(z, w), wv)
    r_zb = model.a_hom(np.conj(z)).dense()
    adj = float(
        np.max(np.abs(r_zb - (wv[:, None] ** -1) * r_z.conj().T * wv[None, :]))
    )
    im_part = (wv[:, None] * r_z - (wv[:, None] * r_z).conj().T) / 2j
    herg = float(np.min(np.linalg.eigvalsh(im_part)))
    route = float(np.max(np.abs(model.dilation_blocks(z) - r_z)))
    return ident, adj, herg, route


def run_full_res_rate(
    *, examples=DEFAULT_EXAMPLES, eps_list=DEFAULT_EPS, tau_list=DEFAULT_TAUS,
    z=2 + 1j, w=5 + 2j, resolution=96,
) -> ExperimentResult:
    """Full norm-resolvent convergence plus dilation self-adjointness
    certificates (resolvent identity, adjoint symmetry, Herglotz sign,
    agreement of the two independent out-of-space assembly routes)."""
    rows, checks, failures, certs = [], [], [], []
    for name in examples:
        g = build_example(name)
        errors, samples = _rate_sweep(
            failures, name, z, tau_list, eps_list,
            lambda fiber: _full_row(g, fiber, resolution),
        )
        rows += [dict(example=name, tau=tau, eps=e, error=err)
                 for tau, e, err in samples]
        certs += [cert for _, cert in _each(
            failures, [(1.0, 0.1)],
            lambda p: _dilation_certificates(g, *p, z, w, resolution),
            lambda p: f"{name}: dilation certificates failed at tau=1, eps=0.1, z={z}, w={w}",
        )]
        checks.append(_slopes(f"{name}: slopes", eps_list, errors))
    ident, adj, herg, route = np.reshape(certs, (-1, 4)).T
    checks += [
        Check("dilation resolvent identity", _worst(ident), hi=1e-9),
        Check("dilation adjoint defect", _worst(adj), hi=1e-10),
        Check("dilation Herglotz min", _worst(herg, np.min), lo=-1e-10),
        Check("dilation route defect", _worst(route), hi=1e-9),
    ]
    return ExperimentResult("full_res_rate", checks, failures, rows)


def run_btilde_identity(
    *, examples=DEFAULT_EXAMPLES, eps_list=(0.5, 0.25, 0.125, 0.0625, 0.03125),
    tau_count=10,
) -> ExperimentResult:
    """Exact identity between the generic triple-swap route and the closed
    diagonal form of the swapped boundary matrix, on the selected cells
    without a stiff cycle (ex0 and ex2 by default); each route is one call
    per cell on the whole (tau, z, eps) grid."""
    cells, failures = _germ_free_cells(examples)
    taus = np.linspace(-3.0, 3.0, tau_count)
    zs = [complex(re, im) for re in (0.7, 2, 5, 10, 17) for im in (0.5, 1.3)]
    eps_values = [float(e) for e in eps_list]
    fiber = FiberParams(np.array(eps_values), taus[:, None, None], np.array(zs)[:, None])
    rows, checks = [], []

    def deviation(g):
        closed = triples.btilde_closed_ex0(g, fiber)
        dev = np.max(np.abs(triples.btilde_numeric(g, fiber) - closed), axis=(-2, -1))
        # on the loop cell (ex2) the transform cancels entries of size
        # ||B(z)|| (a3^2/(l3 eps^2) scale), so floating-point noise is
        # proportional to that size, not to the closed form
        if g.cell.loop is not None:
            dev /= 1.0 + np.max(np.abs(triples.b_matrix(g, fiber)), axis=(-2, -1))
        return dev

    # one pole point fails the cell's whole grid
    for g, dev in _each(
        failures, cells, deviation,
        lambda g: f"{g.example}: B_tilde failed on the (tau, z, eps) grid at eps in "
                  f"{list(eps_list)}, z in {zs}",
    ):
        rows += [
            dict(example=g.example, tau=tau, re_z=z.real, im_z=z.imag, eps=eps, deviation=d)
            for tau, dev_t in zip(taus.tolist(), dev.tolist())
            for z, devs in zip(zs, dev_t)
            for eps, d in zip(eps_values, devs)
        ]
        what = "relative deviation" if g.cell.loop is not None else "|generic - closed|"
        checks.append(Check(f"{g.example} max {what}", np.max(dev), hi=BTILDE_TOL))
    return ExperimentResult("btilde_identity", checks, failures, rows)


def run_beff_rate(
    *, examples=DEFAULT_EXAMPLES, eps_list=DEFAULT_EPS, tau_list=DEFAULT_TAUS,
    z=2 + 1j,
) -> ExperimentResult:
    """O(eps^2) convergence of the swapped boundary matrices to their
    effective limits, uniformly over tau, plus the delta limit on the cells
    with a stiff cycle (ex1); each quantity is one call per cell on the
    whole (tau, eps) grid, and a pole on that grid fails the quantity's
    whole cell with one FAIL line."""
    eps_values, tau_values = [float(e) for e in eps_list], [float(t) for t in tau_list]
    fiber = FiberParams(np.array(eps_values), np.array(tau_values)[:, None], z)
    on_grid = f"on the (tau, eps) grid at eps in {list(eps_list)}, z={z}"
    rows, checks, failures = [], [], []
    deviations = _each(
        failures, map(build_example, examples), lambda g: triples.beff_deviation(g, fiber),
        lambda g: f"{g.example}: B_eff deviation failed {on_grid}",
    )
    for g, dev in deviations:
        rows += [
            dict(example=g.example, tau=tau, eps=e, error=err)
            for tau, errs in zip(tau_values, dev.tolist())
            for e, err in zip(eps_values, errs)
        ]
        checks.append(_slopes(f"{g.example}: slopes", eps_list, dev))
    for g, err in _each(
        failures, [g for g, _ in deviations if g.cell.germ],
        lambda g: np.abs(triples.delta_fn(g, fiber) - triples.delta_limit(g, fiber)),
        lambda g: f"{g.example}: delta limit failed {on_grid}",
    ):
        checks.append(_slopes(f"{g.example} delta-vs-limit slopes", eps_list, err))
    return ExperimentResult("beff_rate", checks, failures, rows)


def run_dispersion_series(
    *, examples=DEFAULT_EXAMPLES, eps=0.1, tau_count=9, z_list=DEFAULT_Z,
    n_terms=10_000,
) -> ExperimentResult:
    """Series and closed dispersion forms agree with an O(1/J) tail."""
    taus = tau_grid(tau_count)
    zs = [*z_list, complex(3.3, 0.6), complex(7.1, 1.7), complex(1.2, 0.9)]
    # every K below is one (tau, z) array call per cell
    tau_col, z_row = taus[:, None], np.array(zs)
    rows, checks, failures = [], [], []
    # one pole point fails the cell's whole grid
    for g, kc in _each(
        failures, map(build_example, examples),
        lambda g: dispersion.k_closed(g, tau_col, z_row, eps=eps),
        lambda g: f"{g.example}: closed form failed on the (tau, z) grid at eps={eps:g}, "
                  f"z in {zs}",
    ):
        name = g.example

        def error(terms):
            return np.abs(dispersion.k_series(g, tau_col, z_row, terms, eps=eps) - kc)

        rel = error(n_terms) / np.maximum(1.0, np.abs(kc))
        e1, e2 = error(1000), error(2000)
        tail = np.divide(e1, e2, out=np.full_like(e1, 2.0), where=e2 > 0)
        rows += [
            dict(example=name, tau=tau, re_z=z.real, im_z=z.imag, rel_error=r,
                 tail_ratio=q)
            for tau, rel_t, tail_t in zip(taus.tolist(), rel.tolist(), tail.tolist())
            for z, r, q in zip(zs, rel_t, tail_t)
        ]
        checks += [
            Check(f"{name}: max relative error over {rel.size} points", np.max(rel),
                  hi=SERIES_REL_TOL),
            Check(f"{name}: max |tail ratio - 2|", np.max(np.abs(tail - 2.0)), hi=1.0),
        ]
    return ExperimentResult("dispersion_series", checks, failures, rows)


def run_sum_identities(
    *, n_terms=1_000_000, x_list=(0.3, 1.0, 2.5)
) -> ExperimentResult:
    """Lattice-sum closed forms at large truncation."""
    devs = dispersion.verify_sum_identities(np.array(x_list, dtype=float), n_terms)
    rows = [
        dict(x=x, n_terms=n_terms, plain=p, alternating=a)
        for x, p, a in zip(x_list, devs["plain"].tolist(), devs["alternating"].tolist())
    ]
    worst = np.max([devs["plain"], devs["alternating"]])
    return ExperimentResult(
        "sum_identities",
        [Check(f"max deviation at J={n_terms}", worst, hi=SUM_TOL)],
        rows=rows,
    )


def run_schur_check(
    *, examples=DEFAULT_EXAMPLES, eps=0.1, tau_list=(-1.0, 0.3, 1.5, 2.9),
    z_list=DEFAULT_Z,
) -> ExperimentResult:
    """The boundary Schur scalar inverts (K - z), and is Herglotz."""
    failures = []

    def schur_and_k(point):
        g, tau, z = point
        # the Schur scalar builds no sample grid, so any resolution does
        s = EffectiveModel(g, FiberParams(eps, tau, z), 1).schur_frobenius(z)
        return s, dispersion.k_closed(g, tau, z, eps=eps)

    points = [
        (g, float(tau), z) for g in map(build_example, examples)
        for tau in tau_list for z in z_list
    ]
    rows = [
        dict(example=g.example, tau=tau, re_z=z.real, im_z=z.imag,
             residual=abs(s * (kc - z) - 1.0), im_schur=s.imag)
        for (g, tau, z), (s, kc) in _each(
            failures, points, schur_and_k,
            lambda p: f"{p[0].example}: Schur scalar failed at tau={p[1]:.6g}, eps={eps:g}, "
                      f"z={p[2]}",
        )
    ]
    checks = [
        Check("max |schur (K - z) - 1|", _worst([r["residual"] for r in rows]), hi=SCHUR_TOL),
        Check("min Im(schur)", _worst([r["im_schur"] for r in rows], np.min), lo=-1e-12),
    ]
    return ExperimentResult("schur_check", checks, failures, rows)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def run_bands(
    *, examples=DEFAULT_EXAMPLES, eps_list=tuple(2.0**-j for j in range(3, 7)),
    tau_count=17, resolution=1024, n_bands=3, z_max=260.0,
) -> ExperimentResult:
    """Band convergence: discrete fiber eigenvalues against limiting roots,
    on the selected cells without a stiff cycle (ex0 and ex2).

    Eigenvalues come from the finite-element oracle at two resolutions and
    are Richardson-extrapolated in h^2, so the h-discretisation error does
    not contaminate the O(eps^2) fit.  The FEM pencil at -tau is the
    conjugate of the one at tau, with the same spectrum, so it is solved
    once per distinct |tau| (at +|tau|); ``band_roots`` runs at every tau.
    A cell builds one FEM layout per resolution, which its operators at
    every (eps, tau) share (``DiscretizedOperator.at``).  A FEM point or a
    limiting-root scan that fails, or a scan that finds fewer than n_bands
    roots in [0, z_max], is a FAIL line naming it, and its distance is NaN,
    so its cell's slope fails.
    """
    cells, failures = _germ_free_cells(examples)
    taus = tau_grid(tau_count).tolist()
    abs_taus = list(dict.fromkeys(abs(tau) for tau in taus))  # the FEM points
    rows, checks = [], []

    def fem(g, bases, fiber, res):
        # bases: resolution -> the cell's first FEM operator at it, whose
        # layout (the pencil's pattern, free of eps and tau) the rest share
        if res not in bases:
            bases[res] = DiscretizedOperator(g, fiber, res)
            return bases[res]
        return bases[res].at(fiber)

    def eig_extrapolated(g, bases, eps, tau):
        fiber = FiberParams(eps, tau, complex(2, 1))
        v_lo = fem(g, bases, fiber, resolution // 2).eigenvalues(n_bands)
        v_hi = fem(g, bases, fiber, resolution).eigenvalues(n_bands)
        return (4.0 * v_hi - v_lo) / 3.0

    def lowest_roots(g, tau):
        roots = dispersion.band_roots(g, tau, z_max)
        if roots.size < n_bands:
            raise ArithmeticError(
                f"the scan found {roots.size} of n_bands = {n_bands} roots in [0, {z_max:g}]"
            )
        return roots[:n_bands]

    for g in cells:
        bases = {}
        # tau -> limiting roots where the scan computed; they do not depend
        # on eps (cells without a stiff cycle take no eps)
        limits = dict(_each(
            failures, taus, lambda tau: lowest_roots(g, tau),
            lambda tau: f"{g.example}: limiting roots failed at tau={tau:.6g}",
        ))
        dist_per_eps = []
        for eps in eps_list:
            # |tau| -> FEM eigenvalues, where they were computed
            spectra = dict(_each(
                failures, abs_taus, lambda t: eig_extrapolated(g, bases, eps, t),
                lambda t: f"{g.example}: FEM spectrum failed at eps={eps:g}, |tau|={t:.6g}",
            ))
            dists = []
            for tau in taus:
                ev, limit = spectra.get(abs(tau)), limits.get(tau)
                if ev is None or limit is None:
                    dists.append(math.nan)
                    continue
                dists.append(_hausdorff(ev, limit))
                for b_idx, (lv, dv) in enumerate(zip(limit, ev)):
                    rows.append(dict(example=g.example, eps=eps, tau=tau,
                                     band_index=b_idx, z_root=float(lv),
                                     z_discrete=float(dv)))
            dist_per_eps.append(np.max(dists))
        checks.append(_slopes(
            f"{g.example}: Hausdorff slope (FEM "
            f"spectra at {len(abs_taus)} of {len(taus)} tau; the other "
            f"{len(taus) - len(abs_taus)} from the conjugate pencil at -tau)",
            eps_list, dist_per_eps, 1.7, 2.3,
        ))
    return ExperimentResult("bands", checks, failures, rows)


def run_line_models(
    *, examples=DEFAULT_EXAMPLES, eps_list=DEFAULT_EPS, z_list=DEFAULT_Z,
    grid_size=4096, half_width=32.0, sigma=0.5,
) -> ExperimentResult:
    """Real-line symbol identities and, on the cells with a stiff cycle
    (ex1), the model convergence rate.  Each such cell transforms its datum
    once and solves the eps-free limit model once per z."""
    grid = realline.make_line_grid(half_width, grid_size)
    cells = [build_example(name) for name in examples]
    rows, checks, failures = [], [], []
    for g in cells:
        defects, samples = _sweep(
            failures, z_list, (0.125, 0.0625),
            lambda z, e: realline.symbol_identity_defect(g, e, z, grid),
            lambda z, e: f"{g.example}: symbol defect failed at eps={e:g}, z={z}",
        )
        rows += [
            dict(example=g.example, kind="symbol_defect", eps=e, re_z=z.real,
                 im_z=z.imag, value=d)
            for z, e, d in samples
        ]
        checks.append(Check(f"{g.example}: max symbol defect", _worst(defects), hi=SYMBOL_TOL))
    for g in (g for g in cells if g.cell.germ):
        datum = realline.LineDatum(realline.gaussian_packet(grid, width=sigma))
        limits = {}

        def limit(z):
            # the limit model's coefficients at z, which no eps enters: solved
            # at the first eps of z whose eps-model solves, and kept only once
            # it solves, so a z where it raises fails at every eps alike
            if z not in limits:
                limits[z] = realline.differential_model_ex1_hat(g, z, datum, grid)
            return limits[z]

        errors, samples = _sweep(
            failures, z_list, eps_list,
            lambda z, e: realline.ex1_model_distance(
                g, e, z, grid, f=datum, limit=lambda: limit(z)
            ),
            lambda z, e: f"{g.example}: line model failed at eps={e:g}, z={z}",
        )
        rows += [
            dict(example=g.example, kind="model_error", eps=e, re_z=z.real,
                 im_z=z.imag, value=err)
            for z, e, err in samples
        ]
        checks.append(_slopes(f"{g.example} model-vs-limit slopes", eps_list, errors))
    return ExperimentResult("line_models", checks, failures, rows)


_RUNNERS = {
    "additivity": run_additivity,
    "krein_vs_direct": run_krein_vs_direct,
    "gen_res_rate": run_gen_res_rate,
    "full_res_rate": run_full_res_rate,
    "btilde_identity": run_btilde_identity,
    "beff_rate": run_beff_rate,
    "dispersion_series": run_dispersion_series,
    "schur_check": run_schur_check,
    "bands": run_bands,
    "line_models": run_line_models,
    "sum_identities": run_sum_identities,
}
EXPERIMENT_TAGS = tuple(_RUNNERS)
# runners whose eps_list feeds the slope fits
_SLOPE_FIT_TAGS = ("gen_res_rate", "full_res_rate", "beff_rate", "line_models", "bands")


def _integer(v) -> int:
    """``v`` as an int when it is one (2000.0 is 2000; 96.7 is refused)."""
    if int(v) != v:
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


# casts of config values by the type of their key's default; example names
# are case-insensitive
_CASTS = {int: _integer, float: float, complex: complex, str: lambda v: str(v).lower()}


# the least value of each count key: the FEM floor for a resolution (twice
# it for bands, whose coarse grid is resolution // 2) and the line grid's
# least size
_LEAST = dict(
    resolution=MIN_RESOLUTION, resolutions=MIN_RESOLUTION, grid_size=realline.MIN_GRID_SIZE,
    tau_count=1, n_terms=1, n_bands=1,
)
# keys whose every value must be a positive finite number
_POSITIVE = ("eps", "eps_list", "sigma", "half_width", "z_max")


def _refusal(tag: str, key: str, values: list) -> str | None:
    """Why the (cast) values of ``key`` are no input of experiment ``tag``,
    or None when they are."""
    if key in _LEAST:
        least = _LEAST[key] * (2 if (tag, key) == ("bands", "resolution") else 1)
        if min(values) < least:
            return f"must be at least {least}"
    if key == "grid_size" and values[0] % 2:
        return "must be even"
    if key in _POSITIVE and not all(0 < v < math.inf for v in values):
        return "must be positive and finite"
    if key in ("tau", "tau_list") and not all(-math.pi <= v <= math.pi for v in values):
        return "must lie in [-pi, pi]"
    if key == "x_list" and any(not math.isfinite(v) or dispersion.on_lattice(v) for v in values):
        return "must be finite and off the lattice points pi*j"
    return None


def _parameters(tag: str):
    if tag not in _RUNNERS:
        raise ValueError(
            f"unknown experiment tag {tag!r}; known: {', '.join(EXPERIMENT_TAGS)}"
        )
    return inspect.signature(_RUNNERS[tag]).parameters


def config_keys(tag: str) -> tuple[str, ...]:
    """The config keys experiment ``tag`` accepts: its runner's parameters."""
    return tuple(_parameters(tag))


def bind_config(tag: str, cfg: dict) -> dict:
    """The keyword arguments of experiment ``tag``'s runner for ``cfg``.

    A key the runner does not take raises ``ParameterError`` naming the tag
    and its accepted keys.  Each value is cast to the type of the key's
    default (an int key takes only integral values, and no key takes a
    bool); a list-valued key (tuple default) takes a non-empty list, or a
    scalar as a one-element list.  Example names must name known cells,
    the eps_list of a runner that fits slopes needs MIN_FIT_POINTS values,
    a resolution must be at least the FEM floor (twice it for bands), a
    count (tau_count, n_terms, n_bands) at least 1, a line grid's size even
    and at least ``realline.MIN_GRID_SIZE``, eps, sigma, half_width and
    z_max positive and finite, each tau in the quasimomentum range
    [-pi, pi], and each x of sum_identities finite and off the lattice
    points pi*j (``_refusal``); a refused value, a full_res_rate w equal to
    its z, or a bands n_bands above what ``eigsh`` gives on the coarse FEM
    grid of a selected cell (its unknowns less 2), raises ``ParameterError``
    naming the tag and key.
    """
    params = _parameters(tag)
    unknown = [key for key in cfg if key not in params]
    if unknown:
        raise ParameterError(
            f"{tag} does not take {', '.join(unknown)}; "
            f"accepted keys: {', '.join(params)}"
        )
    kwargs = {}
    for key, value in cfg.items():
        default = params[key].default
        many = isinstance(default, tuple)
        kind = type(default[0] if many else default)
        values = value if many and isinstance(value, (list, tuple)) else [value]
        try:
            if any(isinstance(v, bool) for v in values):
                raise TypeError("a bool is no value of any key")
            values = [_CASTS[kind](v) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(
                f"{tag}: {key} takes {kind.__name__} values, got {value!r}"
            ) from exc
        if not values:
            raise ParameterError(f"{tag}: {key} needs at least one value")
        unknown = [v for v in values if v not in EXAMPLES] if key == "examples" else []
        if unknown:
            raise ParameterError(
                f"{tag}: unknown example {', '.join(unknown)}; "
                f"accepted: {', '.join(EXAMPLES)}"
            )
        if key == "eps_list" and tag in _SLOPE_FIT_TAGS and len(values) < MIN_FIT_POINTS:
            raise ParameterError(
                f"{tag}: eps_list needs at least {MIN_FIT_POINTS} values for its "
                f"slope fits, got {len(values)}"
            )
        refusal = _refusal(tag, key, values)
        if refusal:
            raise ParameterError(f"{tag}: {key} {refusal}, got {value!r}")
        kwargs[key] = values if many else values[0]
    if tag == "full_res_rate":
        z, w = (kwargs.get(key, params[key].default) for key in ("z", "w"))
        if z == w:
            raise ParameterError(f"{tag}: w must differ from z, both are {z}")
    if tag == "bands":
        n_bands, resolution, examples = (
            kwargs.get(key, params[key].default) for key in ("n_bands", "resolution", "examples")
        )
        most = min(FemLayout(build_example(name), resolution // 2).ndof for name in examples) - 2
        if n_bands > most:
            raise ParameterError(
                f"{tag}: n_bands must be at most {most} at resolution {resolution} (the "
                f"coarse FEM grid's unknowns less 2), got {n_bands}"
            )
    return kwargs


def run_experiment(tag: str, cfg: dict | None = None) -> ExperimentResult:
    """Run one tagged experiment with the given (flat) configuration, bound
    to its runner's parameters by ``bind_config``."""
    kwargs = bind_config(tag, cfg or {})
    return _RUNNERS[tag](**kwargs)
