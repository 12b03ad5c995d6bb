"""Experiment harness: parameter sweeps, operator-norm estimation, slope
fits, and the eleven tagged experiments behind the acceptance checks.

Every experiment is deterministic given its configuration (fixed seeds,
ordered accumulation) and returns an ``ExperimentResult`` with per-point
rows (CSV-ready), a human-readable summary, and a pass flag.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import dispersion, realline, triples
from .effective import EffectiveModel, PsiEmbedding
from .fdsolver import DiscretizedOperator
from .graphs import build_example, datta_weights
from .krein import ComponentFrame, ResolventWorkspace, make_grid
from .mmatrix import (
    FiberParams,
    check_additivity,
    herglotz_min_eig,
    m_blocks_closed,
    m_general,
)

EXPERIMENT_TAGS = (
    "additivity",
    "krein_vs_direct",
    "gen_res_rate",
    "full_res_rate",
    "btilde_identity",
    "beff_rate",
    "dispersion_series",
    "schur_check",
    "bands",
    "line_models",
    "sum_identities",
)

DEFAULT_Z = (2 + 1j, 5 + 2j, 10 + 0.7j)
DEFAULT_EPS = tuple(2.0**-j for j in range(3, 9))
DEFAULT_EXAMPLES = ("ex0", "ex1", "ex2")


def tau_grid(count: int = 17) -> np.ndarray:
    """Symmetric quasimomentum grid including +-(pi - 1e-3)."""
    return np.linspace(-(math.pi - 1e-3), math.pi - 1e-3, count)


# ---------------------------------------------------------------------------
# numeric utilities


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(err) against log(eps)."""

    slope: float
    intercept: float
    r_squared: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.slope <= self.hi


def fit_slope(eps_values, errors, lo: float = 1.8, hi: float = 2.2) -> SlopeFit:
    """Fit err ~ C eps^slope on >= 4 positive pairs."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps_values.size < 4:
        raise ValueError("slope fit needs at least 4 points")
    if np.any(eps_values <= 0) or np.any(errors <= 0):
        raise ValueError("slope fit needs positive values")
    lx, ly = np.log(eps_values), np.log(errors)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = ly - a @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_sq = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return SlopeFit(float(coef[0]), float(coef[1]), r_sq, lo, hi)


def operator_norm_diff(
    a: np.ndarray,
    b: np.ndarray | None,
    w_row: np.ndarray,
    w_col: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 500,
    seed: int = 0,
) -> float:
    """Largest singular value of the quadrature-weighted difference a - b.

    The operators act between L2 spaces discretised with trapezoid weights,
    so the relevant norm is that of W_r^{1/2} (a - b) W_c^{-1/2}.  Power
    iteration on its normal matrix, relative tolerance ``tol``, at most
    ``max_iter`` iterations, deterministic start vector.  The weights are
    applied to the iterates, not to a scaled copy of D = a - b: with
    s = sqrt(w), one step is v -> D^H (w_r D (v / s_c)) / s_c, and
    D^H y = conj(D^T conj(y)) needs no transposed copy.  Raises
    ``ArithmeticError`` if the relative step is still above ``tol`` after
    ``max_iter`` iterations, because an unconverged power iteration
    under-estimates the norm.
    """
    d = np.asarray(a, dtype=complex)
    if b is not None:
        if b.shape != d.shape:
            raise ValueError("non-conformable operator blocks")
        d = d - b
    w_row = np.asarray(w_row, dtype=float)
    w_col = w_row if w_col is None else np.asarray(w_col, dtype=float)
    s_col = np.sqrt(w_col)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d.shape[1]) + 1j * rng.standard_normal(d.shape[1])
    v /= np.linalg.norm(v)
    sigma, step = 0.0, math.inf
    for _ in range(max_iter):
        y = w_row * (d @ (v / s_col))
        u = np.conj(d.T @ np.conj(y)) / s_col
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return 0.0
        v = u / nrm
        new_sigma = math.sqrt(nrm)
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return new_sigma
        step = abs(new_sigma - sigma) / new_sigma
        sigma = new_sigma
    raise ArithmeticError(
        f"operator_norm_diff: power iteration not converged after max_iter="
        f"{max_iter} steps (last relative step {step:.3e}, tol {tol:.1e})"
    )


# ---------------------------------------------------------------------------
# experiment plumbing


@dataclass
class ExperimentResult:
    tag: str
    passed: bool
    summary: list[str]
    rows: list[dict] = field(default_factory=list)
    extra_tables: dict[str, list[dict]] = field(default_factory=dict)


def write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return [_parse_value(tok) for tok in text.split(",") if tok.strip()]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
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


def _as_list(value):
    if value is None:
        return None
    return value if isinstance(value, list) else [value]


def _cfg_examples(cfg) -> list[str]:
    ex = _as_list(cfg.get("examples")) or list(DEFAULT_EXAMPLES)
    return [str(e).lower() for e in ex]


def _cfg_z(cfg) -> list[complex]:
    return [complex(z) for z in (_as_list(cfg.get("z_list")) or DEFAULT_Z)]


def _cfg_eps(cfg) -> list[float]:
    return [float(e) for e in (_as_list(cfg.get("eps_list")) or DEFAULT_EPS)]


# ---------------------------------------------------------------------------
# experiments


def run_additivity(cfg: dict) -> ExperimentResult:
    """M-matrix block additivity plus symmetry/Herglotz certificates."""
    tol = float(cfg.get("tol", 1e-11))
    sym_tol = float(cfg.get("sym_tol", 1e-12))
    herg_tol = float(cfg.get("herglotz_tol", -1e-10))
    eps_values = _as_list(cfg.get("eps_list")) or [0.5, 0.3, 0.2, 0.1, 0.05]
    taus = np.linspace(-3.0, 3.0, int(cfg.get("tau_count", 5)))
    zs = _cfg_z(cfg) + [complex(7.0, 0.3)]
    rows, entries = [], []
    worst_dev = worst_gen = worst_sym = 0.0
    worst_herg = math.inf
    for name in _cfg_examples(cfg):
        g = build_example(name)
        for eps in eps_values:
            for tau in taus:
                for z in zs:
                    fiber = FiberParams(float(eps), float(tau), z)
                    mset = m_blocks_closed(g, fiber)
                    dev = check_additivity(mset)
                    gen = float(
                        np.max(
                            np.abs(
                                m_general(g, datta_weights(g, float(tau)), fiber)
                                - mset.m_full
                            )
                            / (1.0 + np.abs(mset.m_full))
                        )
                    )
                    conj_set = m_blocks_closed(
                        g, FiberParams(float(eps), float(tau), np.conj(z))
                    )
                    sym = mset.symmetry_defect(conj_set)
                    herg = herglotz_min_eig(mset.m_full)
                    worst_dev = max(worst_dev, dev)
                    worst_gen = max(worst_gen, gen)
                    worst_sym = max(worst_sym, sym)
                    worst_herg = min(worst_herg, herg)
                    rows.append(
                        dict(
                            example=name,
                            eps=eps,
                            tau=float(tau),
                            re_z=z.real,
                            im_z=z.imag,
                            additivity=dev,
                            vs_general=gen,
                            symmetry=sym,
                            herglotz_min=herg,
                        )
                    )
                    for block, mat in (
                        ("full", mset.m_full),
                        ("stiff", mset.m_stiff),
                        ("soft", mset.m_soft),
                    ):
                        for r in range(2):
                            for c in range(2):
                                entries.append(
                                    dict(
                                        example=name,
                                        eps=eps,
                                        tau=float(tau),
                                        re_z=z.real,
                                        im_z=z.imag,
                                        block=block,
                                        row=r,
                                        col=c,
                                        re=mat[r, c].real,
                                        im=mat[r, c].imag,
                                    )
                                )
    passed = (
        worst_dev <= tol
        and worst_gen <= 1e-11
        and worst_sym <= sym_tol
        and worst_herg >= herg_tol
    )
    summary = [
        f"additivity max deviation {worst_dev:.3e} (tol {tol:.0e})",
        f"closed-vs-general max deviation {worst_gen:.3e}",
        f"symmetry defect {worst_sym:.3e} (tol {sym_tol:.0e})",
        f"Herglotz min eigenvalue {worst_herg:.3e} (floor {herg_tol:.0e})",
        f"points per example: {len(rows) // len(_cfg_examples(cfg))}",
    ]
    return ExperimentResult(
        "additivity", passed, summary, rows, {"mmatrix_entries": entries}
    )


def run_krein_vs_direct(cfg: dict) -> ExperimentResult:
    """Closed-form resolvent against the finite-element oracle."""
    resolutions = [int(r) for r in (_as_list(cfg.get("resolutions")) or [256, 512, 1024])]
    eps = float(cfg.get("eps", 0.3))
    tau = float(cfg.get("tau", 1.0))
    z = complex(cfg.get("z", 2 + 1j))
    rows = []
    passed = True
    summary = []
    for name in _cfg_examples(cfg):
        g = build_example(name)
        weights = datta_weights(g, tau)
        fiber = FiberParams(eps, tau, z)
        errs = []
        for res in resolutions:
            grid = make_grid(g, res)
            ws = ResolventWorkspace(ComponentFrame(g, weights, fiber), grid=grid)
            r_k = ws.krein_matrix(z)
            op = DiscretizedOperator(g, weights, fiber, resolution=res)
            r_d = op.resolvent_matrix(z)
            err = operator_norm_diff(r_k, r_d, grid.w)
            norm_r = operator_norm_diff(r_k, None, grid.w)
            h = 1.0 / res
            bound = 5.0 * h * h * norm_r
            ok = err <= bound
            passed = passed and ok
            errs.append(err)
            rows.append(
                dict(
                    example=name,
                    resolution=res,
                    error=err,
                    bound=bound,
                    resolvent_norm=norm_r,
                    within_bound=ok,
                )
            )
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ratio_ok = all(3.0 <= r <= 5.0 for r in ratios)
        passed = passed and ratio_ok
        summary.append(
            f"{name}: errors {['%.2e' % e for e in errs]}, "
            f"halving ratios {['%.2f' % r for r in ratios]} "
            f"({'ok' if ratio_ok else 'FAIL'})"
        )
    return ExperimentResult("krein_vs_direct", passed, summary, rows)


def _soft_sandwich_error(graph, tau: float, eps: float, z: complex, res: int) -> float:
    """||generalised resolvent - effective resolvent|| on the soft grid."""
    weights = datta_weights(graph, tau)
    fiber = FiberParams(eps, tau, z)
    soft = graph.subgraph("soft")
    grid = make_grid(soft, res)
    ws = ResolventWorkspace(ComponentFrame(soft, weights, fiber), grid=grid)
    b = -m_blocks_closed(graph, fiber).m_stiff
    r_eps = ws.generalized_matrix(z, b)
    model = EffectiveModel(graph, weights, fiber, grid=grid)
    return operator_norm_diff(r_eps, model.r_eff_matrix(z), grid.w)


def run_gen_res_rate(cfg: dict) -> ExperimentResult:
    """O(eps^2) convergence of the soft-component generalised resolvent."""
    eps_values = _cfg_eps(cfg)
    z = complex(cfg.get("z", 2 + 1j))
    res = int(cfg.get("resolution", 96))
    taus = _as_list(cfg.get("tau_list")) or [
        -(math.pi - 1e-3), -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, math.pi - 1e-3,
    ]
    rows, summary = [], []
    passed = True
    for name in _cfg_examples(cfg):
        g = build_example(name)
        slopes = []
        for tau in taus:
            errs = [_soft_sandwich_error(g, float(tau), e, z, res) for e in eps_values]
            fit = fit_slope(eps_values, errs)
            slopes.append(fit.slope)
            passed = passed and fit.passed
            for e, err in zip(eps_values, errs):
                rows.append(
                    dict(example=name, tau=float(tau), eps=e, error=err)
                )
        summary.append(
            f"{name}: slopes {['%.3f' % s for s in slopes]} "
            f"(band [1.8, 2.2])"
        )
    return ExperimentResult("gen_res_rate", passed, summary, rows)


def _full_nrc_error(graph, tau: float, eps: float, z: complex, res: int) -> float:
    """||(A_eps - z)^{-1} - Psi* (A_hom - z)^{-1} Psi|| on the full grid."""
    weights = datta_weights(graph, tau)
    fiber = FiberParams(eps, tau, z)
    full_grid = make_grid(graph, res)
    ws = ResolventWorkspace(ComponentFrame(graph, weights, fiber), grid=full_grid)
    r_full = ws.krein_matrix(z)
    soft = graph.subgraph("soft")
    soft_grid = make_grid(soft, res)
    model = EffectiveModel(graph, weights, fiber, grid=soft_grid)
    psi = PsiEmbedding(graph, weights, fiber, full_grid)
    return operator_norm_diff(r_full, psi.sandwich(model.a_hom_matrix(z)), full_grid.w)


def _dilation_certificates(graph, tau: float, eps: float, z: complex, w: complex, res: int):
    """(identity residual, adjoint defect, Herglotz min, route defect)."""
    weights = datta_weights(graph, tau)
    fiber = FiberParams(eps, tau, z)
    soft = graph.subgraph("soft")
    grid = make_grid(soft, res)
    model = EffectiveModel(graph, weights, fiber, grid=grid)
    wv = np.concatenate([grid.w, [1.0]])
    r_z = model.a_hom_matrix(z)
    r_w = model.a_hom_matrix(w)
    ident = operator_norm_diff(r_z - r_w, (z - w) * model.compose(z, w), wv)
    r_zb = model.a_hom_matrix(np.conj(z))
    adj = float(
        np.max(np.abs(r_zb - (wv[:, None] ** -1) * r_z.conj().T * wv[None, :]))
    )
    im_part = (wv[:, None] * r_z - (wv[:, None] * r_z).conj().T) / 2j
    herg = float(np.min(np.linalg.eigvalsh(im_part)))
    route = float(np.max(np.abs(model.dilation_blocks(z) - r_z)))
    return ident, adj, herg, route


def run_full_res_rate(cfg: dict) -> ExperimentResult:
    """Full norm-resolvent convergence plus dilation self-adjointness
    certificates (resolvent identity, adjoint symmetry, Herglotz sign,
    agreement of the two independent out-of-space assembly routes)."""
    eps_values = _cfg_eps(cfg)
    z = complex(cfg.get("z", 2 + 1j))
    w = complex(cfg.get("w", 5 + 2j))
    res = int(cfg.get("resolution", 96))
    taus = _as_list(cfg.get("tau_list")) or [
        -(math.pi - 1e-3), -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, math.pi - 1e-3,
    ]
    rows, summary = [], []
    passed = True
    worst = dict(ident=0.0, adj=0.0, herg=math.inf, route=0.0)
    for name in _cfg_examples(cfg):
        g = build_example(name)
        slopes = []
        for tau in taus:
            errs = [_full_nrc_error(g, float(tau), e, z, res) for e in eps_values]
            fit = fit_slope(eps_values, errs)
            slopes.append(fit.slope)
            passed = passed and fit.passed
            for e, err in zip(eps_values, errs):
                rows.append(dict(example=name, tau=float(tau), eps=e, error=err))
        ident, adj, herg, route = _dilation_certificates(
            g, 1.0, 0.1, z, w, res
        )
        worst["ident"] = max(worst["ident"], ident)
        worst["adj"] = max(worst["adj"], adj)
        worst["herg"] = min(worst["herg"], herg)
        worst["route"] = max(worst["route"], route)
        summary.append(
            f"{name}: slopes {['%.3f' % s for s in slopes]} (band [1.8, 2.2])"
        )
    cert_ok = (
        worst["ident"] <= 1e-9
        and worst["adj"] <= 1e-10
        and worst["herg"] >= -1e-10
        and worst["route"] <= 1e-9
    )
    passed = passed and cert_ok
    summary.append(
        f"dilation certificates: identity {worst['ident']:.2e}, adjoint "
        f"{worst['adj']:.2e}, Herglotz min {worst['herg']:.2e}, "
        f"route defect {worst['route']:.2e} ({'ok' if cert_ok else 'FAIL'})"
    )
    return ExperimentResult("full_res_rate", passed, summary, rows)


def run_btilde_identity(cfg: dict) -> ExperimentResult:
    """Exact identity between the generic triple-swap route and the closed
    diagonal form of the swapped boundary matrix (ex0; ex2 as a bonus)."""
    tol = float(cfg.get("tol", 1e-12))
    taus = np.linspace(-3.0, 3.0, int(cfg.get("tau_count", 10)))
    zs = [complex(re, im) for re in (0.7, 2, 5, 10, 17) for im in (0.5, 1.3)]
    eps_values = _as_list(cfg.get("eps_list")) or [0.5, 0.25, 0.125, 0.0625, 0.03125]
    rows = []
    worst = {"ex0": 0.0, "ex2": 0.0}
    for name in ("ex0", "ex2"):
        g = build_example(name)
        for tau in taus:
            for z in zs:
                for eps in eps_values:
                    fiber = FiberParams(float(eps), float(tau), z)
                    closed = triples.btilde_closed_ex0(g, fiber)
                    dev = float(
                        np.max(np.abs(triples.btilde_numeric(g, fiber) - closed))
                    )
                    if name == "ex2":
                        # bonus check on the second stiff-dumbbell cell:
                        # the transform cancels entries of size ||B(z)||
                        # (a3^2/(l3 eps^2) scale), so floating-point noise is
                        # proportional to that size, not to the closed form
                        dev /= 1.0 + float(
                            np.max(np.abs(triples.b_matrix(g, fiber)))
                        )
                    worst[name] = max(worst[name], dev)
                    rows.append(
                        dict(
                            example=name,
                            tau=float(tau),
                            re_z=z.real,
                            im_z=z.imag,
                            eps=float(eps),
                            deviation=dev,
                        )
                    )
    passed = worst["ex0"] <= tol and worst["ex2"] <= tol
    return ExperimentResult(
        "btilde_identity",
        passed,
        [
            f"ex0 max |generic - closed| = {worst['ex0']:.3e} (tol {tol:.0e})",
            f"ex2 max relative deviation = {worst['ex2']:.3e} (tol {tol:.0e})",
        ],
        rows,
    )


def run_beff_rate(cfg: dict) -> ExperimentResult:
    """O(eps^2) convergence of the swapped boundary matrices to their
    effective limits, uniformly over tau, plus the delta limit for ex1."""
    eps_values = _cfg_eps(cfg)
    z = complex(cfg.get("z", 2 + 1j))
    taus = _as_list(cfg.get("tau_list")) or [
        -(math.pi - 1e-3), -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, math.pi - 1e-3,
    ]
    rows, summary = [], []
    passed = True
    for name in _cfg_examples(cfg):
        g = build_example(name)
        slopes = []
        for tau in taus:
            errs = [
                triples.beff_deviation(g, FiberParams(e, float(tau), z))
                for e in eps_values
            ]
            fit = fit_slope(eps_values, errs)
            slopes.append(fit.slope)
            passed = passed and fit.passed
            for e, err in zip(eps_values, errs):
                rows.append(dict(example=name, tau=float(tau), eps=e, error=err))
        summary.append(f"{name}: slopes {['%.3f' % s for s in slopes]}")
    if "ex1" in _cfg_examples(cfg):
        g1 = build_example("ex1")
        delta_slopes = []
        for tau in taus:
            errs = [
                abs(
                    triples.delta_fn(g1, FiberParams(e, float(tau), z))
                    - triples.delta_limit(g1, FiberParams(e, float(tau), z))
                )
                for e in eps_values
            ]
            fit = fit_slope(eps_values, errs)
            delta_slopes.append(fit.slope)
            passed = passed and fit.passed
        summary.append(
            f"ex1 delta-vs-limit slopes {['%.3f' % s for s in delta_slopes]}"
        )
    return ExperimentResult("beff_rate", passed, summary, rows)


def run_dispersion_series(cfg: dict) -> ExperimentResult:
    """Series and closed dispersion forms agree with an O(1/J) tail."""
    rel_tol = float(cfg.get("rel_tol", 1e-3))
    n_terms = int(cfg.get("n_terms", 10_000))
    eps = float(cfg.get("eps", 0.1))
    taus = tau_grid(int(cfg.get("tau_count", 9)))
    zs = _cfg_z(cfg) + [complex(3.3, 0.6), complex(7.1, 1.7), complex(1.2, 0.9)]
    rows, summary = [], []
    passed = True
    for name in _cfg_examples(cfg):
        g = build_example(name)
        worst_rel, worst_tail = 0.0, 0.0
        count = 0
        for tau in taus:
            for z in zs:
                kc = dispersion.k_closed(g, float(tau), z, eps=eps)
                ks = dispersion.k_series(g, float(tau), z, n_terms, eps=eps)
                rel = abs(ks - kc) / max(1.0, abs(kc))
                e1 = abs(dispersion.k_series(g, float(tau), z, 1000, eps=eps) - kc)
                e2 = abs(dispersion.k_series(g, float(tau), z, 2000, eps=eps) - kc)
                tail_ratio = e1 / e2 if e2 > 0 else 2.0
                worst_rel = max(worst_rel, rel)
                worst_tail = max(worst_tail, abs(tail_ratio - 2.0))
                count += 1
                rows.append(
                    dict(
                        example=name,
                        tau=float(tau),
                        re_z=z.real,
                        im_z=z.imag,
                        rel_error=rel,
                        tail_ratio=tail_ratio,
                    )
                )
        ok = worst_rel <= rel_tol and worst_tail <= 1.0
        passed = passed and ok
        summary.append(
            f"{name}: {count} points, max relative error {worst_rel:.2e} "
            f"(tol {rel_tol:.0e}), tail ratio within {worst_tail:.2f} of 2"
        )
    return ExperimentResult("dispersion_series", passed, summary, rows)


def run_sum_identities(cfg: dict) -> ExperimentResult:
    """Lattice-sum closed forms at large truncation."""
    tol = float(cfg.get("tol", 2e-6))
    n_terms = int(cfg.get("n_terms", 1_000_000))
    xs = [float(x) for x in (_as_list(cfg.get("x_list")) or [0.3, 1.0, 2.5])]
    rows = []
    worst = 0.0
    for x in xs:
        devs = dispersion.verify_sum_identities(x, n_terms)
        worst = max(worst, devs["plain"], devs["alternating"])
        rows.append(dict(x=x, n_terms=n_terms, **devs))
    passed = worst <= tol
    return ExperimentResult(
        "sum_identities",
        passed,
        [f"max deviation {worst:.3e} at J={n_terms} (tol {tol:.0e})"],
        rows,
    )


def run_schur_check(cfg: dict) -> ExperimentResult:
    """The boundary Schur scalar inverts (K - z), and is Herglotz."""
    tol = float(cfg.get("tol", 1e-9))
    eps = float(cfg.get("eps", 0.1))
    res = int(cfg.get("resolution", 64))
    taus = _as_list(cfg.get("tau_list")) or [-1.0, 0.3, 1.5, 2.9]
    zs = _cfg_z(cfg)
    rows = []
    worst = 0.0
    worst_herg = math.inf
    for name in _cfg_examples(cfg):
        g = build_example(name)
        for tau in taus:
            for z in zs:
                s = dispersion.schur_frobenius(g, float(tau), z, eps, res)
                kc = dispersion.k_closed(g, float(tau), z, eps=eps)
                dev = abs(s * (kc - z) - 1.0)
                worst = max(worst, dev)
                worst_herg = min(worst_herg, s.imag)
                rows.append(
                    dict(
                        example=name,
                        tau=float(tau),
                        re_z=z.real,
                        im_z=z.imag,
                        residual=dev,
                        im_schur=s.imag,
                    )
                )
    passed = worst <= tol and worst_herg >= -1e-12
    return ExperimentResult(
        "schur_check",
        passed,
        [
            f"max |schur (K - z) - 1| = {worst:.3e} (tol {tol:.0e})",
            f"min Im(schur) = {worst_herg:.3e} (Herglotz floor -1e-12)",
        ],
        rows,
    )


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 or b.size == 0:
        return math.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def run_bands(cfg: dict) -> ExperimentResult:
    """Band convergence: discrete fiber eigenvalues against limiting roots.

    Eigenvalues come from the finite-element oracle at two resolutions and
    are Richardson-extrapolated in h^2, so the h-discretisation error does
    not contaminate the O(eps^2) fit.
    """
    examples = [e for e in _cfg_examples(cfg) if e in ("ex0", "ex2")]
    n_bands = int(cfg.get("n_bands", 3))
    taus = tau_grid(int(cfg.get("tau_count", 17)))
    eps_values = [float(e) for e in (_as_list(cfg.get("eps_list")) or
                                     [2.0**-j for j in range(3, 7)])]
    res = int(cfg.get("resolution", 1024))
    z_max = float(cfg.get("z_max", 260.0))
    rows, summary = [], []
    passed = True

    def eig_extrapolated(g, weights, fiber):
        lo = DiscretizedOperator(g, weights, fiber, resolution=res // 2)
        hi = DiscretizedOperator(g, weights, fiber, resolution=res)
        v_lo = lo.eigenvalues(n_bands)
        v_hi = hi.eigenvalues(n_bands)
        return (4.0 * v_hi - v_lo) / 3.0

    for name in examples:
        g = build_example(name)
        # the limiting roots do not depend on eps (ex0/ex2 take no eps)
        limits = [dispersion.band_roots(g, float(tau), z_max)[:n_bands] for tau in taus]
        dist_per_eps = []
        for eps in eps_values:
            worst = 0.0
            for tau, limit in zip(taus, limits):
                tau = float(tau)
                weights = datta_weights(g, tau)
                ev = eig_extrapolated(g, weights, FiberParams(eps, tau, complex(2, 1)))
                worst = max(worst, _hausdorff(ev, limit))
                for b_idx, (lv, dv) in enumerate(zip(limit, ev)):
                    rows.append(
                        dict(
                            example=name,
                            eps=eps,
                            tau=tau,
                            band_index=b_idx,
                            z_root=float(lv),
                            z_discrete=float(dv),
                        )
                    )
            dist_per_eps.append(worst)
        fit = fit_slope(eps_values, dist_per_eps, lo=1.7, hi=2.3)
        passed = passed and fit.passed
        summary.append(
            f"{name}: Hausdorff distances "
            f"{['%.2e' % d for d in dist_per_eps]}, slope {fit.slope:.3f} "
            f"(band [1.7, 2.3], R^2 {fit.r_squared:.4f})"
        )
    return ExperimentResult("bands", passed, summary, rows)


def run_line_models(cfg: dict) -> ExperimentResult:
    """Real-line symbol identities and the ex1 model convergence rate."""
    tol = float(cfg.get("tol", 1e-10))
    grid = realline.make_line_grid(
        float(cfg.get("half_width", 32.0)), int(cfg.get("grid_size", 4096))
    )
    zs = _cfg_z(cfg)
    eps_values = _cfg_eps(cfg)
    sigma = float(cfg.get("sigma", 0.5))
    rows, summary = [], []
    passed = True
    for name in _cfg_examples(cfg):
        g = build_example(name)
        worst = 0.0
        for z in zs:
            for eps in (0.125, 0.0625):
                d = realline.symbol_identity_defect(g, eps, z, grid)
                worst = max(worst, d)
                rows.append(
                    dict(
                        example=name,
                        kind="symbol_defect",
                        eps=eps,
                        re_z=z.real,
                        im_z=z.imag,
                        value=d,
                    )
                )
        ok = worst <= tol
        passed = passed and ok
        summary.append(f"{name}: max symbol defect {worst:.2e} (tol {tol:.0e})")
    if "ex1" in _cfg_examples(cfg):
        g1 = build_example("ex1")
        f = realline.gaussian_packet(grid, width=sigma)
        slopes = []
        for z in zs:
            errs = [
                realline.ex1_model_distance(g1, e, z, grid, f=f)
                for e in eps_values
            ]
            fit = fit_slope(eps_values, errs)
            slopes.append(fit.slope)
            passed = passed and fit.passed
            for e, err in zip(eps_values, errs):
                rows.append(
                    dict(
                        example="ex1",
                        kind="model_error",
                        eps=e,
                        re_z=z.real,
                        im_z=z.imag,
                        value=err,
                    )
                )
        summary.append(
            f"ex1 model-vs-limit slopes {['%.3f' % s for s in slopes]}"
        )
    return ExperimentResult("line_models", passed, summary, rows)


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


def run_experiment(tag: str, cfg: dict | None = None) -> ExperimentResult:
    """Run one tagged experiment with the given (flat) configuration."""
    if tag not in _RUNNERS:
        raise ValueError(
            f"unknown experiment tag {tag!r}; known: {', '.join(EXPERIMENT_TAGS)}"
        )
    return _RUNNERS[tag](cfg or {})
