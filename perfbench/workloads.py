"""The benchmark's workloads: lists of (experiment tag, config) pairs.

Seed 0 runs the fixed configs below.  Any other seed redraws every ``tau_list``
of ``resolvent_fine`` and ``closed_forms_dense`` with the same counts, so the
work size stays the same.  Draws are uniform on the certified quasimomentum
range ``pi - 1e-3 >= |tau| >= 0.3`` that the default lists of the library
cover: below |tau| ~ 0.18 the ex1 slope fits over the default eps range are
still pre-asymptotic and leave [1.8, 2.2] (see ``selftest.py``), which is a
finding about the certificates, not a property of the code being timed.
"""

from __future__ import annotations

import math
import random

TAU_MIN = 0.3
TAU_MAX = math.pi - 1e-3

# ±linspace(0.3, pi - 1e-3, 16): the default lists' range at four times the density
BEFF_TAUS = [
    s * (TAU_MIN + (TAU_MAX - TAU_MIN) * i / 15) for s in (-1.0, 1.0) for i in range(16)
]

ACCEPTANCE_TAGS = (
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

WORKLOADS = {
    # the eleven experiments at default configs: what the acceptance tests
    # and the CLI verbs run; the only workload with FEM, eigsh and band_roots
    "acceptance": [(tag, {}) for tag in ACCEPTANCE_TAGS],
    # dense Krein and generalised resolvents, effective models and power
    # iterations at n ~ 100-260; no FEM and no band scan
    "resolvent_fine": [
        ("gen_res_rate", {"resolution": 256}),
        ("full_res_rate", {"resolution": 256}),
    ],
    # scalar closed forms (trig kernels, k_closed/k_series, real-line symbols)
    # on dense grids; no FEM and only tiny resolvents
    "closed_forms_dense": [
        ("additivity", {"tau_count": 81}),
        ("btilde_identity", {"tau_count": 80}),
        ("beff_rate", {"tau_list": BEFF_TAUS}),
        ("dispersion_series", {"tau_count": 65}),
        ("schur_check", {}),
        ("line_models", {"grid_size": 32768}),
        ("sum_identities", {"n_terms": 4_000_000}),
    ],
}

# tau_list lengths of the runners' defaults, for runners whose seed-0 config
# leaves the list to the library
DEFAULT_TAU_COUNTS = {"gen_res_rate": 8, "full_res_rate": 8, "schur_check": 4}


def _draw_tau(rng: random.Random) -> float:
    magnitude = rng.uniform(TAU_MIN, TAU_MAX)
    return magnitude if rng.random() < 0.5 else -magnitude


def build(name: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (tag, config) list for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    runs = [(tag, dict(cfg)) for tag, cfg in WORKLOADS[name]]
    if seed == 0 or name == "acceptance":
        return runs
    rng = random.Random(seed)
    for tag, cfg in runs:
        count = len(cfg["tau_list"]) if "tau_list" in cfg else DEFAULT_TAU_COUNTS.get(tag)
        if count:
            cfg["tau_list"] = [_draw_tau(rng) for _ in range(count)]
    return runs
