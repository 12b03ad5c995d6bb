"""Spans around the public entry points of qglab's layers, recorded from outside.

``Tracer`` wraps each function or method named in ``LAYERS``.  Every call
becomes a span: name, parent span, start, duration and self time (duration
minus the time of the child spans).  A module-level function is replaced
under every name that holds it in any ``qglab`` module, because modules bind
each other's functions by name (``ccot``/``ccsc`` in ``dispersion``,
``triples`` and ``realline``, ``k_closed`` in ``realline``).  A method is
replaced on its class.  Spans stay in memory and are written out with
``save``.  Everything is restored when the ``with`` block ends.

The stack of open spans assumes one thread; the benchmark leaves
``QGLAB_WORKERS`` unset so the harness runs its sweeps in order.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layers and the entry points that are timed.  ``graphs`` (under 1% of every
# workload) and ``cli`` (a thin wrapper around run_experiment) are not
# wrapped; their time is part of ``lab.self_s``.
LAYERS = {
    "mmatrix": (
        "ccot",
        "ccsc",
        "m_general",
        "m_blocks_closed",
        "check_additivity",
        "herglotz_min_eig",
        "MMatrixSet.symmetry_defect",
    ),
    "krein": (
        "make_grid",
        "ComponentFrame.m_matrix",
        "ComponentFrame.gamma_fields",
        "ResolventWorkspace.dirichlet_matrix",
        "ResolventWorkspace.gamma_matrix",
        "ResolventWorkspace.gamma1_dirichlet_rows",
        "ResolventWorkspace.krein_matrix",
        "ResolventWorkspace.generalized_matrix",
    ),
    "fdsolver": (
        "DiscretizedOperator.__init__",
        "DiscretizedOperator.eigenvalues",
        "DiscretizedOperator.resolvent_matrix",
        "DiscretizedOperator.symmetry_defect",
        "DiscretizedOperator.vertex_flux_residual",
    ),
    "effective": (
        "effective_params",
        "xi_ex1",
        "EffectiveModel.__init__",
        "EffectiveModel.r_eff_matrix",
        "EffectiveModel.a_hom_matrix",
        "EffectiveModel.schur_frobenius",
        "EffectiveModel.compose",
        "EffectiveModel.dilation_blocks",
        "PsiEmbedding.__init__",
        "PsiEmbedding.forward_matrix",
        "PsiEmbedding.adjoint_matrix",
    ),
    "triples": (
        "b_matrix",
        "rotation_x",
        "rotate_triple",
        "projection_transform",
        "second_swap",
        "btilde_closed_ex0",
        "alpha_beta_ex1",
        "delta_fn",
        "delta_limit",
        "b_eff",
        "btilde_numeric",
        "beff_deviation",
    ),
    "dispersion": (
        "k_closed",
        "k_series",
        "verify_sum_identities",
        "schur_frobenius",
        "flat_levels",
        "band_roots",
    ),
    "realline": (
        "stiff_length",
        "make_line_grid",
        "gaussian_packet",
        "multiplier_symbol",
        "psi_k_apply",
        "difference_symbol",
        "solve_difference_model",
        "differential_symbol_ex1",
        "solve_differential_model_ex1",
        "symbol_identity_defect",
        "ex1_model_distance",
    ),
    "lab": ("operator_norm_diff",),
}


def _result_size(args, result):
    return result.size


# Counts kept at span boundaries: span name -> (counter, amount per call).
COUNTERS = {
    # the sum of n^2 over the dense resolvent matrices built
    "krein.ResolventWorkspace.dirichlet_matrix": ("krein.dense_entries", _result_size),
    "krein.ResolventWorkspace.krein_matrix": ("krein.dense_entries", _result_size),
    "krein.ResolventWorkspace.generalized_matrix": ("krein.dense_entries", _result_size),
    "fdsolver.DiscretizedOperator.__init__": ("fdsolver.dofs", lambda args, result: args[0].ndof),
    "dispersion.band_roots": ("dispersion.roots", _result_size),
    "realline.multiplier_symbol": ("realline.symbol_points", _result_size),
    "realline.difference_symbol": ("realline.symbol_points", _result_size),
    "realline.differential_symbol_ex1": ("realline.symbol_points", _result_size),
}


class Tracer:
    """Context manager that traces qglab's layers while it is active."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._duration = array("d")
        self._self = array("d")
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id[name] = len(self.names)
        self.names.append(name)
        counter, amount = COUNTERS.get(name, (None, None))
        span_name, parent, start = self._span_name, self._parent, self._start
        duration, self_time, stack = self._duration, self._self, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            start.append(0.0)
            duration.append(0.0)
            self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += d
                start[idx] = t0
                duration[idx] = d
                self_time[idx] = d - frame[1]
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + int(amount(args, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        qglab_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qglab" or n.startswith("qglab."))
        ]
        try:
            for layer, targets in LAYERS.items():
                module = sys.modules[f"qglab.{layer}"]
                for target in targets:
                    name = f"{layer}.{target}"
                    owner_name, _, attr = target.rpartition(".")
                    if owner_name:
                        owner = getattr(module, owner_name, None)
                        original = None if owner is None else owner.__dict__.get(attr)
                        if original is None:
                            self.missing.append(name)
                            continue
                        self._restore.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name, original))
                        continue
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(name)
                        continue
                    wrapper = self._wrap(name, original)
                    for mod in qglab_modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, key, original))
                                setattr(mod, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as parallel arrays, one entry per call."""
        return dict(
            name=np.frombuffer(self._span_name, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            duration=np.frombuffer(self._duration, dtype=np.float64).copy(),
            self_time=np.frombuffer(self._self, dtype=np.float64).copy(),
        )

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total (inclusive) and self time per traced entry point."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=a["duration"], minlength=n)
        own = np.bincount(a["name"], weights=a["self_time"], minlength=n)
        return {
            name: dict(calls=int(calls[i]), total_s=float(total[i]), self_s=float(own[i]))
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self.name_id or parent_name not in self.name_id:
            return 0
        a = self.arrays()
        child = a["name"] == self.name_id[name]
        parents = a["parent"][child]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["name"][parents] == self.name_id[parent_name]))

    def save(self, path: str) -> None:
        """Write the spans and the name table to ``path`` (numpy .npz)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``*.busy_s`` is a layer's self time; the other ``*_s`` metrics are the
    inclusive time of one entry point.  ``lab.self_s`` is the pass time that
    no span covers: the harness itself (with the numpy work written inline in
    ``lab``), ``graphs`` and ``cli``.
    """
    per = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    def total(name):
        return per.get(name, {}).get("total_s", 0.0)

    def layer_sum(layer, key):
        return sum(v[key] for k, v in per.items() if k.partition(".")[0] == layer)

    scan_kcalls = tracer.calls_under("dispersion.k_closed", "dispersion.band_roots")
    return {
        "fdsolver.assemble_s": total("fdsolver.DiscretizedOperator.__init__"),
        "fdsolver.assemble_calls": calls("fdsolver.DiscretizedOperator.__init__"),
        "fdsolver.dofs": counts.get("fdsolver.dofs", 0),
        "fdsolver.eig_s": total("fdsolver.DiscretizedOperator.eigenvalues"),
        "fdsolver.eig_calls": calls("fdsolver.DiscretizedOperator.eigenvalues"),
        "fdsolver.solve_s": total("fdsolver.DiscretizedOperator.resolvent_matrix"),
        "fdsolver.busy_s": layer_sum("fdsolver", "self_s"),
        "dispersion.k_closed_calls": calls("dispersion.k_closed"),
        "dispersion.band_roots_s": total("dispersion.band_roots"),
        "dispersion.series_s": total("dispersion.k_series"),
        "dispersion.roots_per_kcall": (
            counts.get("dispersion.roots", 0) / scan_kcalls if scan_kcalls else 0.0
        ),
        "dispersion.busy_s": layer_sum("dispersion", "self_s"),
        "mmatrix.trig_calls": calls("mmatrix.ccot") + calls("mmatrix.ccsc"),
        "mmatrix.busy_s": layer_sum("mmatrix", "self_s"),
        "krein.busy_s": layer_sum("krein", "self_s"),
        "krein.calls": layer_sum("krein", "calls"),
        "krein.dense_entries": counts.get("krein.dense_entries", 0),
        "effective.busy_s": layer_sum("effective", "self_s"),
        "effective.calls": layer_sum("effective", "calls"),
        "triples.busy_s": layer_sum("triples", "self_s"),
        "realline.busy_s": layer_sum("realline", "self_s"),
        "realline.symbol_points": counts.get("realline.symbol_points", 0),
        "lab.opnorm_s": total("lab.operator_norm_diff"),
        "lab.opnorm_calls": calls("lab.operator_norm_diff"),
        "lab.self_s": wall_s - sum(v["self_s"] for v in per.values()),
    }
