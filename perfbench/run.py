"""Benchmark of the qglab certification lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` there.  Each pass calls ``qglab.lab.run_experiment`` on every
(tag, config) pair of the workload (``workloads.py``) and checks every
result (``check.py``).  Passes repeat until ``--seconds`` would be exceeded.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median over fresh interpreters, one before each pass and at
least five, of ``import qglab`` plus one fiber point) and ``peak_rss_mb``
(peak resident memory after the first pass).
``--trace 1`` spends half the time on untraced passes and half on traced
ones (``spans.py``) and reports the per-layer metrics of the traced pass
with the median time, ``trace.overhead_s`` and ``fail_frac``; the spans of
the last traced pass are written to
``.bench_build/perfbench/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (experiments that raised, reported
``passed=False`` or failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
SETUP_CODE = (
    "import qglab\n"
    "from qglab.graphs import build_example\n"
    "from qglab.mmatrix import FiberParams, m_blocks_closed\n"
    "m_blocks_closed(build_example('ex0'), FiberParams(0.1, 1.0, 2 + 1j))\n"
)
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pin_environment(root: str) -> dict[str, str]:
    """Pin BLAS threads, unset QGLAB_WORKERS and put ``root/src`` first on
    the import path; must run before numpy is imported.  Returns the
    environment for child interpreters."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("QGLAB_WORKERS", None)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def import_qglab(root: str):
    """Import the library from ``root/src``, refusing any other copy."""
    if not os.path.isfile(os.path.join(root, "src", "qglab", "__init__.py")):
        raise SystemExit(f"no qglab sources under {os.path.join(root, 'src')}; run from a checkout root")
    import qglab

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qglab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported qglab from {qglab.__file__}, not from {src}")
    return qglab


def environment_record(root: str) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "qglab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return dict(
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        git_sha=sha,
        src_sha256=digest.hexdigest(),
        nproc=len(os.sched_getaffinity(0)),
        env={k: os.environ.get(k) for k in (*PINNED_ENV, "QGLAB_WORKERS")},
    )


def setup_once(root: str, env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports qglab and computes one
    fiber point: what every CLI verb pays before its first experiment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def run_pass(run_experiment, check, runs, reference) -> tuple[float, int, list[str]]:
    """One pass over the workload: (summed experiment time, failures, notes)."""
    wall, failed, notes = 0.0, 0, []
    for i, (tag, cfg) in enumerate(runs):
        t0 = time.perf_counter()
        try:
            result = run_experiment(tag, cfg)
        except Exception:
            wall += time.perf_counter() - t0
            failed += 1
            notes.append(f"{tag}: raised\n{traceback.format_exc()}")
            continue
        wall += time.perf_counter() - t0
        found = check.problems(result, None if reference is None else reference[i])
        if found:
            failed += 1
            notes.append(f"{tag}: {'; '.join(found[:5])}")
    return wall, failed, notes


def timed_passes(deadline: float, one_pass) -> list:
    """Results of ``one_pass`` calls: at least one, then more while the
    median pass still fits before ``deadline``."""
    out = [one_pass()]
    while time.perf_counter() + statistics.median(o[0] for o in out) <= deadline:
        out.append(one_pass())
    return out


def untraced_run(deadline: float, one_pass, one_setup):
    """Alternate set-up samples and passes until the next round would end
    after ``deadline``; the host's speed drifts over tens of seconds, so both
    metrics sample the same stretch of it.  Returns (set-up times, passes,
    peak resident kB after the first pass)."""
    setup, passes, rounds = [], [], []
    while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        t0 = time.perf_counter()
        setup.append(one_setup())
        passes.append(one_pass())
        if len(passes) == 1:
            # the peak of one pass in a fresh process, as one CLI verb sees it
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append(time.perf_counter() - t0)
    while len(setup) < SETUP_REPEATS:
        setup.append(one_setup())
    return setup, passes, peak_kb


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name in ("fail_frac", "dispersion.roots_per_kcall"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    child_env = pin_environment(root)
    import_qglab(root)
    from qglab.lab import run_experiment

    sys.path.insert(0, HERE)
    import check
    import spans
    import workloads

    runs = workloads.build(args.workload, args.seed)
    reference = check.load_reference(args.workload) if args.seed == 0 else None
    print("env:", json.dumps(environment_record(root), sort_keys=True))
    print("runs:", json.dumps(runs))

    def untraced():
        return run_pass(run_experiment, check, runs, reference)

    metrics: dict[str, float] = {}
    if args.trace == 0:
        setup, passes, peak_kb = untraced_run(
            time.perf_counter() + args.seconds, untraced, lambda: setup_once(root, child_env)
        )
        metrics["wall_s"] = statistics.median(p[0] for p in passes)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        print("setup_s:", setup)
    else:
        def traced():
            with spans.Tracer() as tracer:
                wall, failed, notes = untraced()
            return wall, failed, notes, spans.layer_metrics(tracer, wall), tracer

        start = time.perf_counter()
        plain = timed_passes(start + args.seconds / 2, untraced)
        passes = timed_passes(start + args.seconds, traced)
        # all layer metrics from one pass, so that its self times add up
        metrics.update(sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2][3])
        metrics["trace.overhead_s"] = statistics.median(p[0] for p in passes) - statistics.median(
            p[0] for p in plain
        )
        tracer = passes[-1][4]
        passes = plain + passes
        metrics["fail_frac"] = sum(p[1] for p in passes) / (len(passes) * len(runs))
        if tracer.missing:
            print("not traced (absent):", ", ".join(tracer.missing))
        out_dir = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
        table = sorted(tracer.by_name().items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in (kv for kv in table if kv[1]["calls"]):
            print(f"span {name:48s} calls {row['calls']:8d} total {row['total_s']:9.4f} s self {row['self_s']:9.4f} s")

    print("pass_s:", [p[0] for p in passes])
    failed = sum(p[1] for p in passes)
    for p in passes:
        for note in p[2]:
            print("FAILED", note)
    print(json.dumps(dict(
        correct=failed == 0,
        attempted=len(passes) * len(runs),
        failed=failed,
        metrics={k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
