"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  It checks that

1. the correctness check rejects a mutated signal value, a roundoff value
   above its tolerance and a missing row, and accepts the untouched result;
2. two traced passes of every workload at seed 0 pass every check and give
   exactly the same counts;
3. ``fdsolver`` is never called on ``resolvent_fine`` and
   ``closed_forms_dense``, and ``k_closed`` never on ``resolvent_fine``;
4. in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits non-zero without printing a result.

It also prints the slope fits at |tau| < 0.3 that keep the seeded tau draws
of ``workloads.py`` out of that range.  The exit status is 0 when every
check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run

FDSOLVER_COUNTS = ("fdsolver.assemble_calls", "fdsolver.dofs", "fdsolver.eig_calls")


def check_mutations(run_experiment, check, workloads) -> list[str]:
    runs = workloads.build("closed_forms_dense", 0)
    reference = check.load_reference("closed_forms_dense")
    index = {tag: i for i, (tag, _) in enumerate(runs)}
    failures = []

    def expect(label, result, tag, should_fail):
        found = check.problems(result, reference[index[tag]])
        if bool(found) != should_fail:
            failures.append(f"mutation check '{label}': problems {found[:3]}")

    beff = run_experiment("beff_rate", runs[index["beff_rate"]][1])
    expect("untouched beff_rate", beff, "beff_rate", False)
    bad = copy.deepcopy(beff)
    bad.rows[5]["error"] *= 1.0 + 1e-4
    expect("error x (1 + 1e-4)", bad, "beff_rate", True)
    bad = copy.deepcopy(beff)
    del bad.rows[-1]
    expect("row removed", bad, "beff_rate", True)

    schur = run_experiment("schur_check", runs[index["schur_check"]][1])
    expect("untouched schur_check", schur, "schur_check", False)
    bad = copy.deepcopy(schur)
    bad.rows[0]["residual"] = 1e-6
    expect("residual above 1e-9", bad, "schur_check", True)

    line = run_experiment("line_models", runs[index["line_models"]][1])
    bad = copy.deepcopy(line)
    row = next(r for r in bad.rows if r["kind"] == "model_error")
    row["value"] *= 1.0 - 1e-4
    expect("model_error x (1 - 1e-4)", bad, "line_models", True)
    return failures


def check_traced_passes(run_experiment, check, spans, workloads) -> list[str]:
    failures = []
    for name in workloads.WORKLOADS:
        runs = workloads.build(name, 0)
        reference = check.load_reference(name)
        counts = []
        for _ in range(2):
            with spans.Tracer() as tracer:
                wall, failed, notes = run.run_pass(run_experiment, check, runs, reference)
            failures += [f"{name}: {note}" for note in notes]
            metrics = spans.layer_metrics(tracer, wall)
            counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        scan = tracer.calls_under("dispersion.k_closed", "dispersion.band_roots")
        print(f"{name}: counts {json.dumps(counts[0])}; k_closed calls inside band_roots {scan}")
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
            failures.append(f"{name}: counts differ between two traced passes: {diff}")
        zero = {
            "acceptance": (),
            "resolvent_fine": FDSOLVER_COUNTS + ("dispersion.k_closed_calls",),
            "closed_forms_dense": FDSOLVER_COUNTS,
        }[name]
        failures += [f"{name}: {k} = {counts[0][k]}, expected 0" for k in zero if counts[0][k]]
    return failures


def check_bare_directory(root: str) -> list[str]:
    bare = os.path.join(root, ".bench_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "acceptance", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout tail {lines[-1:]}"]
    return []


def print_small_tau_finding(run_experiment) -> None:
    probes = (
        ("gen_res_rate", [0.02, 0.05, 0.3]),
        ("full_res_rate", [0.1, 0.15, 0.3]),
        ("beff_rate", [0.02, 0.05, 0.3]),
    )
    for tag, taus in probes:
        result = run_experiment(tag, {"examples": ["ex1"], "tau_list": taus})
        print(f"finding: {tag} ex1 at tau {taus}: {'; '.join(result.summary)}")


def main() -> int:
    root = os.getcwd()
    run.pin_environment(root)
    run.import_qglab(root)
    from qglab.lab import run_experiment

    import check
    import spans
    import workloads

    failures = check_mutations(run_experiment, check, workloads)
    failures += check_traced_passes(run_experiment, check, spans, workloads)
    failures += check_bare_directory(root)
    print_small_tau_finding(run_experiment)
    for failure in failures:
        print("SELFTEST FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
