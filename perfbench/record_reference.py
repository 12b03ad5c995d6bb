"""Record the seed-0 reference rows that ``check.py`` compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the root of a checkout whose results are known to be right; it
writes ``perfbench/reference/<workload>.json`` for each workload (all by
default).  Every experiment must pass its own checks first.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names: list[str]) -> int:
    root = os.getcwd()
    run.pin_environment(root)
    run.import_qglab(root)
    from qglab.lab import run_experiment

    import check
    import workloads

    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        experiments = []
        for tag, cfg in workloads.build(name, 0):
            result = run_experiment(tag, cfg)
            found = check.problems(result, None)
            if found:
                raise SystemExit(f"{name}/{tag} fails its own checks: {found[:5]}")
            experiments.append(dict(tag=tag, rows=len(result.rows), signals=check.signals(result.rows)))
        record = dict(workload=name, seed=0, env=run.environment_record(root), experiments=experiments)
        with open(check.reference_path(name), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(experiments)} experiments recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
