"""Command-line interface.

Verbs map to groups of experiment tags:

    mmatrix          additivity
    resolvent        krein_vs_direct
    converge         gen_res_rate, full_res_rate
    bands            bands
    dispersion       dispersion_series, schur_check, sum_identities
    line             line_models
    verify-appendix  btilde_identity, beff_rate

Each verb accepts ``--config <path>`` (flat key=value file) and
``--out <dir>`` (CSV output directory).  A verb's tags share its config
file: each tag gets the keys it accepts, and a key no tag of the verb
accepts, or a value of the wrong type, exits with status 2 before any
experiment runs.  ``qglab --list`` enumerates the experiment tags.  Exit
status is 0 iff every executed experiment passes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .graphs import ParameterError
from .lab import (
    EXPERIMENT_TAGS,
    ExperimentResult,
    bind_config,
    config_keys,
    parse_config,
    run_experiment,
    write_csv,
)

VERB_TAGS: dict[str, tuple[str, ...]] = {
    "mmatrix": ("additivity",),
    "resolvent": ("krein_vs_direct",),
    "converge": ("gen_res_rate", "full_res_rate"),
    "bands": ("bands",),
    "dispersion": ("dispersion_series", "schur_check", "sum_identities"),
    "line": ("line_models",),
    "verify-appendix": ("btilde_identity", "beff_rate"),
}


def _emit(result: ExperimentResult, out_dir: str | None) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.tag}")
    for line in result.summary:
        print(f"    {line}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, f"{result.tag}.csv"), result.rows)
        for name, table in result.extra_tables.items():
            write_csv(os.path.join(out_dir, f"{name}.csv"), table())


def _bind_verb(verb: str, cfg: dict) -> list[tuple[str, dict]]:
    """Each tag of ``verb`` with its share of the verb's config, bound."""
    tags = VERB_TAGS[verb]
    accepted = list(dict.fromkeys(k for tag in tags for k in config_keys(tag)))
    unknown = [key for key in cfg if key not in accepted]
    if unknown:
        raise ParameterError(
            f"{verb} does not take {', '.join(unknown)}; "
            f"accepted keys: {', '.join(accepted)}"
        )
    return [
        (tag, bind_config(tag, {k: cfg[k] for k in config_keys(tag) if k in cfg}))
        for tag in tags
    ]


def _run_tags(runs, out_dir) -> bool:
    all_ok = True
    report_lines = []
    for tag, cfg in runs:
        t0 = time.perf_counter()
        result = run_experiment(tag, cfg)
        dt = time.perf_counter() - t0
        _emit(result, out_dir)
        print(f"    ({dt:.1f} s)")
        all_ok = all_ok and result.passed
        report_lines.append(
            f"{'PASS' if result.passed else 'FAIL'} {tag} ({dt:.1f} s)"
        )
        report_lines.extend(f"  {line}" for line in result.summary)
    if out_dir:
        with open(os.path.join(out_dir, "summary.txt"), "a") as fh:
            fh.write("\n".join(report_lines) + "\n")
    return all_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qglab",
        description=(
            "Numerical laboratory for critical-contrast periodic quantum "
            "graphs: M-matrices, resolvent formulas, effective models, "
            "dispersion functions, band structure, and real-line models."
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment tags and exit",
    )
    sub = parser.add_subparsers(dest="verb")
    for verb, tags in VERB_TAGS.items():
        p = sub.add_parser(verb, help=f"run: {', '.join(tags)}")
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", help="directory for CSV output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for tag in EXPERIMENT_TAGS:
            print(tag)
        return 0
    if not args.verb:
        parser.print_help()
        return 2
    try:
        runs = _bind_verb(args.verb, parse_config(args.config) if args.config else {})
    except (OSError, ValueError) as exc:
        print(f"qglab: {exc}", file=sys.stderr)
        return 2
    ok = _run_tags(runs, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
