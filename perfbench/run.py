"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload sim-hit-heavy --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  The line before the
result is a JSON object with the seed, the held-out seed, sample counts
and any failed output check.  Exit status: 0 when every output check
passed, 1 when one failed, 2 on a usage error or a missing program
source.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-hit-heavy", "sim-churn", "live-open-loop")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import inputs
    import report

    (ROOT / report.OUTPUT_DIR).mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "live-open-loop":
        import liveload
        outcome = liveload.run_workload(args.seed, args.seconds, trace)
    else:
        import simload
        outcome = simload.run_workload(args.workload, args.seed,
                                       args.seconds, trace)

    units = report.PER_LAYER if trace else report.END_TO_END
    metrics = dict(outcome.metrics)
    if not trace:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kib / 1024.0
    problems = list(outcome.problems)
    expected = {name for name in units
                if not name.startswith(outcome.absent)}
    if set(metrics) != expected:
        problems.append(f"metric set mismatch: "
                        f"{sorted(set(metrics) ^ expected)}")
    metrics = {name: metrics.get(name, 0.0) for name in units}

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "held_out_seed": inputs.HELD_OUT_SEED,
                      "seconds": args.seconds, "trace": args.trace,
                      "problems": problems, **outcome.info},
                     sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
