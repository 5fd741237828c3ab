"""The repository's benchmark: the index build, SCTL* refinement and the
router fleet, end to end and per layer.

Run every workload, printing each figure with its unit, and exit
non-zero if any answer check fails::

    python3 perfbench/run.py

Run one workload the way the regression gate does; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``::

    python3 perfbench/run.py --workload index-build --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports its per-layer metrics and
writes the spans it kept to ``perfbench/.work/``.  A per-layer metric
whose layer a workload never calls reads 0.  See ``perfbench/README.md``
for what each metric means and which end-to-end figure it should move.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys

import inputs
from common import ROOT, WORK, Outcome, Tracer

WORKLOADS = ("index-build", "query-refine", "fleet-serve")


def _load_program():
    """Import the package from the checkout's ``src``; fail fast if absent.

    An installed copy elsewhere must not stand in for the checkout's code.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {src}")


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}")


def run_one(workload, seed, seconds, trace):
    spec = _spec()
    _load_program()
    # the workload modules import the program, so only after it is found
    module = importlib.import_module(workload.replace("-", "_"))
    tracer = Tracer(enabled=bool(trace))
    out = Outcome()
    try:
        module.run(seed, seconds, tracer, out)
    except inputs.InputMismatch as exc:
        raise SystemExit(f"perfbench: {exc}")
    if tracer.enabled:
        tracer.write(os.path.join(WORK, f"trace-{workload}-{seed}.jsonl"))

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in out.metrics and not trace:
            raise SystemExit(f"perfbench: {workload} did not measure {name}")
        value = out.metrics.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}

    for name, value, unit in out.report:
        print(f"{workload:<13} {name:<32} {value:>14.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{workload:<13} {name:<32} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"{workload:<13} {'failed_frac':<32} {failed_frac:>14.6g} ratio "
          f"({out.failed} of {out.attempted})")
    for message in out.errors[:10]:
        print(f"{workload}: failed: {message}", file=sys.stderr)
    for message in out.problems:
        print(f"{workload}: WRONG ANSWER: {message}", file=sys.stderr)
    correct = not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    for workload in WORKLOADS:
        code = subprocess.call([
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ], cwd=ROOT)
        status = status or code
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = _spec()["run_seconds"]
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)
    return run_one(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
