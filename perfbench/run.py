"""Run one freemono benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 25] [--trace 0|1]

Run it from anywhere inside a checkout that holds ``src/freemono``; it
reads and writes nothing outside the checkout.  Workloads: schur-equiv,
gmean-equiv, suite-all, witness-replay (see ``perfbench/README.md``).

The run starts fresh Python processes, all with OpenBLAS, OpenMP and MKL
pinned to one thread: one process that runs the workload
(``workload.py``) and, with ``--trace 0``, ``SETUP_PROBES`` set-up probes
before it and as many after it, each timed from outside until freemono is
imported and the workload's catalog functions are built.  Probing on both
sides of the workload samples the host's speed at two moments half a
minute apart, which steadies the median.  It prints the environment and every metric by name
with its unit, then, as the last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The exit code is 0 when every correctness gate
held, 1 when one failed or the workload did not finish, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # before the workload, and again after it
DEADLINE_S = 170.0  # every process this run starts has ended by then
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    """A child process failed; the run prints no result."""


def _child(args: list, deadline: float, until_line: bool = False):
    """Run ``workload.py`` with ``args``; return (seconds to first line, stdout)."""
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline() if until_line else b""
            seconds = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args)} exited with code {proc.returncode}")
    return seconds, (first + rest).decode()


def measure_setup(workload: str, deadline: float) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        seconds, out = _child(["--setup-probe", workload], deadline, until_line=True)
        if out.split("\n", 1)[0] != "ready":
            raise RunError(f"set-up probe printed {out!r}")
        samples.append(seconds)
    return samples


def _fmt(seconds: list) -> str:
    return " ".join(f"{s:.4f}" for s in seconds) + " s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "freemono" / "__init__.py").is_file():
        print(f"perfbench: no freemono sources under {SRC}", file=sys.stderr)
        return 2
    load = os.getloadavg()[0]
    try:
        setup = measure_setup(args.workload, deadline) if not args.trace else []
        _, out = _child(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        result = json.loads(out.strip().splitlines()[-1])
        if setup:
            setup += measure_setup(args.workload, deadline)
    except (RunError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    env = result["environment"]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops_per_iteration={result['ops_per_iteration']}")
    print(f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
          f"loadavg_1m={load:.2f} threads=1")
    metrics = {}
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if setup:
        print(f"  (setup_s: median of {len(setup)} fresh processes: {_fmt(setup)})")
    walls = result["walls"]
    label = "recipe, untraced" if args.trace else f"timed, {result['parts']} parts each"
    print(f"  ({len(walls)} iterations, {label}: min {min(walls):.4f} "
          f"max {max(walls):.4f} s)")
    for name, (value, unit) in result.get("extra", {}).items():
        print(f"  {name} {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for problem in result["problems"]:
        print(f"perfbench: correctness: {problem}", file=sys.stderr)
    correct = failed == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
