"""One benchmark workload in one process: the child that ``run.py`` starts.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --setup-probe NAME

A workload run is a closed loop with one client.  A check workload calls
``freemono.cli.main(argv)`` again and again; ``witness-replay`` replays
its seeded corpus record by record, one pass per iteration.  A timed
check iteration is a slice of the workload's recipe (the check argv with
fewer trials), timed in parts, one per check it runs at top level; a
pass is timed in parts of ``REPLAY_BATCH`` records.  The host's speed
swings by up to half within seconds, and a high percentile over many short
pieces reads the same from run to run where a few long iterations do not
(``iteration_time``).  An untimed warm-up
comes first (a one-trial check call, or one batch); the loop stops
before an iteration that would end after ``--seconds``.

``--trace 1`` times no loop: after the warm-up it runs the full recipe
once untraced and once with every public function of freemono wrapped by
``spans.Tracer``, and reports the per-layer metrics of the traced one.
The last line of standard output is one JSON object with the metrics,
the operation counts and every correctness problem found.

``--setup-probe`` imports freemono, builds the workload's catalog
functions, prints ``ready`` and exits; ``run.py`` times it from outside.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CATALOG = ("identity", "msqrt", "neg_inverse", "inverse", "square",
           "schur_complement", "geometric_mean")
SCALAR_CATALOG = ("x", "sqrt", "neg_inverse", "square", "cube")
REPLAY_FUNCTIONS = ("msqrt", "square", "geometric_mean", "schur_complement")

# workload -> argv of its recipe, one ``freemono.cli.main`` call (``--seed`` is appended)
CHECK_ARGV = {
    "schur-equiv": ["check", "--function", "schur_complement", "--suite", "equivalence",
                    "--levels", "1..4", "--trials", "500", "--jobs", "1"],
    "gmean-equiv": ["check", "--function", "geometric_mean", "--suite", "equivalence",
                    "--levels", "1..4", "--trials", "200", "--jobs", "1"],
    "suite-all": ["check", "--suite", "all", "--levels", "1..3", "--trials", "100",
                  "--jobs", "2"],
}
WORKLOADS = (*CHECK_ARGV, "witness-replay")
# workload -> ``--trials`` of one timed iteration, under 0.2 s for the
# single-function checks; a quarter of the recipe for ``suite-all``, whose
# gates need enough trials to falsify ``square`` and ``cube`` at every seed
TIMED_TRIALS = {"schur-equiv": "8", "gmean-equiv": "4", "suite-all": "25"}
REPLAY_BATCH = 128  # records per timed part of a replay pass; divides the corpus
# workloads whose parts are rated at their slowest repetition, not their fastest
# (see ``iteration_time``): ``suite-all`` keeps both cores busy with its own threads
RATED_SLOWEST = ("suite-all",)
# the checks ``cli`` runs; a timed check call times each top-level one as a part
CLI_CHECKS = ("check_monotone", "check_halfplane", "check_local_monotone", "check_free_axioms",
              "check_boundary_continuity", "check_schur_im_identity", "equivalence_report",
              "cross_check")
SETUP_FUNCTIONS = {"schur-equiv": ("schur_complement",), "gmean-equiv": ("geometric_mean",),
                   "suite-all": CATALOG, "witness-replay": REPLAY_FUNCTIONS}

REPLAY_TOL = 1e-9  # largest |replayed margin - reference margin| accepted


def import_freemono():
    """Import freemono from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import freemono
    if Path(freemono.__file__).resolve().parent != SRC / "freemono":
        raise ImportError(f"freemono imported from {freemono.__file__}, not from {SRC}")
    return freemono


def setup_probe(workload: str):
    freemono = import_freemono()
    for name in SETUP_FUNCTIONS[workload]:
        freemono.catalog(name)
    print("ready", flush=True)


# --------------------------------------------------------------------------
# Correctness gates.  Each returns a list of problems; empty means correct.

def check_gates(workload: str, code: int, doc: dict) -> list:
    problems = []
    if doc["numerical_failures"]:
        problems.append(f"numerical failures: {doc['numerical_failures']}")
    for entry in doc["equivalence"]:
        if not entry["consistent"]:
            problems.append(f"{entry['check']} {entry['function']} is inconsistent")
    if workload == "suite-all":
        if code != 1:
            problems.append(f"exit code {code}, expected 1")
        expect_fail = {(c, f) for c in ("monotone", "local_monotone", "halfplane")
                       for f in ("inverse", "square")}
        expect_fail |= {(c, f) for c in ("loewner_psd", "pick_psd", "monotone_1d")
                        for f in ("square", "cube")}
        for r in doc["reports"]:
            failed = r["verdict"] == "fail"
            if failed != ((r["check"], r["function"]) in expect_fail):
                problems.append(f"{r['check']} {r['function']}: verdict {r['verdict']}")
        axioms = sorted(r["function"] for r in doc["reports"] if r["check"] == "free_axioms")
        if axioms != sorted(CATALOG):
            problems.append(f"free_axioms ran for {axioms}")
        entries = {e["check"]: set() for e in doc["equivalence"]}
        for e in doc["equivalence"]:
            entries[e["check"]].add(e["function"])
        if entries != {"equivalence": set(CATALOG), "cross_check_1d": set(SCALAR_CATALOG)}:
            problems.append(f"equivalence entries {entries}")
        return problems
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    for r in doc["reports"]:
        if r["failures"] != 0 or r["verdict"] != "pass":
            problems.append(f"{r['check']} {r['function']}: {r['failures']} failures")
    entries = doc["equivalence"]
    if len(entries) != 1 or set(entries[0]["sides"].values()) != {"pass"}:
        problems.append(f"equivalence entries {entries}")
    return problems


def check_ops(doc: dict) -> int:
    """One op is one trial: trials x levels, summed over the report's entries."""
    return sum(r["trials"] * len(r["levels"]) for r in doc["reports"])


def witness_points(node) -> int:
    """Point JSON objects (``system``/``level``/``coeffs``) kept in the report."""
    if isinstance(node, dict):
        own = 1 if {"system", "level", "coeffs"} <= node.keys() else 0
        return own + sum(witness_points(v) for v in node.values())
    if isinstance(node, list):
        return sum(witness_points(v) for v in node)
    return 0


# --------------------------------------------------------------------------
# Workload bodies.  Each iteration returns (seconds, ops, failed ops, report
# text or None, seconds of each part).

class CheckWorkload:
    """Check calls; ``iteration`` returns (seconds, ops, failed ops, report, parts).

    ``parts`` are the seconds of each check ``cli`` ran at top level, in
    order, then the rest of the call.  Only the timed slice records them
    (``trials`` given): their timers sit in ``cli``'s namespace for the
    length of one call, so the tracer of ``--trace 1`` never meets them.
    """

    def __init__(self, freemono, workload: str, seed: int, trials: str | None = None):
        self.cli = freemono.cli
        self.workload = workload
        self.argv = CHECK_ARGV[workload] + ["--seed", str(seed)]
        self.timed_parts = trials is not None
        if trials is not None:
            self.argv[self.argv.index("--trials") + 1] = trials
        self.problems: list = []
        self.text = None  # report of the first iteration; all must equal it

    def warm_up(self):
        """One call with a single trial: lazy imports and caches, nothing timed or checked."""
        argv = list(self.argv)
        argv[argv.index("--trials") + 1] = "1"
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(argv)

    @contextlib.contextmanager
    def _part_timers(self, parts: list):
        originals = {name: getattr(self.cli, name) for name in CLI_CHECKS}

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    parts.append(time.perf_counter() - t0)
            return wrapper

        for name, fn in originals.items():
            setattr(self.cli, name, timed(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(self.cli, name, fn)

    def iteration(self):
        out, parts = io.StringIO(), []
        timers = self._part_timers(parts) if self.timed_parts else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), timers:
            code = self.cli.main(self.argv)
        wall = time.perf_counter() - start
        parts.append(wall - sum(parts))
        text = out.getvalue()
        doc = json.loads(text)
        problems = check_gates(self.workload, code, doc)
        if self.text is None:
            self.text = text
        elif text != self.text:
            problems.append("report bytes differ from the first repetition")
        self.problems += problems
        ops = check_ops(doc)
        return wall, ops, ops if problems else 0, text, parts


class ReplayWorkload:
    """Replays; ``iteration`` returns (seconds, ops, failed ops, None, parts).

    One iteration is one pass over the corpus, timed in parts of
    ``REPLAY_BATCH`` consecutive records; the checks run between parts.
    """

    def __init__(self, freemono, seed: int):
        import corpus
        self.fm = freemono
        self.records = corpus.build(seed)
        self.functions = {name: freemono.catalog(name) for name in REPLAY_FUNCTIONS}
        self.problems: list = []
        self.latencies: list = []
        self.margins: dict = {}  # record index -> margin of its first replay

    def warm_up(self):
        """The first batch, checked and counted like any other, but not timed."""
        batch = range(REPLAY_BATCH)
        return len(batch), self._check(batch, self._replay(batch, []))

    def replay(self, record) -> float:
        f = self.functions[record["function"]]
        if record["kind"] == "pair":
            a = self.fm.point_from_json(record["A"], f.in_system)
            b = self.fm.point_from_json(record["B"], f.in_system)
            return self.fm.pair_margin(f, a, b)
        return self.fm.halfplane_margin(f, self.fm.point_from_json(record["P"], f.in_system))

    def _replay(self, indices, latencies: list) -> list:
        clock = time.perf_counter
        margins = []
        for i in indices:
            t0 = clock()
            try:
                margins.append(self.replay(self.records[i]))
            except Exception as exc:  # counted as a failed replay, never dropped
                margins.append(repr(exc))
            latencies.append(clock() - t0)
        return margins

    def _check(self, indices, margins) -> int:
        """Failed replays among ``margins``: off the reference, or off their first replay."""
        failed = 0
        for i, margin in zip(indices, margins):
            record = self.records[i]
            problem = None
            if isinstance(margin, str) or not abs(margin - record["reference"]) <= REPLAY_TOL:
                problem = f"{margin} vs reference {record['reference']}"
            elif self.margins.setdefault(i, margin) != margin:
                problem = f"{margin} vs {self.margins[i]} on its first replay"
            if problem:
                failed += 1
                if len(self.problems) < 20:
                    level = record.get("A", record.get("P"))["level"]
                    self.problems.append(f"record {i}: {record['function']} {record['kind']} "
                                         f"level {level}: {problem}")
        return failed

    def iteration(self):
        parts, failed = [], 0
        for lo in range(0, len(self.records), REPLAY_BATCH):
            batch = range(lo, lo + REPLAY_BATCH)
            start = time.perf_counter()
            margins = self._replay(batch, self.latencies)
            parts.append(time.perf_counter() - start)
            failed += self._check(batch, margins)
        return sum(parts), len(self.records), failed, None, parts


def closed_loop(body, seconds: float):
    """Warm up, then run ``body.iteration`` until the next one would end after ``seconds``.

    Returns the walls and the parts of the timed iterations, the ops and
    failed ops they and the warm-up attempted, and the ops of one iteration.
    """
    begin = time.perf_counter()
    attempted, failed = body.warm_up() or (0, 0)
    walls, parts = [], []
    while True:
        wall, ops, bad, _, its_parts = body.iteration()
        walls.append(wall)
        parts.append(its_parts)
        attempted += ops
        failed += bad
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            return walls, parts, attempted, failed, ops


def iteration_time(parts: list, slowest: bool = False) -> float:
    """The sum over an iteration's parts of each part's fastest (or slowest) time.

    ``parts`` holds one list per iteration, the same parts in the same
    order; with one part this is the fastest (slowest) iteration.  The
    host runs the same work at a few speeds up to 2x apart, and a run's
    mix of them varies, so a median or mean moves from run to run.  The
    speed every run meets is steady: the fast one for a single-threaded
    workload, whose parts repeat a hundred times or more a run; the slow
    one for ``suite-all``, whose two threads load both cores.
    """
    if len({len(p) for p in parts}) != 1:
        raise ValueError("iterations differ in their parts")
    pick = max if slowest else min
    return sum(pick(column) for column in zip(*parts))


def layer_metrics(summary: dict, ops: int, report: str | None, overhead: float) -> dict:
    from spans import LAYERS, RAISING
    m = {}
    for name, entry in summary.items():
        m[f"{name}.calls"] = (entry["calls"], "count")
        m[f"{name}.self_s"] = (entry["self_s"], "s")
    for name in RAISING:
        m[f"{name}.raised"] = (summary[name]["raised"], "count")
    for layer, fns in LAYERS.items():
        m[f"{layer}.self_s"] = (sum(summary[f"{layer}.{fn}"]["self_s"] for fn in fns), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    in_domain = summary["opsys.in_domain"]
    to_json = summary["opsys.point_to_json"]["calls"]
    evals = summary["freeexpr.eval_function"]["calls"]
    kept = witness_points(json.loads(report)) if report else 0
    m["report.bytes"] = (len(report.encode()) if report else 0, "B")
    m["opsys.in_domain.accept_ratio"] = (ratio(in_domain["true"], in_domain["calls"]), "ratio")
    m["opsys.point_to_json.kept_ratio"] = (ratio(kept, to_json), "ratio")
    m["kernels.principal_sqrt.per_eval"] = (
        ratio(summary["kernels.principal_sqrt"]["calls"], evals), "ratio")
    m["kernels.op_norm.per_op"] = (ratio(summary["kernels.op_norm"]["calls"], ops), "ratio")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m


def make_body(freemono, workload: str, seed: int, timed: bool):
    """The workload's timed slice, or (``timed=False``) its whole recipe.

    A replay iteration is one pass over the corpus either way.
    """
    if workload == "witness-replay":
        return ReplayWorkload(freemono, seed)
    return CheckWorkload(freemono, workload, seed, TIMED_TRIALS[workload] if timed else None)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    freemono = import_freemono()
    import freemono.cli  # noqa: F401  (the check workloads call cli.main)
    from spans import percentile
    if trace:
        from spans import Tracer
        body = make_body(freemono, workload, seed, timed=False)
        attempted, failed = body.warm_up() or (0, 0)
        wall, untraced_ops, untraced_bad, _, _ = body.iteration()
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, ops, bad, report, _ = body.iteration()
        finally:
            tracer.uninstall()
        result = {"walls": [wall], "ops_per_iteration": ops,
                  "attempted": attempted + untraced_ops + ops,
                  "failed": failed + untraced_bad + bad,
                  "metrics": layer_metrics(tracer.summary(), ops, report, traced_wall / wall - 1.0)}
    else:
        body = make_body(freemono, workload, seed, timed=True)
        walls, parts, attempted, failed, ops = closed_loop(body, seconds)
        wall = iteration_time(parts, slowest=workload in RATED_SLOWEST)
        m = {"iter_ms": (wall * 1e3, "ms"), "ops_per_s": (ops / wall, "1/s"),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
        result = {"walls": walls, "parts": len(parts[0]), "ops_per_iteration": ops,
                  "attempted": attempted,
                  "failed": failed, "metrics": m,
                  "extra": {"iter_p50_ms": (statistics.median(walls) * 1e3, "ms"),
                            "iter_p90_ms": (percentile(walls, 90, beyond=0) * 1e3, "ms")}}
        if workload == "witness-replay":
            # Printed beside the end-to-end metrics: the check workloads have no
            # per-replay latency, and every end-to-end metric covers all workloads.
            lat = body.latencies
            result["extra"].update(replay_p50_ms=(percentile(lat, 50) * 1e3, "ms"),
                                   replay_p99_ms=(percentile(lat, 99) * 1e3, "ms"),
                                   replay_samples=(len(lat), "count"))
    result.update(problems=body.problems, environment=versions())
    return result


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--setup-probe", choices=WORKLOADS)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("give --setup-probe, or all of --workload, --seed, --seconds and --trace")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
