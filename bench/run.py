"""Benchmark of the nehari solver, run from the root of the repository.

    python3 bench/run.py --workload solve-stuart-9 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --seconds 60     # every workload, one after another

Each workload is a closed loop with one client (see ``workloads.py``).  Runs
cover whole panels of inputs: a new panel starts only if it would end within
``--seconds``, judged by the median time of one operation so far; the first
panel always runs.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` runs every input twice, plainly and then traced, prints the
per-layer metrics (per operation, or per ``prepare_run`` for set-up layers)
and writes the spans to ``bench/out/``.  Counts that must repeat exactly
(iterations, restarts, failures, projections, φ calls) are compared between
the two runs of an input and with an earlier run of the same code and seed;
a difference is reported as non-determinism and makes the result incorrect,
as does an output that fails its check.  An operation that raises counts as
failed but leaves ``correct`` alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with every workload in
one process its metrics are named ``<workload>/<metric>``, and ``peak_rss_mb``
is the process's peak so far.  Lines before it give the environment and, per
workload, the sample counts and latency quantiles, and how the inputs set
aside for a known defect fare (``workloads.py`` lists the defects).
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from tracing import PHI_CALLABLES, SETUP_OP, SpanStats, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_SETUPS = 5  # prepare_run samples behind each setup_s


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "nehari").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def attempt(wl, item, context, tracer=None, op_id=0):
    """One operation and its checks: (outcome or None, problems)."""
    try:
        if tracer is None:
            outcome = wl.run(item, context)
        else:
            with tracer.tracing(op_id):
                outcome = wl.run(item, context)
    except Exception as exc:  # any exception is a failed operation
        return None, [f"{type(exc).__name__}: {exc}"]
    try:
        return outcome, wl.check(item, outcome)
    except Exception as exc:  # an output its check cannot evaluate is wrong
        return outcome, [f"check raised {type(exc).__name__}: {exc}"]


class Run:
    """Samples and counts gathered by one measured run of one workload."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.op_times: list[float] = []
        self.traced_times: list[float] = []
        self.counts: list[dict] = []
        self.attempted = 0
        self.failed = 0  # raised, or returned an output that failed its check
        self.wrong = 0  # returned an output that failed its check
        self.nondeterminism: list[str] = []
        self.known_defects: dict = {}

    def record(self, outcome, problems, traced: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"failed: {'; '.join(problems)}", file=sys.stderr)
        if outcome is None:
            return
        self.wrong += bool(problems)
        (self.traced_times if traced else self.op_times).append(outcome.op_s)
        if outcome.setup_s is not None and not traced:
            self.setups.append(outcome.setup_s)


def measure(wl, seed: int, seconds: float, tracer):
    run = Run()
    inputs = wl.inputs(np.random.default_rng(seed))
    context, setup_s = wl.start()
    if setup_s is not None:
        run.setups.append(setup_s)
    traced_context = None
    if tracer is not None:
        with tracer.tracing(SETUP_OP):
            traced_context, _ = wl.start()

    cycles: list[float] = []
    t_begin = perf_counter()
    for op_id, item in enumerate(inputs):
        if (
            op_id % wl.panel == 0
            and cycles
            and perf_counter() - t_begin + statistics.median(cycles) * wl.panel > seconds
        ):
            break
        t0 = perf_counter()
        outcome, problems = attempt(wl, item, context)
        run.record(outcome, problems, traced=False)
        counts = wl.counts(outcome) if outcome else {"error": problems[0]}
        if tracer is not None:
            traced, problems = attempt(wl, item, traced_context, tracer, op_id)
            run.record(traced, problems, traced=True)
            traced_counts = wl.counts(traced) if traced else {"error": problems[0]}
            if traced_counts != counts:
                run.nondeterminism.append(
                    f"input {op_id}: plain {counts} != traced {traced_counts}"
                )
        run.counts.append(counts)
        cycles.append(perf_counter() - t0)
    while len(run.setups) < MIN_SETUPS:
        run.setups.append(wl.setup_s())
    run.known_defects = wl.known_defects(context)
    return run


def compare_with_earlier(path: Path, counts: list[dict]) -> list[str]:
    """Differences from an earlier run's counts for the same inputs."""
    earlier = json.loads(path.read_text()) if path.is_file() else []
    diffs = [
        f"input {i}: earlier {a} != now {b}"
        for i, (a, b) in enumerate(zip(earlier, counts))
        if a != b
    ]
    if len(counts) >= len(earlier):
        path.write_text(json.dumps(counts))
    return diffs


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "ops_per_s": (len(run.op_times) / sum(run.op_times), "1/s"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, stats) -> dict:
    n_ops = max(len(run.traced_times), 1)
    prepares = max(stats.calls("config.prepare_run", setup=True), 1)
    out = {}

    def op(name, value, unit="count/op"):
        out[name] = (value / n_ops, unit)

    def setup(name, value, unit):
        out[name] = (value / prepares, unit)

    phis = [f"phi.{f}" for f in PHI_CALLABLES]
    op("phi.evals", sum(stats.calls(n) for n in phis))
    op("phi.elements", sum(stats.elements(n) for n in phis))
    op("phi.self_s", sum(stats.self_s(n) for n in phis), "s/op")
    setup("phi.verify_hypotheses.self_s", stats.self_s("phi.verify_hypotheses", True), "s/setup")
    setup("grid.estimate_sobolev.calls", stats.calls("grid.estimate_sobolev", True), "count/setup")
    setup("grid.estimate_sobolev.self_s", stats.self_s("grid.estimate_sobolev", True), "s/setup")
    for name in (
        "grid.inner",
        "grid.integrate",
        "grid.pointwise_energy",
        "energy.energy",
        "energy.energy_gradient",
        "energy.dual_norm",
        "fibering.project_scale",
        "fibering.classify",
    ):
        op(f"{name}.calls", stats.calls(name))
        op(f"{name}.self_s", stats.self_s(name), "s/op")
    for name in ("fibering.project_scale", "fibering.classify"):
        op(f"{name}.failures", stats.failures(name))
    projections = stats.calls("fibering.project_scale")
    out["fibering.project_scale.phi_evals_per_call"] = (
        stats.phi_in_projection / max(projections, 1),
        "count/call",
    )
    op("fibering.project.self_s", stats.self_s("fibering.project"), "s/op")
    op("fibering.sample_ray.self_s", stats.self_s("fibering.sample_ray"), "s/op")

    def summed(key):
        return sum(c.get(key, 0) for c in run.counts)

    branches = ("minus", "plus")
    for branch in branches:
        op(f"solver.iterations.{branch}", summed(f"iterations.{branch}"))
    restarts = sum(summed(f"restarts.{b}") for b in branches)
    steps = sum(summed(f"steps.{b}") for b in branches)
    # line-search projections per accepted step; the first projection of each
    # descent (one per branch, plus one per restart) is not a line-search attempt
    descents = restarts + sum(f"restarts.{b}" in c for c in run.counts for b in branches)
    out["solver.projections_per_iteration"] = (
        (stats.projections_in_descent - descents) / steps if steps else 0.0,
        "count/step",
    )
    op("solver.restarts", restarts)
    op("solver.minimize_branch.self_s", stats.self_s("solver.minimize_branch"), "s/op")
    setup(
        "thresholds.compute_thresholds.self_s",
        stats.self_s("thresholds.compute_thresholds", True),
        "s/setup",
    )
    out["trace.overhead_frac"] = (
        statistics.median(run.traced_times) / statistics.median(run.op_times) - 1.0
        if run.traced_times and run.op_times
        else 0.0,
        "ratio",
    )
    return out


def samples(run: Run) -> dict:
    """Latency per operation, with p90 where ten samples lie beyond it.

    These are reported, not bounded: across runs the mean-based ``ops_per_s``
    is the steadier measure of the same latency, and the solve workloads have
    too few operations per run for a tail.
    """
    out = {"setup_s.n": len(run.setups), "op_s.n": len(run.op_times)}
    if run.op_times:
        out["op_s.p50"] = statistics.median(run.op_times)
    if len(run.op_times) >= 100:
        out["op_s.p90"] = statistics.quantiles(run.op_times, n=10)[-1]
    out["failed_frac"] = run.failed / max(run.attempted, 1)
    return out


def run_workload(wl, args) -> tuple[dict, dict]:
    tracer = Tracer() if args.trace else None
    run = measure(wl, args.seed, args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    key = hashlib.sha256(
        json.dumps([code_hash(), wl.name, args.seed, args.trace]).encode()
    ).hexdigest()[:16]
    if tracer is not None:
        stats = SpanStats(tracer)
        for op_id, counts in enumerate(run.counts):
            counts["projections"] = int(stats.projections_by_op[op_id])
            counts["phi_in_projection"] = int(stats.phi_in_projection_by_op[op_id])
        tracer.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    run.nondeterminism += compare_with_earlier(OUT / f"counts-{wl.name}-{key}.json", run.counts)
    for line in run.nondeterminism:
        print(f"non-determinism: {line}", file=sys.stderr)
    if run.known_defects:
        print(wl.name, "known-defects", json.dumps(run.known_defects))
    if run.op_times:
        metrics = per_layer(run, stats) if tracer is not None else end_to_end(run)
    else:
        metrics = {}
    result = {
        # an operation that raises is failed, not wrong: outputs are judged by
        # the checks and by the counts repeating
        "correct": run.wrong == 0 and not run.nondeterminism and bool(run.op_times),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, samples(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nehari" / "__init__.py").is_file():
        print(f"error: no nehari package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS  # imports nehari, so only once src is on the path

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment", json.dumps(environment()))
    results = {}
    for name in names:
        results[name], detail = run_workload(WORKLOADS[name], args)
        print(name, "samples", json.dumps(detail))
        print(name, json.dumps(results[name]))
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
