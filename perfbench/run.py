"""preorderspace benchmark: one seeded workload per process, closed loop.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload canon --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): canon, scan, fragment, cli; `--workload all`
runs each in its own fresh process.  One client sends
the next request only after the previous one finished.  Each run

1. pins itself, and so its child processes, to one CPU;
2. measures set-up: the median time of several fresh processes that import
   the package and build the workload's number fields (cli: that run
   `python -m preorderspace --help`);
3. warms the in-process caches on a separate, untimed request stream;
4. sends requests for --seconds of wall time (at least MIN_REQUESTS), timing
   only the library call (cli: the child process) and checking every answer
   with an oracle after its timer stops.

Every reported time is on the calibrated clock of clock.py: the wall time of
the interval rescaled by a fixed probe timed just before and after it, which
cancels the host's swings in CPU speed.  The uncalibrated wall-clock figures
are printed too and kept in the result file.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run is made twice, untraced and then traced (tracer.py), and the
last line holds the per-layer metrics.  Earlier lines report the failure
rate, typed not-found outcomes, the p90 sample count and a SHA-256 digest of
the canonical answers to the first DIGEST_REQUESTS requests, which is the same
on every commit that gives the same answers.  A result file with run metadata
is written to .perfbench_out/.
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
from pathlib import Path

import clock

MIN_REQUESTS = 100
HARD_STOP_S = 60
DIGEST_REQUESTS = 100
SETUP_REPEATS = 9
WORKLOADS = ("canon", "scan", "fragment", "cli")
OUT_DIR = ".perfbench_out"
FAILURE_EXAMPLES = 5


def _median_wall(argv, env, cwd, repeats) -> float:
    """Median time of `repeats` runs of a command (after one untimed run), in
    reference seconds of the process probe (clock.py)."""
    probe = clock.PROCESS
    times = []
    for i in range(repeats + 1):
        before = probe.seconds()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        raw = time.perf_counter() - start
        if i:
            times.append(probe.rescale(raw, before, probe.seconds()))
    return statistics.median(times)


def measure_setup(workload, root: str, env: dict, repeats: int) -> float:
    if workload.name == "cli":
        argv = [sys.executable, "-m", "preorderspace", "--help"]
    else:
        from exact import FIELDS
        specs = [FIELDS[f] for f in workload.field_names]
        code = ("import preorderspace\n"
                f"fields = [preorderspace.NumberField(*spec) for spec in {specs!r}]\n")
        argv = [sys.executable, "-c", code]
    return _median_wall(argv, env, root, repeats)


class Run:
    """Outcomes of one closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []  # reference seconds (clock.py)
        self.raw: list[float] = []  # wall seconds
        self.kinds: list[str] = []
        self.failed = 0
        self.not_found = 0
        self.examples: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < FAILURE_EXAMPLES:
            self.examples.append(message)


def closed_loop(workload, stream, seconds: float, min_requests: int, call=None) -> Run:
    """Send requests one at a time until `seconds` of wall time and `min_requests`.

    A run that is too slow to reach `min_requests` stops anyway at the hard stop,
    so that every run ends in bounded time.
    """
    from workloads import NOT_FOUND

    call = call or workload.call
    run = Run()
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + max(3 * seconds, HARD_STOP_S)
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline and run.attempted >= min_requests):
            break
        prepared = workload.prepare(next(stream))
        answer = error = None
        before = workload.probe.seconds()
        t0 = time.perf_counter()
        try:
            answer = call(prepared)
        except Exception as exc:  # judged below: typed not-found or a failed request
            error = exc
        t1 = time.perf_counter()
        run.raw.append(t1 - t0)
        after = workload.probe.seconds()
        run.latencies.append(workload.probe.rescale(t1 - t0, before, after))
        run.kinds.append(prepared["kind"])
        request = f"request {run.attempted} ({run.kinds[-1]})"
        if error is not None and not isinstance(error, NOT_FOUND):
            run.fail(f"{request}: untyped {type(error).__name__}: {error}")
            continue
        try:
            verdict = workload.check(prepared, answer, error)
        except Exception as exc:  # an oracle that cannot run counts the request as failed
            run.fail(f"{request}: oracle raised {type(exc).__name__}: {exc}")
            continue
        if verdict.problems:
            run.fail(f"{request}: " + "; ".join(verdict.problems))
        run.not_found += verdict.not_found
        if run.digested < DIGEST_REQUESTS:
            run.digest.update(len(verdict.record).to_bytes(8, "big") + verdict.record)
            run.digested += 1
    return run


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(run: Run, setup_s: float, cli: bool) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "throughput_rps": (run.attempted / sum(run.latencies), "req/s"),
        "latency_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
        "latency_p90_ms": (1e3 * _p90(run.latencies), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }


LAYER_CALLS = ("realfield.sign", "realfield.mul", "realfield.inverse", "linalg.rref",
               "linalg.nullspace", "linalg.kernel", "linalg.intersect", "linalg.project",
               "linalg.dot", "preorder.from_rows", "preorder.sign_of", "lattice.refines",
               "topology.distance", "topology.fingerprint", "action.apply",
               "action.orbit_witness", "valuation.valuate")
LAYER_SELF = LAYER_CALLS + ("realfield.field_init", "lattice.compose_decompose",
                            "lattice.meet", "topology.fragment")


def per_layer(tracer, untraced: Run, traced: Run, cli_probe: dict | None) -> dict:
    from workloads import SUBCOMMANDS

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (tracer.calls_of(name), "count")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (tracer.self_of(name), "s")
    out["realfield.refine.calls"] = (tracer.calls_of("realfield.refine"), "count")
    out["topology.box_points"] = (tracer.counters["topology.box_points"], "count")
    candidates = tracer.edge("topology.witness", "preorder.from_rows")
    accepted = tracer.counters["topology.witness.accepted"]
    out["topology.witness.candidates"] = (candidates, "count")
    out["topology.witness.yield_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
    canon = tracer.edge("topology.fragment", "preorder.from_rows")
    out["topology.fragment.canonicalizations"] = (canon, "count")
    out["topology.fragment.useful_ratio"] = (tracer.fragment_nodes / canon if canon else 0.0,
                                             "ratio")
    # the cli layer runs only in the cli workload's child processes
    probe = cli_probe or {}
    out["cli.process_start_ms"] = (probe.get("process_start_ms", 0.0), "ms")
    out["cli.import_ms"] = (probe.get("import_ms", 0.0), "ms")
    for sub in SUBCOMMANDS:
        times = [t for t, k in zip(traced.latencies, traced.kinds) if k == sub and probe]
        out[f"cli.{sub}.p50_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
    rps = [r.attempted / sum(r.latencies) for r in (untraced, traced)]
    out["trace.overhead_ratio"] = (rps[1] / rps[0], "ratio")
    return out


def probe_cli(root: str, env: dict, repeats: int) -> dict:
    """Bare interpreter start, and the extra cost of importing the CLI module."""
    bare = _median_wall([sys.executable, "-c", "pass"], env, root, repeats)
    imported = _median_wall([sys.executable, "-c", "import preorderspace.cli"], env, root,
                            repeats)
    return {"process_start_ms": 1e3 * bare, "import_ms": 1e3 * (imported - bare)}


def pin_to_one_cpu() -> int:
    """Keep the run, its probes and its child processes on one CPU, so that a
    probe sees the state of the CPU the request ran on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def execute(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
            min_requests: int = MIN_REQUESTS, setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns the result record and the tracer (None untraced)."""
    import workloads

    cls = workloads.WORKLOADS[workload_name]
    is_cli = workload_name == "cli"
    workload = cls(seed, str(root))
    env = workloads.child_env(str(root / "src"))
    setup_s = None if trace else measure_setup(workload, str(root), env, setup_repeats)
    if not is_cli:  # one untimed cycle on other inputs; cli pays cold caches by design
        warm = workload.stream("warmup")
        for _ in workload.slots:
            try:
                workload.call(workload.prepare(next(warm)))
            except workloads.NOT_FOUND:
                pass
    untraced = closed_loop(workload, workload.stream(), seconds, min_requests)
    runs = {"untraced": untraced}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            # the workload's fields, built once more so their construction is traced
            tracer.root(lambda: cls(seed, str(root)), "bench.setup")()
            call = tracer.root(workload.call, "bench.request")
            traced = closed_loop(workload, workload.stream(), seconds, min_requests, call)
        finally:
            tracer.uninstall()
        runs["traced"] = traced
        probe = probe_cli(str(root), env, setup_repeats) if is_cli else None
        metrics = per_layer(tracer, untraced, traced, probe)
    else:
        metrics = end_to_end(untraced, setup_s, is_cli)
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    p90 = _p90(untraced.latencies)
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "requests": {k: r.attempted for k, r in runs.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "not_found": {k: r.not_found for k, r in runs.items()},
        "p90_samples_beyond": sum(1 for t in untraced.latencies if t > p90),
        "wall_clock": {"throughput_rps": untraced.attempted / sum(untraced.raw),
                       "latency_p50_ms": 1e3 * statistics.median(untraced.raw),
                       "latency_p90_ms": 1e3 * _p90(untraced.raw)},
        "digest": {"requests": untraced.digested, "sha256": untraced.digest.hexdigest()},
        "failures": [m for r in runs.values() for m in r.examples],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload, each in its own fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "preorderspace" / "__init__.py").is_file():
        print(f"perfbench: no package at {root / 'src' / 'preorderspace'}; "
              "run from the root of a preorderspace checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(root / "src"))
    pin_to_one_cpu()

    result, tracer = execute(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.tsv.gz")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    for message in result["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} requests={result['requests']} "
          f"not_found={result['not_found']} "
          f"digest[{result['digest']['requests']}]={result['digest']['sha256']}")
    print(f"  fail_rate = {result['fail_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} requests)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  ({result['p90_samples_beyond']} samples lie beyond latency_p90_ms)")
        wall = result["wall_clock"]
        print(f"  uncalibrated wall clock: throughput_rps = {wall['throughput_rps']:.6g}, "
              f"latency_p50_ms = {wall['latency_p50_ms']:.6g}, "
              f"latency_p90_ms = {wall['latency_p90_ms']:.6g}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
