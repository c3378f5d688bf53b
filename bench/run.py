"""Closed-loop benchmark of the simplex-designs library.

One client in one process and one thread: the next op starts only after the
previous one returned. The library is imported from ``src/`` of the checkout
this file sits in and is driven through its public functions.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload slice --seed 1 --seconds 20 --trace 1

Workloads: classify, slice, census, iso (see bench/README.md). With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` half the time runs untraced and half traced, the
CLI layer runs once, and the JSON holds the per-layer metrics. Spans are
written to ``.bench_out/`` of the checkout.
"""

import os

# Pin native thread pools before anything imports numpy.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
from spans import NullTracer, Tracer, durations, layer_times, median_or_zero  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("classify", "slice", "census", "iso")
# Fresh set-up processes per run, half before and half after the timed
# phase, so that the median does not rest on one moment of the host.
SETUP_PROBES = 6
# peak_rss_mb is read after this many rounds (or at the end of a shorter
# phase): the per-op records grow with the op count, which a faster host or
# library raises, and by then every workload has reached its working set.
RSS_ROUNDS = 3
PROBE_TIMEOUT_S = 120

# Span names of library calls made inside ops.
OP_LAYERS = (
    "cliques.from_points",
    "cliques.enumerate",
    "cliques.classify_clique",
    "constructions.product_clique",
    "fano.fano_bijection",
    "fano.bijection_index",
    "designs.automorphism_group",
    "designs.orbits",
    "designs.hadamard",
    "designs.find_isomorphism",
)
# Set-up steps reported as layer metrics: step name -> metric name.
SETUP_LAYERS = {
    "geometry.build": "geometry.build_s",
    "cliques.build_graph": "cliques.build_graph_s",
    "designs.parse_incidence": "designs.parse_incidence.busy_s",
    "fano.fano_planes_on": "fano.fano_planes_on.busy_s",
}
COUNTS = (
    "cliques.enumerate.cliques",
    "cliques.classify_clique.calls",
    "constructions.product_clique.calls",
    "designs.automorphism_group.elements",
    "designs.automorphism_group.generators",
    "designs.find_isomorphism.calls",
)
CLI_COMMANDS = {
    "construct": ["construct", "c1"],
    "classify": ["classify", "c2"],
    "isomorphic": ["isomorphic", "c1", "c3"],
    "census": ["census", "--delta-limit", "720"],
}


class Steps:
    """Times each set-up call; in a traced run it also records a span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    def __call__(self, name, fn, *args):
        start = perf_counter()
        result = self.tracer.call(name, fn, *args)
        self.times[name] = self.times.get(name, 0.0) + perf_counter() - start
        return result


def setup(workload: str, seed: int, tracer):
    """Import the library and run the workload's set-up.

    Returns (workload, scaled seconds, scaled seconds per step, raw seconds).
    """
    before = reference.reference_s()
    start = perf_counter()
    importlib.import_module("simplex_designs")
    imported = perf_counter() - start
    import workloads  # the benchmark's own module, not part of set-up

    wl = workloads.WORKLOADS[workload](seed)
    steps = Steps(tracer)
    start = perf_counter()
    wl.setup(steps)
    raw = imported + perf_counter() - start
    steps.times["import"] = imported
    scale = reference.factor(before, reference.reference_s())
    return wl, raw * scale, {name: t * scale for name, t in steps.times.items()}, raw


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time of a fresh process running only the set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class Phase:
    """Runs ops one at a time, recording latency and kind, counting ops that raise.

    Between ops it takes a machine-speed reference sample every
    reference.EVERY_S seconds; the time that takes is kept in ``paused``.
    Per-op records are compact arrays so the bookkeeping adds little to the
    peak RSS; op kinds and positions are kept only when tracing.
    """

    def __init__(self, tracer):
        from workloads import EXHAUSTED, FAILED

        self._exhausted, self._failed = EXHAUSTED, FAILED
        self.tracer = tracer
        self.latencies = array("d")
        self.kind_of: dict[int, str] = {}
        self.index_of: dict[int, int] = {}
        self.raised = 0
        self.errors: list[str] = []
        self.refs: list[float] = []
        self.ref_before = array("i")
        self.paused = 0.0
        self._next_id = 0
        self._last_ref = 0.0
        self.take_reference()

    def take_reference(self):
        start = perf_counter()
        self.refs.append(self.tracer.call("bench.reference", reference.reference_s))
        self._last_ref = perf_counter()
        self.paused += self._last_ref - start

    def factors(self) -> list[float]:
        """Speed scale per op, from the reference samples before and after it."""
        refs = self.refs
        return [reference.factor(refs[k], refs[k + 1]) for k in self.ref_before]

    def op(self, kind, fn, *args):
        """One op; a result of EXHAUSTED means there was nothing left to do and is no op."""
        op_id = self._next_id
        self._next_id += 1
        token = self.tracer.begin("op", op_id)
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            result = self._failed
            self.raised += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {exc!r}")
        elapsed = perf_counter() - start
        self.tracer.end(token)
        if result is not self._exhausted:
            if self.tracer.enabled:
                self.index_of[op_id] = len(self.latencies)
                self.kind_of[op_id] = kind
            self.latencies.append(elapsed)
            self.ref_before.append(len(self.refs) - 1)
        if perf_counter() - self._last_ref >= reference.EVERY_S:
            self.take_reference()
        return result


def run_phase(wl, rounds, seconds: float, tracer) -> dict:
    """Whole rounds until the timed seconds are spent; checks run between rounds, untimed."""
    phase = Phase(tracer)
    timed = 0.0
    check_failures = 0
    first_counts = None
    totals: dict[str, int] = {}
    round_times: list[float] = []
    round_ops: list[int] = []
    n_rounds = 0
    first_span = len(getattr(tracer, "spans", ()))
    rss_mb = None
    while timed < seconds:
        inputs = next(rounds)
        token = tracer.begin("round")
        ops_before = len(phase.latencies)
        paused_before = phase.paused
        start = perf_counter()
        results = wl.run_round(inputs, phase)
        round_s = perf_counter() - start - (phase.paused - paused_before)
        tracer.end(token)
        timed += round_s
        round_times.append(round_s)
        round_ops.append(len(phase.latencies) - ops_before)
        failed, counts = wl.check_round(inputs, results)
        check_failures += failed
        n_rounds += 1
        if n_rounds == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
        if first_counts is None:
            first_counts = counts
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    phase.take_reference()
    factors = phase.factors()
    latencies = phase.latencies
    # a round's time is scaled by the latency-weighted factor of its ops
    scaled_timed = 0.0
    first = 0
    for n_ops, round_s in zip(round_ops, round_times):
        last = first + n_ops
        busy = sum(latencies[first:last])
        weighted = sum(t * f for t, f in zip(latencies[first:last], factors[first:last]))
        scaled_timed += round_s * (weighted / busy if busy else 1.0)
        first = last
    return {
        "phase": phase,
        "timed_s": timed,
        "rounds": n_rounds,
        "rss_mb": rss_mb,
        "ops": len(latencies),
        "ops_per_s": len(latencies) / scaled_timed,
        "raw_ops_per_s": len(latencies) / timed,
        "factors": factors,
        "latencies": [t * f for t, f in zip(latencies, factors)],
        "raw_latencies": latencies,
        "failed": phase.raised + check_failures,
        "first_round_counts": first_counts,
        "count_totals": totals,
        "first_span": first_span,
    }


def tail(latencies: list[float]):
    """(value, percentile, samples): the highest nearest-rank percentile with 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return sorted(latencies)[rank - 1], 100.0 * rank / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, threads: int) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "threads": threads,
        "threads_over_nproc": threads > nproc,
    }


def run_cli(tracer) -> tuple[dict, list[str]]:
    """One in-process CLI call per subcommand; returns (seconds per call, mismatches)."""
    from simplex_designs import cli

    import workloads

    times: dict[str, float] = {}
    problems: list[str] = []
    outputs: dict[str, dict] = {}
    for sub, argv in CLI_COMMANDS.items():
        buffer = io.StringIO()
        before = reference.reference_s()
        start = perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = tracer.call(f"cli.{sub}", cli.main, ["--format", "kv", "--sorted", *argv])
        elapsed = perf_counter() - start
        times[sub] = elapsed * reference.factor(before, reference.reference_s())
        if code != 0:
            problems.append(f"cli {sub} exited {code}")
        outputs[sub] = dict(line.split("=", 1) for line in buffer.getvalue().splitlines() if "=" in line)
    for sub, expected in workloads.cli_expectations().items():
        got = outputs[sub]
        for key, value in expected.items():
            if got.get(key) != value:
                problems.append(f"cli {sub}: {key}={got.get(key)!r}, library gives {value!r}")
    return times, problems


def layer_metrics(spans, traced: dict, untraced: dict, steps: list[dict], cli_times: dict) -> dict:
    """Per-layer metrics of the traced phase, set-up steps, counts and the CLI layer.

    Span durations are scaled by the speed factor of the op they belong to;
    spans outside ops (rounds, reference samples) by the phase's median one.
    """
    first = traced["first_span"]
    phase = traced["phase"]
    kinds = phase.kind_of
    factors = traced["factors"]
    typical = statistics.median(factors)

    def scale(op_id):
        index = phase.index_of.get(op_id)
        return typical if index is None else factors[index]

    busy, self_time = layer_times(spans, first, scale)
    metrics: dict[str, tuple[float, str]] = {}
    for step, name in SETUP_LAYERS.items():
        metrics[name] = (statistics.median(s.get(step, 0.0) for s in steps), "s")
    for layer in OP_LAYERS:
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        metrics[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
    enumerate_busy = busy.get("cliques.enumerate", 0.0)
    found = traced["count_totals"].get("cliques.enumerate.cliques", 0)
    metrics["cliques.enumerate.cliques_per_s"] = (found / enumerate_busy if enumerate_busy else 0.0, "1/s")
    for layer in ("cliques.classify_clique", "constructions.product_clique"):
        values = durations(spans, first, scale, layer)
        metrics[f"{layer}.p50_us"] = (median_or_zero(values) * 1e6, "us")
    for kind in ("c1", "c2", "c3", "c4", "non_centered"):
        values = durations(spans, first, scale, "designs.automorphism_group", kinds, kind)
        metrics[f"designs.automorphism_group.{kind}_ms"] = (median_or_zero(values) * 1e3, "ms")
    for kind in ("v15_pos", "v31_pos", "neg"):
        values = durations(spans, first, scale, "designs.find_isomorphism", kinds, kind)
        metrics[f"designs.find_isomorphism.{kind}.p50_ms"] = (median_or_zero(values) * 1e3, "ms")
    # the other work counts are fixed by the inputs and only printed; fewer
    # group elements built is a gain a search rewrite can make
    elements = "designs.automorphism_group.elements"
    metrics[elements] = (untraced["first_round_counts"].get(elements, 0), "count")
    # the benchmark's own time and the coverage compare spans of different
    # ops within one run, so they use unscaled durations
    raw_busy, raw_self = layer_times(spans, first, lambda op_id: 1.0)
    layers_busy = sum(raw_busy.get(layer, 0.0) for layer in OP_LAYERS)
    own = raw_self.get("op", 0.0) + raw_self.get("round", 0.0)
    metrics["bench.op.self_s"] = (raw_self.get("op", 0.0), "s")
    metrics["bench.round.self_s"] = (raw_self.get("round", 0.0), "s")
    # timed round time = layer spans + the benchmark's own time in ops and rounds
    metrics["trace.coverage"] = (layers_busy / (layers_busy + own) if layers_busy else 0.0, "ratio")
    untraced_rate = untraced["ops_per_s"]
    traced_rate = traced["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate), "%")
    for sub in CLI_COMMANDS:
        metrics[f"cli.{sub}_s"] = (cli_times[sub], "s")
    return metrics


def end_to_end_metrics(result: dict, setup_s: float, rss_mb: float, key: str = "") -> dict:
    """The gated end-to-end metrics; key "raw_" selects the unscaled times."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result[f"{key}ops_per_s"], "1/s"),
        "op_p50_ms": (statistics.median(result[f"{key}latencies"]) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def tail_line(prefix: str, latencies: list[float]) -> str:
    """op_tail_ms is printed but not gated: this far out it mostly measures host stalls."""
    found = tail(latencies)
    if found is None:
        return f"{prefix} op_tail_ms omitted: {len(latencies)} samples, fewer than 11"
    value, percentile, samples = found
    return f"{prefix} op_tail_ms = {value * 1e3:.6g} ms (p{percentile:.3f} of {samples} samples, 10 beyond it)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds of ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplex_designs" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, setup_s, steps, raw = setup(args.workload, args.seed, NullTracer())
        print(json.dumps({"setup_s": setup_s, "steps": steps, "raw_setup_s": raw}))
        return 0

    samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    tracer = Tracer() if args.trace else NullTracer()
    wl, own_setup_s, own_steps, own_raw = setup(args.workload, args.seed, tracer)
    import simplex_designs

    if Path(simplex_designs.__file__).resolve().parent != SRC / "simplex_designs":
        print(f"imported simplex_designs from {simplex_designs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    samples.append({"setup_s": own_setup_s, "steps": own_steps, "raw_setup_s": own_raw})

    rounds = wl.rounds()
    if args.trace:
        untraced = run_phase(wl, rounds, args.seconds / 2, NullTracer())
        traced = run_phase(wl, rounds, args.seconds / 2, tracer)
        phases = [untraced, traced]
    else:
        untraced = run_phase(wl, rounds, args.seconds, NullTracer())
        phases = [untraced]
    rss_mb = untraced["rss_mb"]
    samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setup_s = statistics.median(s["setup_s"] for s in samples)
    raw_setup_s = statistics.median(s["raw_setup_s"] for s in samples)
    threads = thread_count()
    failed = sum(p["failed"] for p in phases) + wl.final_check()
    attempted = sum(p["ops"] for p in phases)
    problems = [e for p in phases for e in p["phase"].errors]

    env = environment(args.seed, threads)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["threads_over_nproc"]:
        print(f"WARNING: the process holds {threads} threads, more than nproc={env['nproc']}")

    if args.trace:
        cli_times, cli_problems = run_cli(tracer)
        problems += cli_problems
        attempted += len(CLI_COMMANDS)
        failed += len(cli_problems)
        metrics = layer_metrics(tracer.spans, traced, untraced, [s["steps"] for s in samples], cli_times)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "env": env,
                           "op_kinds": traced["phase"].kind_of})
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(untraced, setup_s, rss_mb)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not args.trace:
        print(tail_line("metric", untraced["latencies"]))
        raw = end_to_end_metrics(untraced, raw_setup_s, rss_mb, "raw_")
        for name, (value, unit) in raw.items():
            print(f"unscaled {name} = {value:.6g} {unit}")
        print(tail_line("unscaled", untraced["raw_latencies"]))
        speed = statistics.median(untraced["factors"])
        print(f"speed factor {speed:.4f}: times are scaled to a core on which the "
              f"reference kernel takes {reference.NOMINAL_S * 1e3:g} ms")
    print(f"metric fail_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops)")
    rounds_text = " + ".join(str(p["rounds"]) for p in phases)
    timed_text = " + ".join(f"{p['timed_s']:.3f}" for p in phases)
    print(f"rounds {rounds_text}, timed {timed_text} s")
    for name in COUNTS:
        print(f"count {name} = {untraced['first_round_counts'].get(name, 0)} in the first round")
    for note in wl.notes:
        print(f"check {note}")
    for problem in problems:
        print(f"FAILED {problem}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
