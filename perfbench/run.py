"""melworld benchmark.

    python3 perfbench/run.py --workload {train-oracle,sample}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it imports melworld from ``src/`` there.
With ``--trace 0`` it runs whole rounds of the workload's operations until
``--seconds`` of them have passed, sets the workload up again in short
bursts spread over that time (``setup_s`` is the median set-up), times a
fixed probe after each round, checks the outputs, and prints every
end-to-end metric, each timing scaled to the probe's reference speed (see
``probe.py``). With ``--trace 1`` it alternates untraced and traced rounds
of the workload for ``--seconds`` (the overhead is the difference of their
medians), then runs one traced round of each other workload, so every
per-layer metric is measured on the workload that exercises it; it prints
the per-layer metrics and writes the spans under ``.perfbench_out/``. The last line of
standard output is one JSON object. Exit code 1 means a check failed,
2 that the program or the arguments are missing.
"""

import os

# pinned before numpy is imported: the box has 2 cores and BLAS threads
# would compete with the measured process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
# set-up runs in this many bursts, spread evenly over the measured rounds
# so that it meets the same machine speed as the legs; each burst sets up at
# least once and until this much time has passed; setup_s is the median
SETUP_BURSTS, SETUP_BURST_SECONDS = 5, 0.4
PROBES_PER_ROUND = 2
# a 1-minute load average above this, with the benchmark's one busy
# process counted, means something else competed for the cores; so does a
# share of CPU time stolen by the hypervisor above STEAL_LIMIT
LOAD_LIMIT, STEAL_LIMIT = 1.5, 0.10


def load_average() -> float:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def cpu_times() -> list[int]:
    """user, nice, system, idle, iowait, irq, softirq, steal (clock ticks)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def rounds_for(workload, state, ctx, seconds: float) -> list[float]:
    """Whole rounds until ``seconds`` have passed (at least one); returns
    the wall time of each round in ms."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.round(state, ctx, len(walls))
        walls.append(1000.0 * (time.perf_counter() - t0))
        if time.perf_counter() - start >= seconds:
            return walls


def untraced(workload, args, sizes, workdir):
    from probe import REF_MS, probe_ms
    from workloads import N_LEGS, Context

    ctx = Context(args.seed, sizes)
    setups, probes, bursts, state = [], [], 0, None
    measured, r = 0.0, 0
    while r == 0 or measured < args.seconds:
        if bursts < SETUP_BURSTS and measured >= bursts * args.seconds / SETUP_BURSTS:
            # a set-up is deterministic in the seed, so the rounds keep the
            # first one's state and the later ones are only timed
            burst = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                fresh = workload.setup(args.seed, sizes, workdir)
                setups.append(time.perf_counter() - t0)
                if time.perf_counter() - burst >= SETUP_BURST_SECONDS:
                    break
            state = fresh if state is None else state
            bursts += 1
        t0 = time.perf_counter()
        workload.round(state, ctx, r)
        measured += time.perf_counter() - t0
        r += 1
        probes += [probe_ms() for _ in range(PROBES_PER_ROUND)]
    workload.check(state, ctx)
    scale = REF_MS / statistics.median(probes)
    metrics = {"setup_s": (scale * statistics.median(setups), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB")}
    # a leg whose every operation failed has no time; the run is then not
    # correct, and the metric is left out
    for i in range(N_LEGS):
        leg = f"leg{i + 1}"
        if ctx.times[leg]:
            metrics[f"{leg}_ms"] = (scale * statistics.median(ctx.times[leg]), "ms")
    return ctx, metrics, {"setup_s": setups, "probe_ms": probes, "scale": scale}


def traced(workload, args, sizes, workdir):
    from layers import UNITS, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    tracer = Tracer()
    ctx = Context(args.seed, sizes)
    states = {name: wl.setup(args.seed, sizes, workdir) for name, wl in WORKLOADS.items()}
    plain, spanned = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain += rounds_for(workload, states[workload.name], ctx, 0)
        # only the first traced round keeps its spans; later ones are timed
        # alone, to bound the span log
        mark = tracer.mark()
        with tracer:
            ctx.tracer = tracer if not spanned else None
            spanned += rounds_for(workload, states[workload.name], ctx, 0)
            ctx.tracer = None
        if len(spanned) > 1:
            tracer.truncate(mark)
    for name, other in WORKLOADS.items():
        if name != workload.name:
            with tracer:
                ctx.tracer = tracer
                rounds_for(other, states[name], ctx, 0)
                ctx.tracer = None
    for name, wl in WORKLOADS.items():
        wl.check(states[name], ctx)
    summary = tracer.summary()
    train_bytes = next(state.data["checkpoint_bytes"] for wl_states in states.values()
                       for state in wl_states if "checkpoint_bytes" in state.data)
    values = layer_metrics(summary, ctx.units, len(train_bytes))
    overhead = 100.0 * (statistics.median(spanned) / statistics.median(plain) - 1.0)
    values["trace.overhead_pct"] = overhead
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    prefixes = tuple(kind.name.split("-")[0] + "." for kind in workload.kinds)
    tags = [t for t in summary.by_tag if t and t.startswith(prefixes)]
    extra = {
        "round_ms_untraced": plain,
        "round_ms_traced": spanned,
        "layer_self_ms": summary.layer_self_ms(tags),
        "spans": len(tracer.spans),
        "count_only_calls": {f"{tag}:{name}": n for (tag, name), n in tracer.counted.items()},
    }
    return ctx, {name: (values[name], unit) for name, unit in UNITS.items()}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-oracle", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2 ** 63

    src = ROOT / "src"
    if not (src / "melworld" / "__init__.py").is_file():
        print(f"error: no melworld package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import melworld

    if Path(melworld.__file__).resolve().parent != (src / "melworld").resolve():
        print(f"error: melworld imported from {melworld.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Sizes

    workload = WORKLOADS[args.workload]
    sizes = Sizes()
    workdir = OUT / f"work-{os.getpid()}"
    env = environment()
    load_start, ticks_start = load_average(), cpu_times()
    try:
        run = traced if args.trace else untraced
        ctx, metrics, extra = run(workload, args, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end, ticks_end = load_average(), cpu_times()
    delta = [b - a for a, b in zip(ticks_start, ticks_end)]
    steal = delta[7] / max(sum(delta), 1)
    competing = max(load_start, load_end) > LOAD_LIMIT or steal > STEAL_LIMIT

    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']}, nproc {env['nproc']}, "
          f"BLAS/OpenMP threads pinned to 1")
    print(f"load average (1 min): {load_start:.2f} at start, {load_end:.2f} at end; "
          f"CPU time stolen by the host: {100 * steal:.1f}%"
          + ("; WARNING: another process was competing for the cores" if competing else ""))
    if not args.trace:
        from references import tail_percentile

        timings = [("setup_s (set-up)", extra["setup_s"], "s")]
        timings += [(f"leg{i + 1}_ms ({label})", ctx.times[f"leg{i + 1}"], "ms")
                    for i, label in enumerate(workload.legs)]
        for label, values, unit in timings:
            if not values:
                continue
            line = f"{label}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
            tail = tail_percentile(values)
            if tail is not None:
                line += f", p{tail[0]} {tail[1]:.6g} {unit}"
            print(line)
        print(f"probe: median {statistics.median(extra['probe_ms']):.4g} ms, "
              f"n={len(extra['probe_ms'])}; the times above are as measured, the metrics "
              f"below scale them by {extra['scale']:.4f} to the probe's reference speed")
    else:
        print(f"tracing overhead on {workload.name}: {metrics['trace.overhead_pct'][0]:.1f}% "
              f"({len(extra['round_ms_traced'])} traced rounds, {extra['spans']} spans)")
        print("self ms by layer on " + workload.name + ": " + ", ".join(
            f"{k} {v:.1f}" for k, v in sorted(extra["layer_self_ms"].items())))
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not ctx.problems
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "load_average": [load_start, load_end],
        "steal_share": steal, "competing_load": competing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "correct": correct, "problems": ctx.problems,
        "attempted": ctx.attempted, "failed": ctx.failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "times_ms": dict(ctx.times), **extra,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
