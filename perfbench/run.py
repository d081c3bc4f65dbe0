"""proprisk benchmark: runs one workload (or all, each in a fresh process),
checks every output, and prints the metrics.

    python3 perfbench/run.py --workload trial_cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 when every output passed its checks, 1 when one did not, and 2 when the
benchmark cannot run (no package to measure, bad arguments).
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SETUP_SAMPLES = 5
PROBE_SAMPLES = 3  # bare interpreter and bare import, traced run only
RUN_LIMIT_S = 150  # no round starts after this, whatever --seconds says

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def timed_child(code: str, root: Path, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def run_round(ops):
    """Run each operation once; return {label: (seconds, output, error)}."""
    out = {}
    for label, fn in ops:
        t0 = time.perf_counter()
        try:
            output, err = fn(), ""
        except Exception as exc:  # an operation that raises has failed; keep measuring the rest
            output, err = None, f"{type(exc).__name__}: {exc}"
        out[label] = (time.perf_counter() - t0, output, err)
    return out


def judge(wl, rounds):
    """Failures per operation: round 0 is checked against the references,
    later rounds must reproduce round 0's output."""
    failed = {}
    first = {}
    for i, rnd in enumerate(rounds):
        for label, (_, output, err) in rnd.items():
            if err:
                msgs = [err]
            elif label not in first:
                first[label] = output
                msgs = wl.check(label, output)
            else:
                msgs = [] if wl.same(output, first[label]) else ["output differs from the first round's"]
            if msgs:
                failed[(i, label)] = msgs
    return failed


def medians(rounds):
    labels = rounds[0].keys()
    return {label: statistics.median(r[label][0] for r in rounds) for label in labels}


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(W.WORKLOADS))

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "proprisk" / "__init__.py").is_file():
        fail(f"no package to measure: {src / 'proprisk'} is missing (run from the root of a checkout)")
    sys.path.insert(0, str(src))
    import proprisk

    if Path(proprisk.__file__).resolve().parent != (src / "proprisk").resolve():
        fail(f"imported proprisk from {proprisk.__file__}, not from {src}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    wl = W.WORKLOADS[args.workload](root, args.seed, out_dir)
    wl.write_inputs()
    env = W.child_env(root)
    if args.trace:
        wl.load()
        rounds, metrics = traced_run(wl, args, root, env, started)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        setup = [timed_child(wl.setup_code(), root, env) for _ in range(SETUP_SAMPLES)]
        wl.load()
        rounds = timed_rounds(wl.operations(in_process=False), args.seconds, started)
        med = medians(rounds)
        metrics = {
            "setup_s": statistics.median(setup),
            "round_s": sum(med.values()),
            "peak_rss_mb": peak_rss_mb(),
        }
        for label, value in med.items():
            print(f"  {wl.name} {label}: median {value:.4f} s over {len(rounds)} rounds")
        units = END_TO_END

    failed = judge(wl, rounds)
    for (i, label), msgs in sorted(failed.items()):
        for m in msgs[:5]:
            print(f"FAILED {wl.name} round {i} {label}: {m}", file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value!r} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def timed_rounds(ops, seconds, started):
    """Closed loop, one client: rounds back to back until ``seconds`` have passed."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(ops))
        now = time.perf_counter()
        if now - t0 >= seconds or now - started >= RUN_LIMIT_S:
            return rounds


# name, unit, better
LAYER_METRICS = [
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.fit_s", "s", "lower"),
    ("cli.fit_point_s", "s", "lower"),
    ("cli.ppr_fit_s", "s", "lower"),
    ("cli.cox_s", "s", "lower"),
    ("reporting.read_dataset_csv_s", "s", "lower"),
    ("reporting.emit_report_s", "s", "lower"),
    ("survival.validate_dataset_s", "s", "lower"),
    ("survival.kaplan_meier_s", "s", "lower"),
    ("survival.kaplan_meier_calls", "count", "lower"),
    ("nppr.nppr_fit_s", "s", "lower"),
    ("nppr.nppr_fit_calls", "count", "lower"),
    ("nppr.estimation_failures", "count", "lower"),
    ("nppr.event_time_set_s", "s", "lower"),
    ("nppr.pointwise_log_rr_s", "s", "lower"),
    ("nppr.point_estimate_s", "s", "lower"),
    ("nppr.self_s", "s", "lower"),
    ("bootstrap.percentile_bootstrap_s", "s", "lower"),
    ("bootstrap.resamples", "count", "higher"),
    ("bootstrap.failed_resamples", "count", "lower"),
    ("bootstrap.rows_resampled", "count", "higher"),
    ("bootstrap.resample_fit_s", "s", "lower"),
    ("bootstrap.self_s", "s", "lower"),
    ("bootstrap.peak_alloc_mb", "MB", "lower"),
    ("models.fit_ppr_s", "s", "lower"),
    ("models.fit_ppr_calls", "count", "higher"),
    ("models.eu_loglik_calls", "count", "lower"),
    ("models.ppr_not_converged", "count", "lower"),
    ("models.ppr_interval_available", "count", "higher"),
    ("models.cox_two_group_s", "s", "lower"),
    ("simulate.simulate_dataset_s", "s", "lower"),
    ("simulate.load_grid_s", "s", "lower"),
    ("study.run_scenario_s", "s", "lower"),
    ("study.self_s", "s", "lower"),
    ("study.ppr_excluded", "count", "lower"),
    ("study.replicates_per_s", "1/s", "higher"),
] + [(f"study.cell.{label}_s", "s", "lower") for label in W.ALL_CELLS] + [
    ("trace.rounds", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def traced_run(wl, args, root, env, started):
    """Per-layer metrics: bare-interpreter and import probes, one subprocess
    pass of the CLI workload, then untraced and traced in-process rounds in
    turn; every layer figure is the median over the traced rounds of that
    round's total."""
    import proprisk

    metrics = {name: 0 for name, _, _ in LAYER_METRICS}
    bare = statistics.median(timed_child("pass", root, env) for _ in range(PROBE_SAMPLES))
    imp = statistics.median(timed_child("import proprisk", root, env) for _ in range(PROBE_SAMPLES))
    metrics["cli.interpreter_s"] = bare
    metrics["cli.import_s"] = imp - bare

    rounds = []
    if wl.name == "trial_cli":
        rnd = run_round(wl.operations(in_process=False))
        rounds.append(rnd)
        for label, (dt, _, _) in rnd.items():
            metrics[f"cli.{label}_s"] = dt

    tracer = tracing.Tracer()
    if wl.name != "trial_cli":
        with tracer.installed():
            proprisk.default_grid()
        metrics["simulate.load_grid_s"] = tracer.totals()["simulate.load_grid"]["s"]

    ops = wl.operations(in_process=True)
    plain, traced, per_round, spans = [], [], [], None
    t0 = time.perf_counter()
    while True:
        if len(traced) % 2:  # alternate which of the pair runs first
            plain.append(run_round(ops))
        tracer.reset()
        with tracer.installed():
            traced.append(run_round(ops))
        per_round.append(tracing.layer_metrics(tracer))
        if len(traced) % 2:
            plain.append(run_round(ops))
        if spans is None:
            spans = tracer.dump()
        now = time.perf_counter()
        if now - t0 >= args.seconds or now - started >= RUN_LIMIT_S:
            break
    rounds += plain + traced

    for name in per_round[0]:
        metrics[name] = statistics.median_low(r[name] for r in per_round)
    traced_med, plain_med = medians(traced), medians(plain)
    for label, value in traced_med.items():
        if f"study.cell.{label}_s" in metrics:
            metrics[f"study.cell.{label}_s"] = value
    if isinstance(wl, W.Study):
        metrics["study.replicates_per_s"] = wl.REPS * len(plain_med) / sum(plain_med.values())
        if wl.COVERAGE:
            data = proprisk.simulate_dataset(next(iter(wl.scenarios.values())), 0)
            metrics["bootstrap.peak_alloc_mb"] = peak_alloc_mb(
                lambda: proprisk.percentile_bootstrap(data, wl.config))
    elif wl.name == "trial_cli":
        cfg = proprisk.BootstrapConfig(seed=wl.boot_seed)
        metrics["bootstrap.peak_alloc_mb"] = peak_alloc_mb(lambda: proprisk.percentile_bootstrap(wl.data, cfg))
    metrics["trace.rounds"] = len(traced)
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced_med.values()) / sum(plain_med.values()) - 1.0)

    dump = wl.out_dir / f"trace_{wl.name}_{wl.seed}.json"
    dump.write_text(json.dumps({"first_traced_round": spans, "metrics": metrics}))
    print(f"  spans of the first traced round written to {dump}")
    return rounds, metrics


def peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_all(args, names):
    """Every workload in turn, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        p = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if not lines or p.returncode not in (0, 1):
            fail(f"workload {name} exited {p.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
