"""Benchmark of the han package: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload train|eval-b64|predict-b1 --seed N --seconds S --trace 0|1

With ``--trace 0`` every operation runs untraced and the end-to-end
metrics are reported. With ``--trace 1`` the layer wrappers of
``tracing.py`` are installed on every other operation; the traced
operations give the per-layer metrics and the untraced ones the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and host facts are also written under ``.bench_out/``.
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from collections import namedtuple
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
# an operation stops being started this long after the measuring time ends,
# so a slow host still exits well within its time limit
GRACE_SECONDS = 60.0

END_TO_END = {
    "seq_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SITES = ("J", "F", "T", "Fusion")
SITE_ROWS = {"J": "j_att", "F": "f_att", "T": "t_att", "Fusion": "fusion_att"}
PER_LAYER = {
    "model.forward_ms_per_seq": "ms",
    **{f"attention.{s}_ms_per_seq": "ms" for s in SITES},
    "attention.calls_per_seq": "count",
    "model.other_ms_per_seq": "ms",
    **{f"attention.{s}_gmacs": "GMAC/s" for s in SITES},
    "host.gemm_gmacs": "GMAC/s",
    "autodiff.backward_ms_per_seq": "ms",
    "autodiff.tape_records_per_seq": "count",
    "train.adam_ms_per_step": "ms",
    "train.loop_other_ms_per_seq": "ms",
    "data.augment_ms_per_seq": "ms",
    "rng.draw_ms_per_seq": "ms",
    "data.parse_ms_per_seq": "ms",
    "data.uniform_sample_ms_per_seq": "ms",
    "synth.generate_s": "s",
    "data.load_manifest_ms": "ms",
    "model.save_checkpoint_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def limit_threads() -> None:
    """Cap BLAS and OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = usable_cores()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def process_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def gemm_gmacs(rows: int = 1536, inner: int = 512, cols: int = 512, repeats: int = 15) -> float:
    """Median float32 GEMM rate on this host, the roofline for the per-site rates."""
    import numpy as np
    gen = np.random.default_rng(0)
    a = gen.standard_normal((rows, inner), dtype=np.float32)
    b = gen.standard_normal((inner, cols), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        start = perf_counter()
        a @ b
        times.append(perf_counter() - start)
    return rows * inner * cols / statistics.median(times) / 1e9


def host_facts() -> dict:
    import platform
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "process_threads": process_threads(),
    }


Sample = namedtuple("Sample", "seconds seqs traced")


def measure(workload, seconds: float, tracer, setup, setups: int):
    """Closed loop: one warm-up operation, then operations until time and count are met.

    `setup(k)` runs set-up number k. The first runs before the warm-up; the
    others are spread evenly over the measuring time, so that set-up time
    samples the same host conditions as the operations do.
    """
    samples: list[Sample] = []
    attempted = failed = 0
    problems_seen: list[str] = []

    def one(index: int, traced: bool) -> Sample | None:
        nonlocal attempted, failed
        attempted += 1
        workload.prepare()
        sample = None
        try:
            with tracer.span("op", index) if traced else nullcontext():
                start = perf_counter()
                seqs, output = workload.run()
                elapsed = perf_counter() - start
            sample = Sample(elapsed, seqs, traced)
            problems = workload.check(output)
        except Exception:  # the loop keeps running; the operation counts as failed
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            if len(problems_seen) < 5:
                problems_seen.append(f"operation {index}: {'; '.join(problems)}")
        return sample

    setup(0)
    workload.verify_setup()
    one(0, False)
    done_setups = 1
    index = 1
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if done_setups < setups and elapsed >= done_setups * seconds / setups:
            setup(done_setups)
            done_setups += 1
            continue
        if elapsed >= seconds and len(samples) >= workload.min_ops:
            break
        if elapsed >= seconds + GRACE_SECONDS:
            break
        sample = one(index, tracer is not None and index % 2 == 1)
        if sample is not None:
            samples.append(sample)
        index += 1
    for k in range(done_setups, setups):
        setup(k)
    return samples, attempted, failed, problems_seen


def end_to_end(samples, setup_times, rss_mb) -> dict:
    timed = [s for s in samples if not s.traced]
    return {
        "seq_per_s": sum(s.seqs for s in timed) / sum(s.seconds for s in timed),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }


def per_layer(spans, samples, site_flops: dict, gemm: float) -> dict:
    from tracing import self_times

    own = self_times(spans)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    setup: dict[int, dict[str, float]] = {}
    op_time = root_self = 0.0
    train_seqs = 0
    for i, (name, parent, op, start, end, count, tag) in enumerate(spans):
        if op < 0:
            per_setup = setup.setdefault(op, {})
            per_setup[name] = per_setup.get(name, 0.0) + end - start
            continue
        if parent < 0:
            op_time += end - start
            root_self += own[i]
            continue
        self_s[name] = self_s.get(name, 0.0) + own[i]
        incl_s[name] = incl_s.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        if tag == "train":
            train_seqs += count

    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    seqs = sum(s.seqs for s in traced)
    fwd_seqs = counts.get("model.forward", 0)

    def ms_per_seq(seconds: float) -> float:
        return 1e3 * seconds / seqs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "model.forward_ms_per_seq": ms_per_seq(incl_s.get("model.forward", 0.0)),
        "attention.calls_per_seq": ratio(sum(n for k, n in calls.items() if k.startswith("attention.")), fwd_seqs),
        "model.other_ms_per_seq": ms_per_seq(self_s.get("model.forward", 0.0)),
        "host.gemm_gmacs": gemm,
        "autodiff.backward_ms_per_seq": ms_per_seq(self_s.get("autodiff.backward", 0.0)),
        "autodiff.tape_records_per_seq": ratio(counts.get("autodiff.backward", 0), train_seqs),
        "train.adam_ms_per_step": 1e3 * ratio(self_s.get("train.adam_step", 0.0), calls.get("train.adam_step", 0)),
        "train.loop_other_ms_per_seq": ms_per_seq(self_s.get("train.train_loop", 0.0)),
        "data.augment_ms_per_seq": ms_per_seq(self_s.get("data.augment", 0.0)),
        "rng.draw_ms_per_seq": ms_per_seq(self_s.get("rng.uniform", 0.0)),
        "data.parse_ms_per_seq": ms_per_seq(self_s.get("data.parse_sequence", 0.0)),
        "data.uniform_sample_ms_per_seq": ms_per_seq(self_s.get("data.uniform_sample", 0.0)),
    }
    for site in SITES:
        seconds = self_s.get(f"attention.{site}", 0.0)
        out[f"attention.{site}_ms_per_seq"] = ms_per_seq(seconds)
        out[f"attention.{site}_gmacs"] = ratio(site_flops[site] * fwd_seqs, seconds) / 1e9
    for metric, name, scale in (
        ("synth.generate_s", "synth.generate_dataset", 1.0),
        ("data.load_manifest_ms", "data.load_manifest", 1e3),
        ("model.save_checkpoint_ms", "model.save_checkpoint", 1e3),
        ("model.load_checkpoint_ms", "model.load_checkpoint", 1e3),
    ):
        out[metric] = scale * statistics.median(per_setup.get(name, 0.0) for per_setup in setup.values())
    out["trace.overhead_ratio"] = ratio(
        statistics.median(s.seconds / s.seqs for s in traced),
        statistics.median(s.seconds / s.seqs for s in untraced),
    )
    out["trace.layer_share"] = 1.0 - ratio(root_self, op_time)
    return {name: out[name] for name in PER_LAYER}


def run(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
        out_dir: str | None = None) -> dict:
    """Set up, measure and check one workload; returns the result line's object and run details."""
    from tracing import Tracer

    profile = importlib.import_module("han.profile")
    model_mod = importlib.import_module("han.model")

    config = model_mod.HANConfig()
    rows = {r.module: r.flops for r in profile.cost_report(config).rows}
    site_flops = {site: rows[row] for site, row in SITE_ROWS.items()}
    gemm = gemm_gmacs()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    tracer = Tracer(config) if trace else None
    setup_times = []
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
            def setup(k: int) -> None:
                start = perf_counter()
                with tracer.span("setup", -(k + 1)) if tracer else nullcontext():
                    workload.setup(work_dir)
                setup_times.append(perf_counter() - start)

            samples, attempted, failed, problems = measure(workload, seconds, tracer, setup, setup_repeats)
    finally:
        workload.close()
    if not any(not s.traced for s in samples) or (trace and not any(s.traced for s in samples)):
        raise RuntimeError("no operation completed; nothing to report")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics = per_layer(tracer.spans, samples, site_flops, gemm)
        units = PER_LAYER
    else:
        metrics = end_to_end(samples, setup_times, rss_mb)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": dict(host_facts(), gemm_gmacs=gemm),
        "operations": {"timed": len([s for s in samples if not s.traced]),
                       "traced": len([s for s in samples if s.traced])},
        "setup_s_samples": setup_times,
        "latency_s_samples": [s.seconds for s in samples if not s.traced],
        "problems": problems,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{workload.name}-seed{workload.seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(dict(details, result=result), fh, indent=1)
        if tracer is not None:
            tracer.write(stem + "-spans.jsonl")
    return {"result": result, "details": details}


def latency_line(latencies) -> str:
    """Operation latency: the median and the highest of p99/p90 with ten samples beyond it."""
    n = len(latencies)
    line = f"latency_p50_ms {1e3 * statistics.median(latencies):.6g} ms"
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            line += f", latency_p{pct}_ms {1e3 * statistics.quantiles(latencies, n=100)[pct - 1]:.6g} ms"
            break
    return line + f" (over {n} untraced operations)"


def report_lines(outcome: dict) -> list[str]:
    d, r = outcome["details"], outcome["result"]
    host = " ".join(f"{k}={v}" for k, v in d["host"].items())
    rate = r["failed"] / r["attempted"]
    lines = [
        f"workload={d['workload']} seed={d['seed']} seconds={d['seconds']} trace={d['trace']}",
        f"host {host}",
        f"operations: {d['operations']['timed']} untraced, {d['operations']['traced']} traced",
        latency_line(d["latency_s_samples"]),
        f"error_rate {rate:.6g} ratio ({r['failed']} failed of {r['attempted']} attempted)",
    ]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in r["metrics"].items()]
    lines += [f"problem: {p}" for p in d["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval-b64", "predict-b1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    limit_threads()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import han
    except ImportError as exc:
        print(f"bench: cannot import the han package from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(han.__file__).startswith(src + os.sep):
        print(f"bench: han was imported from {han.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    outcome = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace),
                  out_dir=os.path.join(ROOT, ".bench_out"))
    for line in report_lines(outcome):
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
