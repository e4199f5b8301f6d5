"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train.upmlm --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run is split over a few worker processes started one
after another, each of which imports, sets up and measures for its share of
the time; their samples are pooled. A process keeps its own speed for its
whole life on a shared machine, so pooling several processes steadies a
run's median. With ``--trace 1`` one process runs untraced for half the time
and traced for the other half.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``). The line before it is a JSON object with
the environment, the configuration, the checks and the per-workload metric
names. The same report is written under ``.perfbench_out/`` in the
checkout, with the spans of a traced run.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time


_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKERS = {"preset": 3, "tiny": 2}
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("preset", "tiny"), default="preset", help="tiny is for the smoke tests")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"))
    parser.add_argument("--worker", action="store_true", help="measure in this process only")
    return parser.parse_args(argv)


def has_package() -> bool:
    if (ROOT / "src" / "pmlm" / "__init__.py").is_file():
        return True
    print(f"error: no pmlm package under {ROOT / 'src'}", file=sys.stderr)
    return False


def import_pmlm():
    """Import pmlm from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not has_package():
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import pmlm  # noqa: F401
    import pmlm.checkpoint  # noqa: F401
    import pmlm.cli  # noqa: F401

    if Path(pmlm.__file__).resolve().parent != src / "pmlm":
        print(f"error: pmlm was imported from {pmlm.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return sys.modules["pmlm"]


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, workload, loadavg: str) -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workload.sizes.__dict__,
        "config": workload.config(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in _BLAS_ENV},
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
    }


def cli_import_s(reps: int) -> float:
    """Median time to import pmlm.cli in a fresh interpreter."""
    from perfbench import metrics

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pmlm.cli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return metrics.median(times)


class Run:
    """Timed operations of one workload, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = workload.reference
        self.ops = []
        self.errors = []

    def measure(self, seconds: float, tracer=None) -> "Run":
        """Run operations until ``seconds`` have passed.

        The reference kernel is timed before each operation; checks run
        after it, untraced.
        """
        t_end = time.perf_counter() + seconds
        i = 0
        while True:
            if self.workload.kernel_per_op:
                self.reference.measure()
                index = len(self.reference.times_ms) - 1
            if tracer is not None:
                tracer.active = True
            res = self.checked(lambda: self.workload.op(i))
            if tracer is not None:
                tracer.active = False
                tracer.next_op()
            if self.workload.kernel_per_op:
                res.ref_index = [index] * len(res.samples_ms)
            if not res.failures:
                self.checked(lambda: self.workload.check(res) or res, res)
            self.ops.append(res)
            i += 1
            if time.perf_counter() >= t_end:
                break
        for op in self.ops:
            op.scales = [self.reference.scale_at(j) for j in op.ref_index]
        return self

    def checked(self, fn, res=None):
        """Call ``fn``; an exception becomes a failure on ``res`` (or a new result)."""
        from perfbench.workloads import OpResult

        try:
            return fn()
        except Exception as exc:  # an operation that raises counts as failed
            res = res if res is not None else OpResult()
            res.failures.append(f"{type(exc).__name__}: {exc}")
            self.errors.append(traceback.format_exc(limit=3))
            return res

    def samples(self, scaled: bool = True):
        """Operation times in ms, scaled to the reference kernel's nominal speed."""
        return [x * (k if scaled else 1.0) for op in self.ops for x, k in zip(op.samples_ms, op.scales)]

    def tokens_per_s(self, scaled: bool = True):
        return [
            t / (ms * (k if scaled else 1.0) * 1e-3)
            for op in self.ops
            for ms, t, k in zip(op.samples_ms, op.tokens, op.scales)
        ]


def end_to_end(run: Run, run_checks, setup_wall_s: float):
    import resource

    from perfbench import metrics

    samples = run.samples()
    setup_scale = run.reference.nominal_ms / run.reference.median_ms()
    value, pct, n = metrics.tail(samples)
    losses = [op.loss_nats for op in run_checks + run.ops if op.loss_nats is not None and not op.failures]
    values = {
        "setup_s": setup_wall_s * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms": metrics.median(samples),
        "op_ms.tail": value,
        "tokens_per_s": metrics.median(run.tokens_per_s()),
        "loss_nats": losses[0] if losses else float("nan"),
    }
    wall = run.samples(scaled=False)
    info = {
        "tail_percentile": pct,
        "tail_samples": n,
        "values": values,
        "tokens_per_s_samples": run.tokens_per_s(),
        "wall": {
            "setup_s": setup_wall_s,
            "op_ms": metrics.median(wall),
            "op_ms.tail": metrics.tail(wall)[0],
            "tokens_per_s": metrics.median(run.tokens_per_s(scaled=False)),
        },
        "reference": {
            "kernel": run.reference.kernel,
            "nominal_ms": run.reference.nominal_ms,
            "median_ms": run.reference.median_ms(),
        },
    }
    return values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace == 0 and not args.worker:
        return coordinate(args)
    return measure(args)


def named_metrics(workload: str, values: dict, failed: int, attempted: int) -> dict:
    """The metrics under their per-workload names, with failed_ratio."""
    from perfbench import metrics

    named = {
        name: values[metric] * scale
        for name, (wl, metric, scale) in metrics.PER_WORKLOAD_NAMES.items()
        if wl == workload and metric in values
    }
    for key in ("setup_s", "peak_rss_mb"):
        if key in values:
            named[key] = values[key]
    named["failed_ratio"] = failed / attempted
    return named


def emit(args, detail: dict, result: dict) -> None:
    """Print the detail and result lines; write the report unless a worker."""
    if not args.worker:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"detail": detail, "result": result}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def coordinate(args) -> int:
    """Run the workers one after another and pool what they measured."""
    if not has_package():
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import metrics

    count = WORKERS[args.size]
    deadline = time.perf_counter() + 170.0
    details, results = [], []
    for _ in range(count):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / count),
            "--trace", "0", "--size", args.size, "--out-dir", args.out_dir,
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter())
            )
        except subprocess.TimeoutExpired:
            print("error: a worker did not finish in time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        details.append(json.loads(lines[-2])["detail"])
        results.append(json.loads(lines[-1]))

    samples = [x for d in details for x in d["samples_ms"]]
    value, pct, n = metrics.tail(samples)
    losses = [d["values"]["loss_nats"] for d in details]
    values = {
        "setup_s": metrics.median([d["values"]["setup_s"] for d in details]),
        "peak_rss_mb": max(d["values"]["peak_rss_mb"] for d in details),
        "op_ms": metrics.median(samples),
        "op_ms.tail": value,
        "tokens_per_s": metrics.median([x for d in details for x in d["tokens_per_s_samples"]]),
        "loss_nats": losses[0],
    }
    failures = [msg for d in details for msg in d["failures"]]
    same_loss = all(repr(x) == repr(losses[0]) for x in losses)
    if not same_loss:
        failures.append(f"the workers' first losses differ: {losses}")
    attempted = sum(r["attempted"] for r in results) + 1  # + the cross-worker check
    failed = sum(r["failed"] for r in results) + (0 if same_loss else 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, (unit, *_) in metrics.END_TO_END.items()
        },
    }
    keep = ("operations", "samples", "setup", "wall", "reference", "values", "tail_percentile", "tail_samples")
    detail = {
        "env": {**details[0]["env"], "workers": count, "seconds_per_worker": args.seconds / count},
        "named_metrics": named_metrics(args.workload, values, failed, attempted),
        "tail_percentile": pct,
        "tail_samples": n,
        "workers": [{k: d[k] for k in keep} for d in details],
        "failures": failures[:20],
        "errors": [e for d in details for e in d["errors"]][:3],
    }
    emit(args, detail, result)
    return 0


def measure(args) -> int:
    """Set up and measure in this process (a worker, or a traced run)."""
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    pmlm = import_pmlm()
    import_s = time.perf_counter() - _START

    from perfbench import metrics, tracer, workloads

    if args.workload not in metrics.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from {sorted(metrics.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.size == "tiny" else workloads.PRESET
    out_dir = Path(args.out_dir)
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, sizes, args.seed, work)
    try:
        setup_times, layer_setup = [], {}
        for _ in range(sizes.setup_reps):
            t0 = time.perf_counter()
            timings = workload.setup()
            setup_times.append(time.perf_counter() - t0)
            for key, value in timings.items():
                layer_setup.setdefault(key, []).append(value)
        setup_wall_s = import_s + metrics.median(setup_times)
        env = environment(args, workload, loadavg)

        checker = Run(workload)
        run_checks = checker.checked(workload.run_checks)
        if not isinstance(run_checks, list):
            run_checks = [run_checks]
        if args.trace == 0:
            run = Run(workload).measure(args.seconds)
            values, tail_info = end_to_end(run, run_checks, setup_wall_s)
            traced = None
        else:
            run = Run(workload).measure(args.seconds / 2)
            if workload.intervals is not None:
                workload.intervals.clear()
            with tracer.Tracer(pmlm) as tr:
                traced = Run(workload).measure(args.seconds / 2, tr)
            run_checks.append(trace_checks(run, traced, tr, workload))
            values = trace_metrics(run, traced, tr, workload, layer_setup, sizes)
            tail_info = {}
            out_dir.mkdir(parents=True, exist_ok=True)
            tr.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = run_checks + run.ops + (traced.ops if traced else [])
    errors = checker.errors + run.errors + (traced.errors if traced else [])
    if not run.samples():
        print(f"error: no operation of {args.workload} completed", file=sys.stderr)
        for err in errors[:3]:
            print(err, file=sys.stderr)
        return 1
    attempted = len(ops)
    failed = sum(1 for op in ops if op.failures)
    catalogue = metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": catalogue[name][0]} for name in catalogue},
    }
    detail = {
        "env": env,
        "named_metrics": named_metrics(args.workload, values, failed, attempted),
        **tail_info,
        "operations": len(run.ops),
        "samples": len(run.samples()),
        "samples_ms": run.samples(),
        "setup": {"wall_s": setup_wall_s, "import_s": import_s, "setup_reps_s": setup_times},
        "failures": [msg for op in ops for msg in op.failures][:20],
        "errors": errors[:3],
    }
    emit(args, detail, result)
    return 0


def trace_checks(run: Run, traced: Run, tr, workload):
    """Traced outputs equal untraced ones; on training, spans cover each step."""
    from perfbench.workloads import OpResult

    res = OpResult()
    pairs = list(zip(run.ops, traced.ops))
    res.check(
        all(a.output == b.output for a, b in pairs if not a.failures and not b.failures),
        "traced outputs differ from untraced outputs",
    )
    coverage = step_coverage(tr, workload)
    if coverage is not None:
        res.check(coverage >= 0.9, f"spans cover {coverage:.3f} of a training step, below 0.9")
    return res


def step_coverage(tr, workload):
    """Median share of each traced step covered by top-level spans (training only)."""
    from perfbench import metrics

    if not workload.intervals:
        return None
    return metrics.median([tr.covered_s(lo, hi) / (hi - lo) for lo, hi in workload.intervals])


def trace_metrics(run: Run, traced: Run, tr, workload, layer_setup, sizes) -> dict:
    from perfbench import metrics

    intervals = workload.intervals or []
    values = tr.layer_metrics(tr.calls("optim.adam") if intervals else len(traced.ops))
    uncovered = sum((hi - lo) - tr.covered_s(lo, hi) for lo, hi in intervals)
    values["training.loop_self_ms"] = uncovered * 1e3 / len(intervals) if intervals else 0.0
    values["trace.step_coverage"] = step_coverage(tr, workload) or 0.0

    setup = {k: metrics.median(v) for k, v in layer_setup.items()}
    if intervals:  # training ingests and saves inside train(); the checks reload
        for key, span in (("data.ingest_s", "data.ingest"), ("checkpoint.save_s", "checkpoint.save")):
            durations = [end - start for name, start, end, _ in tr.spans if name == span]
            if durations:
                setup[key] = metrics.median(durations)
        if workload.load_s:
            setup["checkpoint.load_s"] = metrics.median(workload.load_s)
        ckpt = Path(workload.run_config.checkpoint_path)
        setup["checkpoint.bytes"] = float(ckpt.stat().st_size) if ckpt.exists() else 0.0
    for key in ("data.synthesize_s", "data.ingest_s", "checkpoint.save_s", "checkpoint.load_s", "checkpoint.bytes"):
        values[key] = setup.get(key, 0.0)

    traced_scales = [k for op in traced.ops for k in op.scales]
    if traced_scales:
        scale = metrics.median(traced_scales)
        for name, (unit, *_) in metrics.PER_LAYER.items():
            if unit == "ms":
                values[name] *= scale
    values["cli.import_s"] = cli_import_s(sizes.import_reps)
    untraced, with_spans = run.samples(), traced.samples()
    values["trace.overhead_ratio"] = (
        metrics.median(with_spans) / metrics.median(untraced) - 1.0 if untraced and with_spans else 0.0
    )
    return values


if __name__ == "__main__":
    for _name in _BLAS_ENV:
        os.environ[_name] = str(BLAS_THREADS)
    sys.exit(main())
