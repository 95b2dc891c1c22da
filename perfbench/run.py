"""The pssmesh benchmark: one workload, one seed, timed from outside.

    python3 perfbench/run.py --workload tile-small --seed 0 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The run

1. sets up several times (tiles from the seed, models trained where the
   workload needs them) and reports the median set-up time; every set-up
   must write byte-identical files;
2. repeats the workload's operation, each in a fresh process
   (``perfbench/op.py``), until ``--seconds`` have passed and at least two
   operations ran. With ``--trace 1`` every second operation is traced;
3. counts an operation as failed when it raises, when a ``manifest.json``
   hash disagrees with the file beside it, or when its artifacts differ
   from those of the first operation (traced or not);
4. prints the metrics, one per line, and as its last line one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``perfbench/tracing.py``. The full report, with the spans of a
traced run and the environment, goes to ``.perfbench_out/``.

Exit codes: 0 when every check passed, 1 when an operation failed a check,
2 when the sources or the arguments are missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "faces_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s", "success_rate": "ratio", "op": "ratio",
              "miou": "ratio"}
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0     # cheap set-ups repeat until this much time
MAX_SETUPS = 20
MIN_OPS = 2
RUN_DEADLINE_S = 120.0      # no operation starts after this; limit is 180 s
OP_TIMEOUT_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def environment(w, seed: int, seconds: float) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": w.name, "seed": seed, "seconds": seconds,
            "tile": w.tile, "train_tile": w.train_tile,
            "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": commit}


def run_op(w, inputs: Path, out: Path, traced: bool, fault) -> dict:
    """Run one operation in a child process; return its result record."""
    result_path = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "op.py"), "--kind", w.kind,
           "--inputs", str(inputs), "--out", str(out),
           "--threads", str(nproc() if w.kind == "train" else 1),
           "--trace", "1" if traced else "0", "--result", str(result_path)]
    if fault:
        cmd += ["--fault", fault]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"operation exceeded {OP_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"op.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text())


def check(w, out: Path, record: dict, reference: dict | None) -> str | None:
    """Why the operation's output is wrong, or None."""
    import workloads
    if record.get("error"):
        return record["error"].strip().splitlines()[-1]
    if w.kind == "pipeline":
        bad = workloads.manifest_errors(out)
        if bad:
            return f"manifest hash mismatch: {', '.join(bad)}"
    hashes = workloads.artifact_hashes(out)
    if not hashes:
        return "operation wrote no artifacts"
    if reference is not None and hashes != reference:
        diff = sorted(n for n in set(hashes) | set(reference)
                      if hashes.get(n) != reference.get(n))
        return f"artifacts differ from the first operation: {', '.join(diff)}"
    record["hashes"] = hashes
    return None


def measure(w, seed: int, seconds: float, trace: bool, work: Path,
            fault: str | None = None) -> dict:
    """Set up, run and check one workload; return the full report.

    ``fault`` is passed to every operation's ``--fault``.
    """
    import tracing
    import workloads

    run_start = time.perf_counter()
    failures = []

    # -- set-up, repeated; tile synthesis is traced separately
    setup_times, synth_times = [], []
    setup_hashes = None
    while (len(setup_times) < MIN_SETUPS
           or (sum(setup_times) < MIN_SETUP_SECONDS
               and len(setup_times) < MAX_SETUPS)):
        dest = work / f"setup{len(setup_times)}"
        tracer = tracing.Tracer()
        restore = tracing.install(
            tracer, [("workloads", "make_tile", "synth.tile", None)])
        try:
            t0 = time.perf_counter()
            faces = workloads.setup(w, seed, dest)
            setup_times.append(time.perf_counter() - t0)
        finally:
            restore()
        synth_times.append(tracing.span_times(tracer.spans)[0]["synth.tile"])
        hashes = workloads.artifact_hashes(dest)
        if setup_hashes is None:
            setup_hashes = hashes
        else:
            if hashes != setup_hashes:
                failures.append("set-up output differs between repetitions")
            shutil.rmtree(dest)
    inputs = work / "setup0"

    # -- timed operations
    ops = []
    reference = None
    scored_out = None
    measure_start = time.perf_counter()
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1
        out = work / f"op{i}"
        record = run_op(w, inputs, out, traced, fault)
        record["traced"] = traced
        reason = check(w, out, record, reference)
        record["failure"] = reason
        ops.append(record)
        if reason is None and reference is None:
            reference, scored_out = record["hashes"], out
        elif out.exists():
            shutil.rmtree(out)
        if reason is not None:
            failures.append(f"operation {i}{' (traced)' if traced else ''}: "
                            f"{reason}")
        now = time.perf_counter()
        if now - run_start > RUN_DEADLINE_S:
            break
        if (len(ops) >= MIN_OPS and (not trace or len(ops) % 2 == 0)
                and now - measure_start >= seconds):
            break

    ok = [r for r in ops if r["failure"] is None]
    plain = [r for r in ok if not r["traced"]]
    traced_ok = [r for r in ok if r["traced"]]
    failed = len(ops) - len(ok)
    if not trace:
        wall = statistics.median(r["wall_s"] for r in plain) if plain else 0.0
        quality = {"op": 0.0, "miou": 0.0}
        if scored_out is not None:
            quality = workloads.score(w, inputs, scored_out, work / "score")
        metrics = {
            "wall_s": wall,
            "faces_per_s": faces / wall if wall else 0.0,
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] for r in plain) / 1024.0 if plain else 0.0,
            "setup_s": statistics.median(setup_times),
            "success_rate": 1.0 - failed / len(ops),
            **quality,
        }
        units = END_TO_END
    else:
        per_op = [tracing.layer_metrics(r["spans"], r["counts"])
                  for r in traced_ok]
        names = list(per_op[0]) if per_op else []
        metrics = {n: statistics.fmean(m[n] for m in per_op) for n in names}
        if traced_ok and plain:
            metrics["trace.overhead_s"] = (
                statistics.fmean(r["wall_s"] for r in traced_ok)
                - statistics.fmean(r["wall_s"] for r in plain))
        metrics["pipeline.artifact_bytes"] = (
            sum((scored_out / n).stat().st_size for n in reference)
            if w.kind == "pipeline" and scored_out is not None else 0)
        metrics["synth.tile_s"] = statistics.median(synth_times)
        units = {n: per_layer_unit(n) for n in metrics}
    report = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "failures": failures,
        "faces": faces,
        "setups": len(setup_times),
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in metrics.items()},
        "operations": [{k: r.get(k) for k in
                        ("traced", "wall_s", "peak_rss_kb", "failure")}
                       for r in ops],
        "spans": [r["spans"] for r in traced_ok],
    }
    if trace:
        report["moves"] = tracing.MOVES
    return report


def output_lines(report: dict) -> list:
    """Human-readable lines, then the result as one JSON object."""
    env = report["environment"]
    lines = [f"{env['workload']} seed {env['seed']}: "
             f"{report['attempted']} operations, {report['failed']} failed, "
             f"error_rate {report['error_rate']:g}, {report['setups']} "
             f"set-ups, {report['faces']} input faces"]
    lines += [f"  FAILED {failure}" for failure in report["failures"]]
    lines += [f"  {name:32s} {m['value']:.6g} {m['unit']}"
              for name, m in report["metrics"].items()]
    lines.append("environment " + json.dumps(env))
    lines.append(json.dumps({k: report[k] for k in
                             ("correct", "attempted", "failed", "metrics")}))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one pssmesh benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pssmesh" / "__init__.py").is_file():
        print(f"perfbench: no pssmesh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:           # children inherit one BLAS thread
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    work = ROOT / ".perfbench_run" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["environment"] = environment(w, args.seed, args.seconds)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print("\n".join(output_lines(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
