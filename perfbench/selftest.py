"""Fast self-test of the benchmark on 12 m tiles.

    python3 perfbench/selftest.py

Checks that

1. every metric named in ``BENCHMARK.json`` is reported, with its unit, by
   an untraced and a traced run of each workload kind, and that the layer
   self times plus ``unattributed_s`` add up to the traced wall time;
2. an exception injected into a pipeline stage is counted as a failed
   operation;
3. a tampered artifact fails the manifest hash check, and artifacts that
   differ from the first operation's are caught;
4. the artifacts of a benchmark operation equal those of a plain
   ``run_pipeline`` call on the same inputs.

Exits 0 when all checks pass.
"""

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = dict(ground_size=12.0, ground_res=24, n_boxes=1, n_trees=1,
            n_vehicles=1)


def _expect(cond, what, failures):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def check_metrics(bench, run, tracing, w, work, failures):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = run.measure(w, 0, 0, trace, work / f"{w.kind}-{int(trace)}")
        report["environment"] = run.environment(w, 0, 0)
        got = json.loads(run.output_lines(report)[-1])["metrics"]
        _expect(report["correct"] and report["failed"] == 0,
                f"{w.kind} trace={int(trace)}: all operations pass", failures)
        missing = [m["name"] for m in bench[key]
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
        _expect(not missing, f"{w.kind} trace={int(trace)}: every {key} "
                f"metric printed with its unit {missing or ''}", failures)
        extra = sorted(set(got) - {m["name"] for m in bench[key]})
        _expect(not extra, f"{w.kind} trace={int(trace)}: no metric outside "
                f"BENCHMARK.json {extra or ''}", failures)
        if trace:
            parts = sum(got[f"self.{layer}_s"]["value"]
                        for layer in tracing.LAYERS)
            parts += got["unattributed_s"]["value"]
            wall = got["trace.wall_s"]["value"]
            _expect(abs(parts - wall) <= 1e-9 * max(wall, 1.0),
                    f"{w.kind}: self times + unattributed_s = trace.wall_s "
                    f"({parts:.6f} vs {wall:.6f})", failures)


def check_fault(run, w, work, failures):
    report = run.measure(w, 0, 0, False, work / "fault",
                         fault="pssmesh.pipeline:build_segment_graph")
    _expect(report["attempted"] >= 1
            and report["failed"] == report["attempted"]
            and report["error_rate"] == 1.0
            and report["metrics"]["success_rate"]["value"] == 0.0
            and not report["correct"],
            "injected stage exception counted in error_rate", failures)


def check_hashes(run, workloads, w, work, failures):
    from pssmesh.config import PipelineConfig
    from pssmesh.pipeline import run_pipeline

    inputs = work / "inputs"
    workloads.setup(w, 0, inputs)
    out = work / "op"
    record = run.run_op(w, inputs, out, False, None)
    _expect(run.check(w, out, record, None) is None,
            "clean operation passes its checks", failures)
    plain = work / "plain"
    run_pipeline(PipelineConfig(
        input_path=str(inputs / "input.ply"), output_dir=str(plain),
        planarity_model=str(inputs / "planarity.model"),
        semantic_model=str(inputs / "semantic.model"), threads=1))
    _expect(workloads.artifact_hashes(plain) == record["hashes"],
            "benchmark artifacts equal a plain run_pipeline's", failures)

    other = dict(record["hashes"], **{"graph.json": "0" * 64})
    reason = run.check(w, out, {}, other)
    _expect(reason is not None and "differ" in reason,
            "artifacts unlike the first operation's are caught", failures)

    with open(out / "graph.json", "ab") as fh:
        fh.write(b" ")
    reason = run.check(w, out, {}, None)
    _expect(reason is not None and "graph.json" in reason,
            "tampered artifact fails the manifest hash check", failures)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import tracing
    import workloads
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-",
                                 dir=ROOT / ".perfbench_run"))
    try:
        pipeline, train = (
            replace(workloads.WORKLOADS[name], tile=TINY, train_tile=TINY)
            for name in ("tile-small", "train"))
        for w in (pipeline, train):
            check_metrics(bench, run, tracing, w, work, failures)
        check_fault(run, pipeline, work, failures)
        check_hashes(run, workloads, pipeline, work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("ok" if not failures else
                         f"FAILED: {len(failures)} check(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
