"""One timed operation of the benchmark, in a process of its own.

A fresh process per operation makes ``ru_maxrss`` the peak of that one
operation (plus the interpreter and its imports). The result, including the
spans of a traced operation, is written as JSON to ``--result``.

    python3 perfbench/op.py --kind pipeline --inputs DIR --out DIR \
        --threads 1 --trace 0 --result FILE [--fault MODULE:ATTR]

``--fault`` replaces one call site with a function that raises; the
self-test uses it to check that a failing stage is counted.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("pipeline", "train"), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--fault", default=None)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import tracing
    import workloads

    if args.fault:
        module, attr = args.fault.split(":")
        owner, name = tracing.resolve(module, attr)

        def fault(*a, **k):
            raise RuntimeError(f"injected fault at {args.fault}")
        setattr(owner, name, fault)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            workloads.run(args.kind, args.inputs, args.out, args.threads)
        else:
            tracer.span(tracing.ROOT, workloads.run, args.kind, args.inputs,
                        args.out, args.threads)
    except Exception:
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "peak_rss_kb": peak_kb, "error": error}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
