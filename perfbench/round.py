#!/usr/bin/env python3
"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/round.py --workload NAME --seed N
           [--mode timed|traced|setup] [--spans PATH]

Set-up (importing the engine, making the inputs, lifting them or building
their Morita contexts, and the instance-file round trip) is timed from the
start of this script, less the scan of the seeded stream that chooses the
inputs (`workloads.choose`): that is benchmark code whose cost depends on
the seed, so only the chosen inputs are made inside the clock.  Every interval is reported in wall seconds and
in reference seconds (calibrate.py), from the speed samples taken while
this round runs.  Then, unless --mode setup, every operation of the
workload runs once, over Q and then over GF(1009).  The last line of
stdout is one JSON object: the set-up seconds, one record per operation,
the peak resident memory of this process and, with --mode traced, the
per-layer metrics (the spans go to --spans).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    sampler = calibrate.SpeedSampler().start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "setup"), default="timed")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    imported = time.perf_counter()
    picks = workloads.choose(args.workload, args.seed)
    chosen = time.perf_counter()
    items = workloads.prepare(args.workload, workloads.make(picks))
    setup_end = time.perf_counter()
    out = {}
    tracer = None
    if args.mode != "setup":
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer().install()
        try:
            out["ops"] = workloads.run_operations(args.workload, items)
        finally:
            if tracer is not None:
                tracer.restore()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    time.sleep(calibrate.PAD_S)  # speed samples after the last interval
    sampler.stop()
    setup = [sampler.measure(START, imported), sampler.measure(chosen, setup_end)]
    out["setup_s"], out["setup_ref_s"] = (sum(x) for x in zip(*setup))
    workloads.add_seconds(out.get("ops", ()), sampler)
    if tracer is not None:

        def reference_seconds(start, end):
            return sampler.measure(start, end)[1]

        out["layers"] = tracer.layer_metrics(reference_seconds)
        if args.spans:
            tracer.write(args.spans, reference_seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
