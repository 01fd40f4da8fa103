"""One benchmark pass in a fresh interpreter; launched by run.py.

Usage: one_pass.py --workload NAME --seed N [--trace] [--selftest]
       [--setup-only]

Imports fusionhom, builds the workload inputs, runs every step (traced
if asked), then checks each output against its known answer outside the
timed region.  Prints one JSON line with perf_counter timestamps and
the host-speed probes (speed.py) inside each timed interval; the parent
process holds the launch timestamp (perf_counter reads the system-wide
monotonic clock, so the two are comparable) and normalises the times.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import speed


def main() -> int:
    # started before fusionhom is imported, so set-up time is probed too
    probe = speed.Probe().start()
    import workloads
    from spans import Tracer

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build_inputs(args.seed)
    ready = time.perf_counter()
    probe_ready = probe.mark()
    if args.setup_only:
        probe.stop()
        print(json.dumps({"ready": ready, "probe_ready": probe_ready}))
        return 0

    tracer = Tracer() if args.trace else None
    items = workload.items()
    outputs, crashes, steps, step_probes = [], {}, {}, {}
    if tracer:
        tracer.install()
    try:
        for step_name, step_items in workload.steps:
            start, probe_start = time.perf_counter(), probe.mark()
            for item in step_items:
                try:
                    outputs.append(item.run(inputs))
                except Exception as exc:  # noqa: BLE001 - a failed verdict
                    crashes[len(outputs)] = (f"crashed: {type(exc).__name__}:"
                                             f" {exc}")
                    outputs.append(None)
            steps[step_name] = time.perf_counter() - start
            step_probes[step_name] = speed.between(probe.mark(), probe_start)
    finally:
        restored = tracer.uninstall() if tracer else True
    done = time.perf_counter()
    probe_done = probe.mark()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors, caught, missed = [], 0, []
    for i, (item, output) in enumerate(zip(items, outputs)):
        reason = (crashes[i] if output is None
                  else workloads.check_item(item, output, inputs))
        if reason:
            errors.append(f"{item.name}: {reason}")
        elif args.selftest:
            if workloads.tamper_is_caught(item, output, inputs):
                caught += 1
            else:
                missed.append(item.name)

    result = {"ready": ready, "probe_ready": probe_ready, "done": done,
              "probe_done": probe_done, "steps": steps,
              "step_probes": step_probes,
              "peak_rss_mb": peak_rss_mb, "verdicts": len(items),
              "errors": errors, "restored": restored}
    if args.selftest:
        result["selftest"] = {"caught": caught, "missed": missed}
    if tracer:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
