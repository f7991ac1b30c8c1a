#!/usr/bin/env python3
"""Run one workload of the stack benchmark and print its metrics.

From the root of a checkout::

    python3 stackbench/run.py --workload heat2d-1rank --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced pass that prints the per-layer metrics.  Before the
result the run prints its provenance block and, for ``--trace 0``, every
calibrated metric beside its raw value.  The last line of standard output
is the result: one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Workloads, metrics and the calibration method are
described in ``stackbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("heat2d-1rank", "wave2d-2proc", "serve-mixed")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"stackbench: no stack sources at {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import suite

    metrics, raw, samples, tally, calibration = suite.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    _stop_resource_tracker()
    print("provenance: " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "samples": samples, **measure.provenance(calibration)}))
    for name, (value, unit) in metrics.items():
        raw_text = f"  raw {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:<34} {value:>14.6g} {unit:<8}{raw_text}")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker that multiprocessing started.

    Every session is closed by now, so no segment is left to clean up; the
    tracker would otherwise outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
