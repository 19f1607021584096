"""Benchmark ``repro serve`` from outside: one workload, one seeded run.

Usage, from the repository root::

    python3 servebench/run.py --workload group-decide --seed 1 --seconds 20 --trace 0

The system under test is a ``repro serve`` subprocess started from this
checkout's ``src``; the load generator is this single asyncio process,
talking to it over one producer and one subscriber connection.  The
generator keeps one CPU to itself and the server gets the others.  A
run has an open-loop phase (16-tuple ``ingest_batch`` frames sent at
the workload's fixed rate on their due times) and a closed-loop phase
(each batch's ack awaited before the next).  Every delivered
``(app, seq)`` stream is checked against the per-epoch batch reference;
a divergence, a failed call or a generator running more than one batch
period late at p99 (beyond an idle loop's lateness) makes the run
incorrect.

End-to-end metrics (``--trace 0``):

* ``setup_s``: spawn -> last subscription acknowledged, median of 5;
* ``capacity_tps``: closed-loop tuples/s, lower quartile of half-second
  windows;
* ``deliver_p50_ms``: open loop, receipt minus the due time of the
  arrival (or churn operation) that released the delivery;
* ``deliver_p99_ms``: the same, p99 per half-second window, median
  window (the whole-run p99 is in the provenance line);
* ``egress_bytes_per_tuple``: the gateway's outbound bytes per input
  tuple (deliveries plus the producer's acks);
* ``oi_ratio``: distinct delivered tuples per input tuple;
* ``server_rss_mb``: peak RSS of the server's processes after the open
  loop;
* ``correct_delivery_ratio``: 1 - error rate, where errors are missing,
  extra or out-of-order deliveries and failed calls per expected
  delivery.

``--trace 1`` replays the same inputs through each layer's public entry
point under benchmark spans and prints the per-layer metrics of
``servebench/metrics.py``.  The line before the result is the run's
provenance: commit, source digest, seed, workload parameters,
``platform_info()``, error breakdown and the sample count behind every
percentile.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_catalog(manifest: Path) -> None:
    """Refuse to run when ``BENCHMARK.json`` and the catalog disagree."""
    from servebench.metrics import END_TO_END, PER_LAYER
    from servebench.workloads import WORKLOADS

    spec = json.loads(manifest.read_text())
    listed = (
        [w["name"] for w in spec["workloads"]],
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    ours = (list(WORKLOADS), END_TO_END, PER_LAYER)
    if listed != ours:
        raise SystemExit("BENCHMARK.json does not match servebench/metrics.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench.measure import run_benchmark
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    _check_catalog(ROOT / "BENCHMARK.json")
    result, detail = asyncio.run(
        run_benchmark(
            ROOT, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    )
    print(json.dumps({"provenance": detail}, sort_keys=True))
    from servebench.metrics import END_TO_END, PER_LAYER

    catalog = PER_LAYER if args.trace else [m[:3] for m in END_TO_END]
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit, _ in catalog
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
