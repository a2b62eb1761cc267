"""End-to-end host-cost benchmark of the gateway reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload farm --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced trials of the seed's schedule for
``--seconds`` and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced trials of the same schedule and reports
the per-layer ledger.  Every trial's outcome is checked.  A readable
report goes to stdout first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ledger import LAYERS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"



def nearest_rank(ordered: List[float], q: float) -> Tuple[float, int]:
    """The q-quantile of ``ordered`` and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_trials(name: str, seed: int, seconds: float,
               traced: bool) -> Tuple[List[Any], List[Any], List[str]]:
    """Untraced trials (alternating with traced ones when ``traced``)
    until ``seconds`` of wall time have passed; returns both lists and
    every problem found, including any trial whose simulated results
    differ from the first."""
    from trial import run_trial
    plain: List[Any] = []
    ledgered: List[Any] = []
    problems: List[str] = []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        batch = [run_trial(name, seed)]
        if traced:
            batch.append(run_trial(name, seed, traced=True))
        plain.append(batch[0])
        ledgered.extend(batch[1:])
        for trial in batch:
            label = (f"{'traced' if trial.ledger else 'untraced'} trial "
                     f"{len(plain)}")
            problems.extend(f"{label}: {p}" for p in trial.problems)
            if trial.sim != plain[0].sim:
                problems.append(f"{label}: simulated results differ from "
                                "the first trial of the seed")
    if traced:
        for trial in ledgered[1:]:
            if (trial.counts != ledgered[0].counts
                    or trial.ledger.counts != ledgered[0].ledger.counts
                    or trial.ledger.calls != ledgered[0].ledger.calls):
                problems.append("traced trials disagree on per-layer counts")
                break
    return plain, ledgered, problems


def end_to_end(plain: List[Any]) -> Tuple[Dict[str, Any], List[str]]:
    first = plain[0]
    sim = first.sim
    latencies = sorted(sim["latencies"])
    problems = []
    if not latencies:
        return {}, ["no request was served"]
    p50, _ = nearest_rank(latencies, 0.50)
    p99, beyond = nearest_rank(latencies, 0.99)
    if beyond < 10:
        problems.append(f"only {beyond} samples beyond p99 (need 10)")
    attempted = sim["attempted"]
    lost = attempted - sim["served"]
    metrics = {
        "served_per_wall_s": (statistics.median(
            t.sim["served"] / t.run_ref_s for t in plain), "req/s"),
        "setup_s": (statistics.median(t.setup_ref_s for t in plain), "s"),
        "sim_latency_p50_ms": (p50 * 1e3, "ms"),
        "sim_latency_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"end-to-end ({len(plain)} untraced trials, "
          f"{attempted} requests each)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:24s} {value:14.4f} {unit}")
    print(f"  {'latency samples':24s} {len(latencies):14d} "
          f"({beyond} beyond p99)")
    print(f"  {'failed_ratio':24s} {lost / attempted:14.4f} ratio "
          f"(shed {sim['shed']}, failed {sim['failed']})")
    if sim["faults"]:
        print(f"  {'sim_outage_ms':24s} {sim['outage_s'] * 1e3:14.4f} ms "
              f"({sim['faults']} faults)")
    print(f"  {'generator lateness':24s} {sim['lateness_s']:14.3g} s")
    print("  raw trial walls (setup + run, s) x scale to reference host: "
          + ", ".join(f"{t.setup_s:.3f}+{t.run_s:.3f} x{t.scale:.3f}"
                      for t in plain))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, \
        problems


def _ratio(numerator: Optional[float],
           denominator: Optional[float]) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer(plain: List[Any], ledgered: List[Any]
              ) -> Tuple[Dict[str, Any], List[str]]:
    first = ledgered[0]
    ledger, counts = first.ledger, first.counts
    served = first.sim["served"]
    problems = []

    def median_self(layer: str) -> float:
        return statistics.median(
            t.ledger.self_time.get(layer, 0.0) * t.scale for t in ledgered
        ) / served * 1e6

    metrics: Dict[str, Tuple[Optional[float], str]] = {
        f"{layer}.self_us_per_served": (median_self(layer), "us/req")
        for layer in LAYERS}
    ior_calls = ledger.calls.get("GatewayPool.ior_for", 0)
    metrics.update({
        "sim.events_per_served": (counts["sim.events"] / served, "1/req"),
        "sim.datagrams_per_served": (counts["sim.datagrams"] / served,
                                     "1/req"),
        "totem.multicasts_per_served": (
            ledger.calls.get("TotemMember.multicast", 0) / served, "1/req"),
        "totem.deliveries_per_served": (
            ledger.counts["totem.deliveries"] / served, "1/req"),
        "totem.token_passes_per_served": (
            ledger.counts["totem.tokens_received"] / served, "1/req"),
        "totem.order_wait_ms_p50": (
            statistics.median(ledger.order_waits) * 1e3
            if ledger.order_waits else None, "ms"),
        "totem.ring_reformations": (
            ledger.counts.get("totem.ring_installs", 0), "count"),
        "totem.retransmits": (counts["totem.retransmits"], "count"),
        "eternal.multicasts_per_served": (
            ledger.calls.get("ReplicationMechanisms.multicast", 0) / served,
            "1/req"),
        "eternal.executions_per_served": (
            _ratio(counts["eternal.executions"], served), "1/req"),
        "eternal.duplicates_per_served": (
            _ratio(counts["eternal.duplicates"], served), "1/req"),
        "eternal.replays": (counts["eternal.replays"], "count"),
        "eternal.state_transfer_bytes": (
            counts["eternal.state_transfer_bytes"], "B"),
        "core.gateway.observed_per_served": (
            ledger.calls.get("Gateway.observe_delivered", 0) / served,
            "1/req"),
        "core.gateway.useful_response_ratio": (_ratio(
            ledger.counts["core.gateway.responses_delivered"],
            ledger.counts["core.gateway.responses_received"]), "ratio"),
        "core.gateway.queued_ratio": (_ratio(
            counts["core.gateway.requests_queued"],
            counts["core.gateway.requests_received"]), "ratio"),
        "core.gateway.shed_ratio": (_ratio(
            counts["core.gateway.requests_shed"],
            counts["core.gateway.requests_received"]), "ratio"),
        "core.pool.ior_us_per_call": (statistics.median(
            t.ledger.inclusive.get("GatewayPool.ior_for", 0.0) * t.scale
            for t in ledgered) / ior_calls * 1e6 if ior_calls else 0.0,
            "us/call"),
        "core.client.reissued": (counts["core.client.reissued"], "count"),
        "core.gateway.takeover_forwards": (
            counts["core.gateway.takeover_forwards"], "count"),
        "iiop.messages_per_served": (
            ledger.counts["iiop.messages"] / served, "1/req"),
        "iiop.bytes_per_served": (ledger.counts["iiop.bytes"] / served,
                                  "B/req"),
        "iiop.zero_copy_ratio": (_ratio(
            ledger.counts["iiop.zero_copy_bytes"],
            ledger.counts["iiop.fed_bytes"]), "ratio"),
        "trace.overhead_ratio": (
            statistics.median(t.run_s * t.scale for t in ledgered)
            / statistics.median(t.run_s * t.scale for t in plain), "ratio"),
    })

    # The ledger: self time per layer against the traced wall time.
    traced_wall = statistics.median(t.run_s * t.scale for t in ledgered)
    residual = statistics.median(
        (t.run_s - sum(t.ledger.self_time.values())) * t.scale
        for t in ledgered)
    print(f"per-layer ledger ({len(ledgered)} traced trials, "
          f"{served} served each; self time per served request)")
    for layer in LAYERS:
        value = metrics[f"{layer}.self_us_per_served"][0]
        print(f"  {layer:14s} {value:12.2f} us  "
              f"{value * served / 1e6 / traced_wall:7.1%} of traced wall")
    print(f"  {'(residual)':14s} {residual / served * 1e6:12.2f} us  "
          f"{residual / traced_wall:7.1%} unattributed")
    print(f"  {'traced wall':14s} {traced_wall / served * 1e6:12.2f} us  "
          f"trace.overhead_ratio {metrics['trace.overhead_ratio'][0]:.3f}")
    if abs(residual) > 0.02 * traced_wall:
        problems.append(f"layer self times leave {residual:.4f} s of "
                        f"{traced_wall:.4f} s unattributed")
    if not ior_calls:
        print("  core.pool.ior_us_per_call: GatewayPool.ior_for never "
              "called on this workload (reported as 0)")
    print("per-layer counts and ratios")
    result = {}
    for key, (value, unit) in metrics.items():
        if value is None:
            # A registry series the program no longer records: absent.
            print(f"  {key:36s} {'absent':>14s}")
            continue
        if not key.endswith("self_us_per_served"):
            print(f"  {key:36s} {value:14.4f} {unit}")
        result[key] = {"value": value, "unit": unit}
    return result, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("farm", "nested", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    plain, ledgered, problems = run_trials(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}")
    if args.trace:
        metrics, found = per_layer(plain, ledgered)
    else:
        metrics, found = end_to_end(plain)
    problems.extend(found)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    trials = plain + ledgered
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(t.sim["attempted"] for t in trials),
        "failed": sum(t.sim["attempted"] - t.sim["served"] for t in trials),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
