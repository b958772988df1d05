#!/usr/bin/env python3
"""Fleet-smoke gate: assert the merged fleet reports are self-consistent.

Usage: check_fleet.py <fleet.json> [--faulted]

The input is the ExperimentRecord written by `ipu-sim fleet --save
fleet.json`, in either mode (capacity search or fixed tenant count). For
every merged FleetReport the gate checks the aggregation invariants the
fleet layer promises:

* per-device completed ops, net of replica write traffic, sum exactly to
  the fleet total (`sum(ops - mirror_ops) == total_ops`);
* lost requests are conserved, never dropped: offered ≡ completed + lost,
  and when the tolerance pass ran, logical_ops ≡ acked + lost with
  acked ≡ clean + recovered;
* the pooled fleet p99 lies between the busy devices' lowest and highest
  p99, at the latency histogram's log2-bucket resolution — a pooled
  quantile is a mixture of the per-device distributions, so it can neither
  beat every device nor exceed every device. It can fall below the median
  device's p99 when lightly loaded devices have the highest tails (skipped
  when the tolerance pass overlaid the latency view: hedged reads can
  legitimately beat the physical device tail);
* hot-shard shares are fractions of the total device load and the skew is
  max/mean of the per-device loads.

Capacity-search results are additionally checked for internal consistency:
every probe's verdict matches its latency against the SLO, `max_tenants`
is the largest passing probe, and the at-capacity report ran at exactly
that tenant count.

With `--faulted` the gate also requires the run to demonstrate fault
tolerance end to end: at least one report carries the fleet-reliability
ledger with `recovered > 0` and `lost == 0` (mirror pairs must recover
every request a dead device dropped), and a capacity-mode run must quote
degraded capacity next to the healthy headline.
"""

import json
import sys


def bucket(ns: int) -> int:
    """The log2 bucket of the latency histogram that holds `ns`."""
    return max(ns, 1).bit_length() - 1


def check_report(r: dict) -> None:
    name = (r["trace"], r["scheme"], r["policy"])
    ops = [d["ops"] for d in r["per_device"]]
    mirror = [d.get("mirror_ops", 0) for d in r["per_device"]]
    assert len(ops) == r["devices"], name
    primary = sum(o - m for o, m in zip(ops, mirror))
    assert primary == r["total_ops"], (name, primary, r["total_ops"])

    # Lost-request conservation at the host ledger: offered ≡ completed +
    # lost, and failures never exceed what was offered.
    rel = r["reliability"]
    lost = rel.get("lost", 0)
    assert lost >= 0 and rel["failed"] <= rel["total"] + lost, (name, rel)

    fr = r.get("fleet_reliability")
    if fr is None:
        busy = [bucket(d["p99_ns"]) for d in r["per_device"] if d["ops"] > 0]
        if busy:
            # A pooled quantile lies between the busy devices' quantiles.
            # (The tolerance pass replaces the pooled view with the
            # router's, where hedging can beat the physical tail — hence
            # gated on `fr is None`.)
            pooled = bucket(r["p99_ns"])
            assert min(busy) <= pooled <= max(busy), (name, r["p99_ns"], busy)
    else:
        # Tolerance-pass ledger conservation: every logical request is
        # acked or lost, every ack is clean or recovered, and the ledger
        # covers exactly the completed logical ops.
        assert fr["logical_ops"] == fr["acked"] + fr["lost"], (name, fr)
        assert fr["acked"] == fr["clean"] + fr["recovered"], (name, fr)
        assert fr["logical_ops"] == r["total_ops"], (name, fr)
        assert fr["hedges_won"] <= fr["hedges_fired"], (name, fr)
        assert fr["lost"] <= lost, (name, fr, rel)
        assert len(r.get("health", [])) == r["devices"], name

    total = sum(ops)
    for h in r["load"]["hot_shards"]:
        assert h["ops"] == ops[h["device"]], name
        assert abs(h["share"] - h["ops"] / total) < 1e-9, name
    if total > 0:
        mean = total / len(ops)
        assert abs(r["load"]["skew"] - max(ops) / mean) < 1e-9, name


def check_capacity(c: dict) -> None:
    name = (c["trace"], c["scheme"])
    assert c["probes"], name
    passing = [p["tenants"] for p in c["probes"] if p["met_slo"]]
    for p in c["probes"]:
        assert p["met_slo"] == (p["p99_ns"] < c["slo_p99_ns"]), (name, p)
        assert 1 <= p["tenants"] <= c["tenant_cap"], (name, p)
    assert c["max_tenants"] == (max(passing) if passing else 0), name
    if c["max_tenants"] > 0:
        at = c["at_capacity"]
        assert at is not None, name
        assert at["tenants"] == c["max_tenants"], name
        check_report(at)
    else:
        assert c["at_capacity"] is None, name


def main() -> int:
    argv = sys.argv[1:]
    faulted = "--faulted" in argv
    argv = [a for a in argv if a != "--faulted"]
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        record = json.load(f)

    run = record["result"]
    caps = run["capacity"]
    degraded = run.get("degraded", [])
    fixed = run["reports"]
    assert caps or fixed, "fleet run produced no reports"
    for c in caps + degraded:
        check_capacity(c)
    for r in fixed:
        check_report(r)
    if caps:
        # A search where no scheme serves a single tenant means the SLO (or
        # the search itself) degenerated — the smoke would be vacuous.
        assert any(c["max_tenants"] > 0 for c in caps), (
            "every capacity search came back zero"
        )

    if faulted:
        ledgers = [
            r["fleet_reliability"]
            for c in degraded
            if c["at_capacity"] is not None
            for r in [c["at_capacity"]]
            if r.get("fleet_reliability") is not None
        ] + [
            r["fleet_reliability"]
            for r in fixed
            if r.get("fleet_reliability") is not None
        ]
        assert ledgers, "--faulted run carries no fleet-reliability ledger"
        if caps:
            assert degraded, "--faulted capacity run quotes no degraded capacity"
        assert all(fr["lost"] == 0 for fr in ledgers), (
            "acked requests lost under mirroring",
            ledgers,
        )
        assert any(fr["recovered"] > 0 for fr in ledgers), (
            "no request ever failed over — the fault plan was vacuous",
            ledgers,
        )

    total_probes = sum(len(c["probes"]) for c in caps + degraded)
    mode = " (faulted gate)" if faulted else ""
    print(
        f"fleet OK{mode}: {len(caps)} healthy + {len(degraded)} degraded "
        f"capacity searches ({total_probes} probes), "
        f"{len(fixed)} fixed-size reports, {run['devices']} devices, "
        f"{run['policy']} routing — ops conserved, losses accounted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
