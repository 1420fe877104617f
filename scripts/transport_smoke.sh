#!/usr/bin/env bash
# Multi-process transport smoke for the check.sh sanitizer and lockdep
# tiers: checks the message plane against the in-process loopback, then
# boots the real three-process O-RAN plane (env / nearrt / nonrt as
# separate OS processes, every link a MuxEndpoint stream) from a given
# build, injects a short seeded E2 partition, and asserts the learner still
# completes every period and writes a sane trajectory. Run it against the
# sanitizer builds — this is where cross-process socket lifetimes,
# reconnect races, and shutdown ordering actually get exercised.
#
#   scripts/transport_smoke.sh BUILD_DIR [PERIODS]
#
# Coverage per invocation:
#   * `ric_node --verify-loopback`: the message plane must reproduce the
#     in-process loopback trajectory bit-for-bit on the same seed;
#   * one three-process run with a seeded 3 s E2 partition that must heal.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:?usage: transport_smoke.sh BUILD_DIR [PERIODS]}"
PERIODS="${2:-20}"
RIC_NODE="$BUILD_DIR/tools/ric_node"
[[ -x "$RIC_NODE" ]] || {
  echo "transport smoke: $RIC_NODE not built" >&2
  exit 1
}

DIR="$(mktemp -d "${TMPDIR:-/tmp}/edgebol-smoke.XXXXXX")"
PIDS=()
cleanup() {
  # Unblock any server role still waiting for its learner.
  touch "$DIR/done" 2>/dev/null || true
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "-- transport smoke: verify-loopback ($PERIODS periods) --"
"$RIC_NODE" --verify-loopback --periods "$PERIODS"

echo "-- transport smoke: three processes + 3s E2 partition --"
"$RIC_NODE" --role env --dir "$DIR" &
PIDS+=($!)
# Partition opens at E2 establishment — clean periods take a few ms each,
# so only an immediate window reliably forces the plane through its
# degraded path (dropped control, timed-out ack, lost KPI) before healing.
# 3s spans the first period's whole timeout chain, guaranteeing heartbeat
# drops, a peer timeout, and reconnect churn even when sanitizer slowdown
# shifts the period timing.
"$RIC_NODE" --role nearrt --dir "$DIR" --e2-partition 0:3000 \
  --chaos-seed 11 2> >(tee "$DIR/nearrt.log" >&2) &
PIDS+=($!)
"$RIC_NODE" --role nonrt --dir "$DIR" --periods "$PERIODS" \
  --out "$DIR/trajectory.json"

for pid in "${PIDS[@]}"; do wait "$pid"; done
PIDS=()

# The window must have actually silenced the hop (heartbeats count, so
# this holds however sanitizer slowdown shifts the period timing).
grep -q "partition_drops=[1-9]" "$DIR/nearrt.log" || {
  echo "transport smoke: partition window never dropped a frame" >&2
  exit 1
}

python3 - "$DIR/trajectory.json" "$PERIODS" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
want = int(sys.argv[2])
traj = data["trajectory"]
assert data["periods"] == want, f"ran {data['periods']} of {want} periods"
assert len(traj) == want, f"trajectory has {len(traj)} of {want} entries"
# Periods that ran dark during the partition report a null cost ("no KPI
# sample"); the plane must heal, so the run may not END dark and the dark
# stretch must stay a minority of the run.
dark = [i for i, p in enumerate(traj)
        if p["cost"] is None or not math.isfinite(p["cost"])]
assert len(dark) < want / 2, f"{len(dark)}/{want} periods ran dark: {dark}"
assert (want - 1) not in dark, "final period still dark - plane never healed"
assert math.isfinite(data["mean_cost"]), "mean cost not finite"
print(f"transport smoke: {want}/{want} periods, "
      f"{len(dark)} dark during the partition, healed by the end")
EOF
