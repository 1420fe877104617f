#!/usr/bin/env bash
# Canonical three-process O-RAN demo: env (O-eNB/vBS + testbed), nearrt
# (xApps), and nonrt (learner) as separate OS processes talking over the
# TCP message plane, with file-based port rendezvous.
#
#   scripts/run_three_process_demo.sh [BUILD_DIR] [PERIODS]
#
# BUILD_DIR defaults to build/ (must contain tools/ric_node); PERIODS to 60.
# The learner's per-period trajectory lands in DIR/trajectory.json and per-
# process transport stats print on each process's stderr. Launch order does
# not matter — servers publish "<port>\n" to DIR/<link>.port atomically and
# clients poll for the files.
#
# To watch the plane degrade and recover, hand the near-RT RIC chaos flags,
# e.g. a 5-second E2 partition one second after establishment:
#   NEARRT_FLAGS="--e2-partition 1000:5000" scripts/run_three_process_demo.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
PERIODS="${2:-60}"
RIC_NODE="$BUILD_DIR/tools/ric_node"
[[ -x "$RIC_NODE" ]] || {
  echo "error: $RIC_NODE not built (cmake --build $BUILD_DIR)" >&2
  exit 1
}

DIR="$(mktemp -d "${TMPDIR:-/tmp}/edgebol-demo.XXXXXX")"
cleanup() {
  # The done file stops the servers; the kill is a backstop for crashes.
  touch "$DIR/done" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== three-process O-RAN plane: dir=$DIR periods=$PERIODS =="
# shellcheck disable=SC2086  # NEARRT_FLAGS is intentionally word-split
"$RIC_NODE" --role env --dir "$DIR" &
"$RIC_NODE" --role nearrt --dir "$DIR" ${NEARRT_FLAGS:-} &
"$RIC_NODE" --role nonrt --dir "$DIR" --periods "$PERIODS" \
  --out "$DIR/trajectory.json"

wait
echo
echo "== trajectory (last 3 periods) =="
python3 - "$DIR/trajectory.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
traj = data["trajectory"]
print(f"{len(traj)} periods, mean cost {data['mean_cost']:.4f}, "
      f"measured violation rate {data['measured_violation_rate']:.4f}")
for i, p in enumerate(traj[-3:], len(traj) - 3):
    print(f"  period {i:3d}: cost {p['cost']:.4f} "
          f"airtime {p['airtime']:.3f} gpu {p['gpu_speed']:.3f}")
EOF
