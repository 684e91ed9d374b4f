#!/usr/bin/env bash
# Multi-process cluster smoke: boots 3 graph_engine_node processes over
# localhost TCP, runs one SSPPR + BFS + walk query through a mesh-member
# client, streams seeded edge-mutation batches through the coordinator
# (every node must publish the announced graph version, and the answer
# must survive a wire-driven compaction bit-identically), asks the
# cluster to shut down, and asserts every node exited 0 (i.e. drained
# gracefully and left the mesh).
#
# Second arm (elastic shard plane): boots a fresh cluster, replicates
# every shard, records SSPPR answers, kill -9s storage node 2, and
# asserts the re-queried answers are bit-identical ("drill: identical")
# — plus that the elastic counters ride the metrics export.
#
# Usage: cluster_smoke.sh <graph_engine_node> <graph_engine_client>
set -euo pipefail

NODE_BIN="${1:?path to graph_engine_node}"
CLIENT_BIN="${2:?path to graph_engine_client}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/cluster_smoke.XXXXXX")"
NODE_PIDS=()
cleanup() {
  for pid in "${NODE_PIDS[@]:-}"; do
    kill "${pid}" 2>/dev/null || true
  done
  rm -rf "${WORK}"
}
trap cleanup EXIT

# A fixed port can race other tests (or a previous run in TIME_WAIT), so
# draw a random base and retry the whole bootstrap on collision. Bases stay
# below Linux's default ephemeral range (32768 and up), where outbound
# connections would otherwise take the ports a node is about to bind.
for attempt in 1 2 3; do
  BASE=$((20000 + (RANDOM % 12000)))
  CONF="${WORK}/cluster.conf"
  cat > "${CONF}" <<EOF
cluster_name = smoke
dataset      = products-sim
scale        = 0.01
partition    = hash
cache_dir    = ${WORK}/cache
server_threads = 2
query_threads  = 2
executors      = 1
node 0 127.0.0.1 $((BASE + 0)) storage
node 1 127.0.0.1 $((BASE + 1)) storage
node 2 127.0.0.1 $((BASE + 2)) storage
node 3 127.0.0.1 $((BASE + 3)) client
EOF

  NODE_PIDS=()
  for id in 0 1 2; do
    "${NODE_BIN}" --config="${CONF}" --node="${id}" \
        --metrics-json="${WORK}/metrics-${id}.json" \
        > "${WORK}/node-${id}.log" 2>&1 &
    NODE_PIDS+=($!)
  done

  if "${CLIENT_BIN}" --config="${CONF}" --client=3 \
      --ssppr=0 --bfs=0 --walk=0 --mutation-drill=4 --metrics=0 \
      --shutdown-cluster \
      > "${WORK}/client.log" 2>&1; then
    break
  fi
  echo "attempt ${attempt}: client failed (port collision?); retrying" >&2
  cat "${WORK}/client.log" >&2
  for pid in "${NODE_PIDS[@]}"; do kill "${pid}" 2>/dev/null || true; done
  for pid in "${NODE_PIDS[@]}"; do wait "${pid}" 2>/dev/null || true; done
  NODE_PIDS=()
  if [ "${attempt}" = 3 ]; then
    echo "cluster_smoke: client never succeeded" >&2
    exit 1
  fi
done

STATUS=0
for i in 0 1 2; do
  if ! wait "${NODE_PIDS[$i]}"; then
    echo "node ${i} exited non-zero:" >&2
    cat "${WORK}/node-${i}.log" >&2
    STATUS=1
  fi
done
NODE_PIDS=()

cat "${WORK}/client.log"
grep -q "^ssppr source=0 status=0" "${WORK}/client.log"
grep -q "^bfs source=0" "${WORK}/client.log"
grep -q "^walk source=0 steps=" "${WORK}/client.log"
# Versioned storage plane: the announce-before-reply contract held on
# every node, and compaction left the answer bit-identical.
grep -q "^mutated batches=4" "${WORK}/client.log"
grep -q "^graph-version node=2 v=4" "${WORK}/client.log"
grep -q "^mutation-drill: compaction-stable version=4" "${WORK}/client.log"
# The versioned-store gauges ride the LIVE metrics fetch (--metrics=0,
# taken after the drill while the stores are still serving); the
# compaction counter also survives into the exit-time export.
grep -q "storage.delta_edges" "${WORK}/client.log"
grep -q "storage.snapshot_pins" "${WORK}/client.log"
# The obs plane must have been exported by each node on exit.
for i in 0 1 2; do
  grep -q "rpc.tcp.frames_sent" "${WORK}/metrics-${i}.json"
  grep -q "storage.compactions" "${WORK}/metrics-${i}.json"
done

if [ "${STATUS}" != 0 ]; then
  exit "${STATUS}"
fi
echo "cluster_smoke: basic arm OK"

# --------------------------------------------------------------------------
# Failover arm: kill -9 a replicated storage node mid-session; the drill
# client must get bit-identical answers before and after.

for attempt in 1 2 3; do
  BASE=$((20000 + (RANDOM % 12000)))
  CONF="${WORK}/failover.conf"
  GATE="${WORK}/drill.gate"
  rm -f "${GATE}"
  cat > "${CONF}" <<EOF
cluster_name = smoke-failover
dataset      = products-sim
scale        = 0.01
partition    = hash
cache_dir    = ${WORK}/cache
server_threads = 2
query_threads  = 2
executors      = 1
rpc_timeout_s    = 10
rpc_max_attempts = 5
rpc_backoff_ms   = 50
node 0 127.0.0.1 $((BASE + 0)) storage
node 1 127.0.0.1 $((BASE + 1)) storage
node 2 127.0.0.1 $((BASE + 2)) storage
node 3 127.0.0.1 $((BASE + 3)) client
EOF

  NODE_PIDS=()
  for id in 0 1 2; do
    "${NODE_BIN}" --config="${CONF}" --node="${id}" \
        --metrics-json="${WORK}/failover-metrics-${id}.json" \
        > "${WORK}/failover-node-${id}.log" 2>&1 &
    NODE_PIDS+=($!)
  done

  # Long-lived drill client: replicate every shard, record answers for a
  # source per shard, announce readiness, block on the gate, re-query.
  "${CLIENT_BIN}" --config="${CONF}" --client=3 \
      --add-replica=all --failover-drill=0,1,2 --drill-gate="${GATE}" \
      --shutdown-cluster \
      > "${WORK}/drill.log" 2>&1 &
  DRILL_PID=$!

  # Wait for the baseline to land, then murder node 2 and open the gate.
  BOOT_OK=1
  for _ in $(seq 1 600); do
    grep -q "^drill-ready" "${WORK}/drill.log" 2>/dev/null && break
    if ! kill -0 "${DRILL_PID}" 2>/dev/null; then BOOT_OK=0; break; fi
    sleep 0.1
  done
  if [ "${BOOT_OK}" = 1 ] && grep -q "^drill-ready" "${WORK}/drill.log"; then
    kill -9 "${NODE_PIDS[2]}"
    wait "${NODE_PIDS[2]}" 2>/dev/null || true
    touch "${GATE}"
    if wait "${DRILL_PID}"; then
      break
    fi
    echo "drill client failed:" >&2
    cat "${WORK}/drill.log" >&2
    exit 1
  fi
  echo "attempt ${attempt}: failover arm never booted; retrying" >&2
  cat "${WORK}/drill.log" >&2 || true
  kill "${DRILL_PID}" 2>/dev/null || true
  for pid in "${NODE_PIDS[@]}"; do kill -9 "${pid}" 2>/dev/null || true; done
  for pid in "${NODE_PIDS[@]}"; do wait "${pid}" 2>/dev/null || true; done
  NODE_PIDS=()
  if [ "${attempt}" = 3 ]; then
    echo "cluster_smoke: failover arm never booted" >&2
    exit 1
  fi
done

# Survivors (0 and 1) must still drain and exit 0 after the shutdown ask.
for i in 0 1; do
  if ! wait "${NODE_PIDS[$i]}"; then
    echo "surviving node ${i} exited non-zero after failover:" >&2
    cat "${WORK}/failover-node-${i}.log" >&2
    exit 1
  fi
done
NODE_PIDS=()

cat "${WORK}/drill.log"
grep -q "^drill: identical" "${WORK}/drill.log"
# Elastic counters ride the survivors' metrics export.
for i in 0 1; do
  grep -q "rpc.retries" "${WORK}/failover-metrics-${i}.json"
  grep -q "routing.stale_epoch_hits" "${WORK}/failover-metrics-${i}.json"
  grep -q "migration.bytes_copied" "${WORK}/failover-metrics-${i}.json"
done

echo "cluster_smoke: OK"
