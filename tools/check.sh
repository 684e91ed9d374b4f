#!/usr/bin/env bash
# Tier-1 verification under sanitizers: for each requested configuration,
# configures a separate build-<san>san tree with -DGE_SANITIZE=<san>,
# builds the test suite, and runs it. Every configuration builds with
# -Werror, so a new compiler warning fails the sweep.
#
# Usage: tools/check.sh [sanitizer ...]
#   tools/check.sh                      # address, undefined, thread (default)
#   tools/check.sh thread               # just TSan
#   tools/check.sh address,undefined    # one combined ASan+UBSan build
#
# The thread configuration builds without OpenMP (libgomp has no TSan
# annotations; see the GE_SANITIZE block in CMakeLists.txt) so the
# std::thread concurrency is checked without libgomp false positives.
set -euo pipefail

if [ $# -eq 0 ]; then
  SANITIZERS=(address undefined thread)
else
  SANITIZERS=("$@")
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

for SANITIZER in "${SANITIZERS[@]}"; do
  BUILD="${ROOT}/build-$(echo "${SANITIZER}" | tr ',' '-')san"
  echo "=== ${SANITIZER}: ${BUILD} ==="
  cmake -S "${ROOT}" -B "${BUILD}" -DGE_SANITIZE="${SANITIZER}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "${BUILD}" -j"$(nproc)"
  ctest --test-dir "${BUILD}" --output-on-failure -j"$(nproc)"
  case "${SANITIZER}" in
    *thread*)
      # The observability plane (sharded counters, registry attach/retire,
      # tracer spans crossing RPC threads) is written to be lock-free on
      # the hot paths; run its suites again, alone, so TSan reports point
      # at the obs layer and not at noisy neighbors.
      echo "=== ${SANITIZER}: ctest -L obs (metrics/trace plane) ==="
      ctest --test-dir "${BUILD}" -L obs --output-on-failure
      # The elastic shard plane moves shards while fetches are in flight
      # (routing-table swaps, scheduler drains, serving-unit retirement,
      # the client retry plane racing peer-down hooks) — exactly the kind
      # of concurrency TSan exists for. Run its suites alone too.
      echo "=== ${SANITIZER}: ctest -L elastic (shard migration/failover) ==="
      ctest --test-dir "${BUILD}" -L elastic --output-on-failure
      # The adaptive push kernel's dense bitmap is shared between push
      # threads via atomic words; run the hybrid suite alone under TSan at
      # both SIMD levels (this build has no OpenMP, so the MT path runs
      # serial — the bitmap atomics and scratch pool still race-check).
      echo "=== ${SANITIZER}: hybrid_kernel_test (GE_FORCE_SCALAR off/on) ==="
      "${BUILD}/tests/hybrid_kernel_test" --gtest_brief=1
      GE_FORCE_SCALAR=1 "${BUILD}/tests/hybrid_kernel_test" --gtest_brief=1
      # Versioned storage plane: run the whole mutation suite alone under
      # TSan. Every case goes through the shared coordinator
      # (Machine::apply_mutations), whose local legs apply on the
      # caller's thread while storage-server threads read, and the
      # concurrent mutate+query case races pinned snapshot reads against
      # generation swaps (DESIGN.md §15's Copy→Publish→Retire is only
      # correct if those never tear).
      echo "=== ${SANITIZER}: ctest -L mutation (versioned storage) ==="
      ctest --test-dir "${BUILD}" -L mutation --output-on-failure
      # Each generation's delta log (segments + row index) is replaced by
      # apply() and compaction while query, server and coordinator
      # threads read it at the newest and at older pins. Repeat the
      # concurrent cases alone so a rare interleaving gets its chances.
      # The halo plus 64-row-cache readers race the tracker's per-row
      # notes, the halo gate, and cache refills, evictions and version
      # erasures against batches landing.
      echo "=== ${SANITIZER}: mutation_test concurrent cases x20 ==="
      "${BUILD}/tests/mutation_test" \
          --gtest_filter='*Concurrent*:*ConcurrentHaloAndCacheReaders*' \
          --gtest_repeat=20 --gtest_brief=1
      # The loopback TCP echo suites: many client threads write
      # concurrently on one link, so frames must never interleave and
      # replies must never cross between callers. Repeat them alone.
      echo "=== ${SANITIZER}: rpc_test TCP loopback suites x10 ==="
      "${BUILD}/tests/rpc_test" --gtest_filter='TcpTransportLoopback.*' \
          --gtest_repeat=10 --gtest_brief=1
      # The in-process network delivers from a due-time heap per machine
      # (senders push and notify while the dispatcher waits and delivers
      # outside the lock), and the mutation coordinator keeps each
      # phase's per-shard calls in flight together, landing in waves.
      # Repeat the transport cases, the network-model timing cases and the
      # coordinator cases alone.
      echo "=== ${SANITIZER}: in-process transport + coordinator x20 ==="
      "${BUILD}/tests/rpc_test" --gtest_filter='InProcTransport.*' \
          --gtest_repeat=20 --gtest_brief=1
      "${BUILD}/tests/cost_model_test" --gtest_repeat=20 --gtest_brief=1
      "${BUILD}/tests/mutation_test" \
          --gtest_filter='MutationCoordinator.*:*ReplicasOfSeveralShards*' \
          --gtest_repeat=20 --gtest_brief=1
      # Work-conserving dispatch: the dispatcher's hold ends on a wake-up
      # that executor threads send when a batch finishes, and queue wait
      # ends on the executor thread. These cases are the timing-sensitive
      # ones that TSan slows most, so repeat them alone — a flaky test is
      # a bug.
      echo "=== ${SANITIZER}: serving_test dispatch + queue-wait cases x20 ==="
      "${BUILD}/tests/serving_test" \
          --gtest_filter='*ExecutorTakes*:*QueueWaitEndsWhenExecutionStarts*' \
          --gtest_repeat=20 --gtest_brief=1
      ;;
    *address*|*undefined*)
      # Wire-codec fuzz-style tests again with the tensor-marshal cost
      # model live, so the sanitizer sees the exact serialization paths
      # the benches exercise (the busy-wait hook changes no bytes but
      # must stay UB-free alongside the varint decoder).
      echo "=== ${SANITIZER}: wire_codec_test with GE_TENSOR_MARSHAL_US=2 ==="
      GE_TENSOR_MARSHAL_US=2 "${BUILD}/tests/wire_codec_test" \
          --gtest_brief=1
      # Push-kernel plane (SIMD varint windows, the dense kernel's slot
      # arithmetic, promote/demote copies) at both SIMD levels: the
      # vector paths must be as UB-clean as the scalar ones on the same
      # inputs, including the hostile-frame rejection tests.
      echo "=== ${SANITIZER}: ctest -L kernel (GE_FORCE_SCALAR off/on) ==="
      ctest --test-dir "${BUILD}" -L kernel --output-on-failure
      GE_FORCE_SCALAR=1 ctest --test-dir "${BUILD}" -L kernel \
          --output-on-failure
      # Versioned storage plane: delta-segment merges, snapshot pins, and
      # compaction shuffle row spans between base CSRs and segments — run
      # the suite alone so heap errors point at the storage layer.
      echo "=== ${SANITIZER}: ctest -L mutation (versioned storage) ==="
      ctest --test-dir "${BUILD}" -L mutation --output-on-failure
      ;;
  esac
  # Real multi-process arm, run again by name so a failure is attributed
  # to the cluster subsystem directly: cluster_smoke forks 3
  # graph_engine_node processes + a client over localhost TCP (bootstrap
  # handshake, barrier, queries, graceful drain), and cluster_test's e2e
  # case checks the TCP answers bit-identical against the in-process
  # engine. The sanitizer runtime rides into the forked nodes too.
  echo "=== ${SANITIZER}: multi-process cluster smoke ==="
  ctest --test-dir "${BUILD}" -R 'cluster_smoke|cluster_test' \
        --output-on-failure
done
