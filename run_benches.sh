#!/bin/bash
# Run every reproduction bench in order, tee to bench_output.txt.
# Each bench also dumps a schema-1 registry snapshot (and, for the serving
# bench, a chrome://tracing file) under bench_obs/.
set -u
cd /root/repo
OBS_DIR=bench_obs
mkdir -p "$OBS_DIR"
{
  for b in bench_table1_datasets bench_table2_throughput \
           bench_table3_rpc_ablation bench_fig5a_machines \
           bench_fig5b_processes bench_fig6_breakdown bench_accuracy \
           bench_locality; do
    echo "##### $b"
    ./build/bench/$b --metrics-json "$OBS_DIR/$b.metrics.json" "$@" 2>&1
    echo
  done
  echo "##### bench_traversal_cache (smoke: BFS/random-walk cache ablation)"
  ./build/bench/bench_traversal_cache --scale 0.05 --quick \
      --metrics-json "$OBS_DIR/bench_traversal_cache.metrics.json" 2>&1
  echo
  echo "##### bench_batch_queries (smoke: tiny graph, capped)"
  ./build/bench/bench_batch_queries --nodes 4000 --edges 16000 \
      --queries 64 --batches 1,16 \
      --metrics-json "$OBS_DIR/bench_batch_queries.metrics.json" 2>&1
  echo
  echo "##### bench_batch_queries (smoke: flat vs delta-varint wire codec)"
  ./build/bench/bench_batch_queries --nodes 4000 --edges 16000 \
      --queries 64 --batches 16 --codecs flat,varint 2>&1
  echo
  echo "##### bench_batch_queries (smoke: sparse vs dense kernel)"
  for k in sparse dense; do
    ./build/bench/bench_batch_queries --nodes 4000 --edges 16000 \
        --queries 64 --batches 16 --kernel "$k" 2>&1
  done
  echo
  echo "##### bench_kernel_density (smoke: frontier-density sweep, cold/warm)"
  ./build/bench/bench_kernel_density --nodes 20000 --edges 160000 \
      --queries 2 --eps-list 1e-5,1e-6,1e-7 \
      --metrics-json "$OBS_DIR/bench_kernel_density.metrics.json" 2>&1
  echo
  echo "##### bench_serving (smoke: tiny graph, 2s cap per point)"
  ./build/bench/bench_serving --smoke \
      --metrics-json "$OBS_DIR/bench_serving.metrics.json" \
      --trace-json "$OBS_DIR/bench_serving.trace.json" 2>&1
  echo
  echo "##### bench_mutations (smoke: streaming ingest + compaction pause)"
  ./build/bench/bench_mutations --smoke \
      --metrics-json "$OBS_DIR/bench_mutations.metrics.json" \
      --trace-json "$OBS_DIR/bench_mutations.trace.json" 2>&1
  echo
  echo "##### bench_micro_ops"
  ./build/bench/bench_micro_ops --benchmark_min_time=0.2 2>&1
}
