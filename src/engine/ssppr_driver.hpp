// The distributed SSPPR iteration loop of Figure 4, with switchable RPC
// optimizations for the Table-3 ablation:
//   batch    — one request per destination shard per iteration instead of
//              one per activated vertex;
//   compress — CSR-compressed responses instead of lists of small tensors;
//   overlap  — run local fetch + local push while remote calls are in
//              flight.
// The engine default is all three on; "Single" is all three off. Every
// batched mode runs through the one lockstep driver (run_ssppr_batch);
// Single is the only other path, kept as the Table-3 ablation.
#pragma once

#include "ppr/ssppr_state.hpp"
#include "storage/dist_storage.hpp"

namespace ppr {

struct DriverOptions {
  bool batch = true;
  bool compress = true;
  bool overlap = true;
  /// Array encoding of CSR-compressed responses (flat vs delta-varint);
  /// ignored when compress is off. Results are bit-identical under either
  /// codec — only bytes-on-wire change.
  WireCodec codec = WireCodec::kFlat;
  /// OpenMP threads the multi-query driver (run_ssppr_batch) spreads its
  /// per-query push fan-out over; 1 keeps the fan-out serial and the
  /// result bit-deterministic regardless of the OpenMP runtime.
  int query_threads = 1;
  /// Graph version the query reads at (DESIGN.md §15). kVersionLatest
  /// resolves at admission to the newest published version (0 before any
  /// mutation). The whole query — every iteration, every shard — observes
  /// that one snapshot.
  std::uint64_t graph_version = kVersionLatest;

  static DriverOptions single() { return {false, false, false}; }
  static DriverOptions batched() { return {true, false, false}; }
  static DriverOptions compressed() { return {true, true, false}; }
  static DriverOptions overlapped() { return {true, true, true}; }
  /// All three RPC optimizations plus the delta-varint wire codec.
  static DriverOptions varint() {
    return {true, true, true, WireCodec::kDeltaVarint};
  }
};

/// Per-run snapshot view. The process-wide totals live in the registry as
/// `engine.ssppr.queries` / `.iterations` / `.pushes`, which run_ssppr
/// increments alongside filling this struct.
struct SspprRunStats {
  std::size_t num_iterations = 0;
  std::size_t num_pushes = 0;
};

/// Run one whole-graph SSPPR query to completion. `source` must be a core
/// node of `storage`'s shard (owner-compute rule). A batched `options`
/// runs as a one-element run_ssppr_batch; `batch = false` runs the
/// per-vertex Single ablation. Either way the per-phase breakdown lands in
/// the registry's `pipeline.phase_us{phase=...}`, once per round (DESIGN.md
/// §11).
SspprRunStats run_ssppr(const DistGraphStorage& storage, SspprState& state,
                        const DriverOptions& options);

/// Convenience: construct the state, run, and return it.
SspprState compute_ssppr(const DistGraphStorage& storage, NodeRef source,
                         const SspprOptions& ppr_options,
                         const DriverOptions& driver_options = {});

}  // namespace ppr
