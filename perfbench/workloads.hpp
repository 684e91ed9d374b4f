// The three workloads and the in-process helpers two of them share.
// README.md lists, per workload, the engine entry points it calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "harness.hpp"

namespace perfbench {

void run_serve_open(const RunOptions& opts, Report& report);
void run_ingest_mixed(const RunOptions& opts, Report& report);
void run_tcp_cluster(const RunOptions& opts, Report& report);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 21;

/// The benchmark's dataset: a products-like clustered graph shared by every
/// workload. Like a fixed real dataset, it is the same in every run (drawn
/// from a constant seed), so a run's figures do not move with the graph's
/// shape; the run's --seed draws the load on it: query sources, arrival
/// times and the write stream.
ppr::Graph make_clustered_graph();

/// A multilevel-partitioned in-process cluster, built kSetupRepeats times
/// (the last build is kept) so set-up time is a median, not one sample.
struct InProcCluster {
  ppr::PartitionAssignment assignment;
  std::unique_ptr<ppr::Cluster> cluster;
  double setup_s = 0;          // median partition + build
  double partition_s = 0;      // median partition
  double cluster_build_s = 0;  // median Cluster construction
};
InProcCluster build_inproc_cluster(const ppr::Graph& g,
                                   const ppr::ClusterOptions& options);

/// Report the set-up metrics of an in-process build.
void report_setup(Report& report, const InProcCluster& c);

/// `count` distinct global ids per machine, each a core node of that
/// machine, drawn from `seed`.
std::vector<std::vector<ppr::NodeId>> sources_per_machine(
    const ppr::Cluster& cluster, std::size_t count, std::uint64_t seed);

using PprEntries = std::vector<std::pair<ppr::NodeRef, double>>;

/// One query run alone through run_ssppr_batch: the answer-check
/// reference the batched and served paths must match bit for bit.
PprEntries single_query_entries(const ppr::DistGraphStorage& storage,
                                ppr::NodeRef source,
                                const ppr::SspprOptions& ppr,
                                const ppr::DriverOptions& driver = {});

/// Bit-identical comparison, independent of entry order.
bool same_entries(PprEntries a, PprEntries b);

/// Counter delta over a window by family name (or exact `name{labels}`
/// key); nullopt when the registry never carried that name.
using CounterLookup = std::function<std::optional<double>(const std::string&)>;

/// Per-layer storage, ppr and rpc-pool metrics from registry deltas,
/// normalised by `queries`. `cache_on` says whether an adjacency cache
/// exists, i.e. whether its counters must be present.
void report_storage_layers(Report& report, const CounterLookup& counter,
                           double queries, bool cache_on = true);

}  // namespace perfbench
