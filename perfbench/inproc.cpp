#include <algorithm>
#include <bit>

#include "common/rng.hpp"
#include "engine/ssppr_batch.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ppr;

Graph make_clustered_graph() {
  // products-like: 20 equal communities with hub-heavy intra edges
  // (density ∝ u^1.6) and one inter-community edge per node on average.
  constexpr std::uint64_t kGraphSeed = 0x9e3779b97f4a7c15ULL + 11;
  return generate_clustered(20000, 20, 180000, 20000, 1.6, kGraphSeed);
}

InProcCluster build_inproc_cluster(const Graph& g,
                                   const ClusterOptions& options) {
  InProcCluster c;
  std::vector<double> total, part, build;
  for (int i = 0; i < kSetupRepeats; ++i) {
    c.cluster.reset();
    const auto t0 = Clock::now();
    c.assignment = partition_multilevel(g, options.num_machines);
    const auto t1 = Clock::now();
    c.cluster = std::make_unique<Cluster>(g, c.assignment, options);
    const auto t2 = Clock::now();
    total.push_back(seconds_between(t0, t2));
    part.push_back(seconds_between(t0, t1));
    build.push_back(seconds_between(t1, t2));
  }
  c.setup_s = median(total);
  c.partition_s = median(part);
  c.cluster_build_s = median(build);
  return c;
}

void report_setup(Report& report, const InProcCluster& c) {
  if (report.trace()) {
    report.set("partition.setup_s", c.partition_s);
    report.set("engine.cluster_build_s", c.cluster_build_s);
  } else {
    report.set("setup_s", c.setup_s);
  }
}

std::vector<std::vector<NodeId>> sources_per_machine(const Cluster& cluster,
                                                     std::size_t count,
                                                     std::uint64_t seed) {
  std::vector<std::vector<NodeId>> core(
      static_cast<std::size_t>(cluster.num_machines()));
  for (NodeId v = 0; v < cluster.num_nodes(); ++v) {
    core[static_cast<std::size_t>(cluster.locate(v).shard)].push_back(v);
  }
  Rng rng(seed ^ 0x50a2ce5ULL);
  std::vector<std::vector<NodeId>> out(core.size());
  for (std::size_t m = 0; m < core.size(); ++m) {
    std::vector<NodeId>& pool = core[m];
    const std::size_t n = std::min(count, pool.size());
    // Partial Fisher-Yates: the first n slots become the sample.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.next_u64(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    out[m].assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

PprEntries single_query_entries(const DistGraphStorage& storage,
                                NodeRef source, const SspprOptions& ppr,
                                const DriverOptions& driver) {
  std::vector<SspprState> state;
  state.emplace_back(source, ppr);
  run_ssppr_batch(storage, state, driver);
  return state[0].ppr_entries();
}

bool same_entries(PprEntries a, PprEntries b) {
  if (a.size() != b.size()) return false;
  const auto by_key = [](const auto& x, const auto& y) {
    return x.first.key() < y.first.key();
  };
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].first == b[i].first) ||
        std::bit_cast<std::uint64_t>(a[i].second) !=
            std::bit_cast<std::uint64_t>(b[i].second)) {
      return false;
    }
  }
  return true;
}

void report_storage_layers(Report& report, const CounterLookup& counter,
                           double queries, bool cache_on) {
  const double q = std::max(1.0, queries);
  const auto read = [&](const std::string& metric,
                        const std::string& family) -> std::optional<double> {
    const auto v = counter(family);
    if (!v) report.missing(metric, family);
    return v;
  };

  const auto requested =
      read("storage.rows_halo_per_query", "pipeline.rows_requested");
  const auto local = read("storage.rows_local_per_query", "pipeline.rows_local");
  const auto cached =
      read("storage.rows_cached_per_query", "pipeline.rows_cached");
  const auto wire = read("storage.rows_wire_per_query", "pipeline.rows_wire");
  if (local) report.set("storage.rows_local_per_query", *local / q);
  if (cached) report.set("storage.rows_cached_per_query", *cached / q);
  if (wire) report.set("storage.rows_wire_per_query", *wire / q);
  // Halo rows are the rest of the cascade's partition of the request set,
  // so the figure stays defined when the halo tier folds into the cache.
  if (requested && local && cached && wire) {
    report.set("storage.rows_halo_per_query",
               (*requested - *local - *cached - *wire) / q);
  } else {
    report.missing("storage.rows_halo_per_query", "pipeline.rows_*");
  }
  if (const auto rpcs = read("storage.rpcs_per_query", "pipeline.rpcs_issued")) {
    report.set("storage.rpcs_per_query", *rpcs / q);
  }
  const auto req_bytes = read("storage.remote_bytes_per_query",
                              "storage.fetch.remote_request_bytes");
  const auto resp_bytes = read("storage.remote_bytes_per_query",
                               "storage.fetch.remote_response_bytes");
  if (req_bytes && resp_bytes) {
    report.set("storage.remote_bytes_per_query", (*req_bytes + *resp_bytes) / q);
  }
  const auto local_nodes =
      read("storage.remote_ratio", "storage.fetch.local_nodes");
  const auto remote_nodes =
      read("storage.remote_ratio", "storage.fetch.remote_nodes");
  if (local_nodes && remote_nodes) {
    const double all = *local_nodes + *remote_nodes;
    report.set("storage.remote_ratio", all > 0 ? *remote_nodes / all : 0.0);
  }
  if (cache_on) {
    const auto hits =
        read("storage.cache_hit_ratio", "storage.adjacency_cache.hits");
    const auto misses =
        read("storage.cache_hit_ratio", "storage.adjacency_cache.misses");
    if (hits && misses) {
      const double all = *hits + *misses;
      report.set("storage.cache_hit_ratio", all > 0 ? *hits / all : 0.0);
    }
    if (const auto ev = read("storage.cache_evictions_per_query",
                             "storage.adjacency_cache.evictions")) {
      report.set("storage.cache_evictions_per_query", *ev / q);
    }
  }
  const auto rounds = read("ppr.dense_round_share", "ssppr.kernel_mode");
  const auto dense = counter("ssppr.kernel_mode{mode=dense}");
  if (rounds) {
    report.set("ppr.dense_round_share",
               *rounds > 0 ? dense.value_or(0.0) / *rounds : 0.0);
  }
  const auto created =
      read("rpc.buffer_pool_allocs", "rpc.buffer_pool.created");
  const auto grown = read("rpc.buffer_pool_allocs", "rpc.buffer_pool.grown");
  if (created && grown) report.set("rpc.buffer_pool_allocs", *created + *grown);
}

}  // namespace perfbench
