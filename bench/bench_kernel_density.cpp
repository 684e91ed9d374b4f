// Frontier-density sweep for the dense/sparse push kernels (DESIGN.md
// §14): drive the SAME query through the sparse and dense kernels in
// lockstep — their frontiers are bit-identical by construction — timing
// each round's push in both representations.
//
// One shard, zero-copy local fetches: what's timed is the kernel itself,
// not the wire. Per-round JSON rows carry (eps, pass, round, density,
// frontier, sparse_us, dense_us); a summary row per eps counts the warm
// rounds the dense kernel wins and reports the mean query time of each
// kernel on one recycled state (reset + the whole pop/push loop), which
// is how every driver runs its states.
//
// Flags: --nodes N --edges M --queries Q --eps-list 1e-5,1e-6,1e-7
//        --force-scalar (pin scalar SIMD paths; compare against default)
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "ppr/ssppr_state.hpp"

using namespace ppr;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RoundRow {
  double density = 0;
  std::size_t frontier = 0;
  double sparse_us = 0;
  double dense_us = 0;
};

SspprOptions kernel_options(double eps, SspprKernel kernel) {
  SspprOptions o;
  o.alpha = 0.462;
  o.epsilon = eps;
  o.kernel = kernel;
  return o;
}

/// Run source `src` through both kernels in lockstep against `shard`,
/// timing each round's push pair. Returns per-round rows.
std::vector<RoundRow> lockstep_rounds(const GraphShard& shard, NodeId src,
                                      double eps) {
  const NodeId topology[] = {shard.num_core_nodes()};
  SspprState sparse(NodeRef{src, 0}, kernel_options(eps, SspprKernel::kSparse));
  SspprState dense(NodeRef{src, 0}, kernel_options(eps, SspprKernel::kDense));
  dense.bind_topology(topology);

  std::vector<RoundRow> rows;
  std::vector<NodeId> nodes, dnodes;
  std::vector<ShardId> shards, dshards;
  for (;;) {
    sparse.pop(nodes, shards);
    dense.pop(dnodes, dshards);
    if (nodes.size() != dnodes.size()) {
      std::fprintf(stderr, "kernel frontiers diverged (%zu vs %zu)\n",
                   nodes.size(), dnodes.size());
      std::exit(1);
    }
    if (nodes.empty()) break;
    const auto infos = shard.get_neighbor_infos(nodes);
    RoundRow row;
    row.frontier = nodes.size();
    row.density = static_cast<double>(nodes.size()) /
                  static_cast<double>(shard.num_core_nodes());
    double t0 = now_us();
    sparse.push(infos, nodes, shards);
    double t1 = now_us();
    dense.push(infos, dnodes, dshards);
    double t2 = now_us();
    row.sparse_us = t1 - t0;
    row.dense_us = t2 - t1;
    rows.push_back(row);
  }
  return rows;
}

/// Mean query time (reset + pop/fetch/push loop) of `sources` run one
/// after another on one recycled state of `kernel`.
double recycled_query_us(const GraphShard& shard,
                         const std::vector<NodeId>& sources, double eps,
                         SspprKernel kernel) {
  const NodeId topology[] = {shard.num_core_nodes()};
  SspprState state(NodeRef{sources[0], 0}, kernel_options(eps, kernel));
  state.bind_topology(topology);
  std::vector<NodeId> nodes;
  std::vector<ShardId> shards;
  double total = 0;
  for (const NodeId src : sources) {
    const double t0 = now_us();
    state.reset(NodeRef{src, 0});
    for (;;) {
      state.pop(nodes, shards);
      if (nodes.empty()) break;
      state.push(shard.get_neighbor_infos(nodes), nodes, shards);
    }
    total += now_us() - t0;
  }
  return total / static_cast<double>(sources.size());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  bench::ObsExport obs_export(args);
  const auto nodes = static_cast<NodeId>(args.get_int("nodes", 100000));
  const auto edges = static_cast<EdgeIndex>(args.get_int("edges", 800000));
  const int queries = static_cast<int>(args.get_int("queries", 3));
  if (args.get_bool("force-scalar", false)) simd::set_forced_scalar(true);

  std::vector<double> eps_list;
  {
    std::stringstream ss(args.get_string("eps-list", "1e-5,1e-6,1e-7"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) eps_list.push_back(std::stod(item));
    }
  }

  const Graph g = generate_rmat(nodes, edges, 0.5, 0.2, 0.2, 99);
  const PartitionAssignment all_zero(
      static_cast<std::size_t>(g.num_nodes()), 0);
  const ShardedGraph sharded = build_sharded_graph(g, all_zero, 1);
  const GraphShard& shard = *sharded.shards[0];

  bench::print_header(
      "Push-kernel density sweep: per-round sparse vs dense push time");
  std::printf("graph: rmat |V|=%lld |E|=%lld, single shard, simd=%s\n\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()),
              simd::level_name(simd::active_level()));

  std::vector<NodeId> sources;
  for (int q = 0; q < queries; ++q) {
    sources.push_back(static_cast<NodeId>(
        (static_cast<NodeId>(q) * 9173 + 11) % shard.num_core_nodes()));
  }
  for (const double eps : eps_list) {
    std::vector<RoundRow> warm_rows;
    for (const char* pass : {"cold", "warm"}) {
      // A fresh sweep per pass: "cold" takes every first-touch allocation
      // (maps, dense arrays, scratch pool); "warm" runs after the pools
      // and allocator are primed by the cold pass.
      std::vector<RoundRow> rows;
      for (const NodeId src : sources) {
        const auto qr = lockstep_rounds(shard, src, eps);
        rows.insert(rows.end(), qr.begin(), qr.end());
      }
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("{\"eps\": %g, \"pass\": \"%s\", \"round\": %zu, "
                    "\"density\": %.6f, \"frontier\": %zu, "
                    "\"sparse_us\": %.1f, \"dense_us\": %.1f}\n",
                    eps, pass, i, rows[i].density, rows[i].frontier,
                    rows[i].sparse_us, rows[i].dense_us);
      }
      warm_rows = std::move(rows);
    }

    std::size_t dense_wins = 0;
    double sparse_sum = 0, dense_sum = 0;
    for (const RoundRow& r : warm_rows) {
      if (r.dense_us < r.sparse_us) ++dense_wins;
      sparse_sum += r.sparse_us;
      dense_sum += r.dense_us;
    }
    std::printf(
        "{\"eps\": %g, \"rounds\": %zu, \"dense_faster_rounds\": %zu, "
        "\"sparse_round_us\": %.1f, \"dense_round_us\": %.1f, "
        "\"sparse_query_us\": %.1f, \"dense_query_us\": %.1f}\n\n",
        eps, warm_rows.size(), dense_wins, sparse_sum, dense_sum,
        recycled_query_us(shard, sources, eps, SspprKernel::kSparse),
        recycled_query_us(shard, sources, eps, SspprKernel::kDense));
  }
  return 0;
}
