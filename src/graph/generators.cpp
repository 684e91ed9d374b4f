#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"

namespace ppr {

Graph generate_rmat(NodeId num_nodes, EdgeIndex num_edges, double a, double b,
                    double c, std::uint64_t seed) {
  GE_REQUIRE(num_nodes > 0, "num_nodes must be positive");
  GE_REQUIRE(a > 0 && b >= 0 && c >= 0 && a + b + c < 1.0,
             "invalid R-MAT probabilities");
  int scale = 0;
  while ((NodeId{1} << scale) < num_nodes) ++scale;
  const double d = 1.0 - a - b - c;
  (void)d;

  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges));
  for (EdgeIndex e = 0; e < num_edges; ++e) {
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    for (int level = 0; level < scale; ++level) {
      const double p = rng.next_double();
      row <<= 1;
      col <<= 1;
      if (p < a) {
        // top-left quadrant
      } else if (p < a + b) {
        col |= 1;
      } else if (p < a + b + c) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    const auto src = static_cast<NodeId>(row % static_cast<std::uint64_t>(
                                                   num_nodes));
    const auto dst = static_cast<NodeId>(col % static_cast<std::uint64_t>(
                                                   num_nodes));
    if (src == dst) continue;  // drop self-loops
    edges.push_back({src, dst, 1.0f});
  }
  Graph g = Graph::from_edges(num_nodes, edges, /*make_undirected=*/true);
  g.randomize_weights(seed ^ 0xabcdef12345ULL);
  return g;
}

Graph generate_barabasi_albert(NodeId num_nodes, int edges_per_node,
                               std::uint64_t seed) {
  GE_REQUIRE(num_nodes > edges_per_node && edges_per_node >= 1,
             "need num_nodes > edges_per_node >= 1");
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_nodes) *
                static_cast<std::size_t>(edges_per_node));
  // `targets` holds every edge endpoint seen so far; sampling uniformly
  // from it is sampling proportional to degree.
  std::vector<NodeId> targets;
  targets.reserve(edges.capacity() * 2);
  // Seed clique over the first m+1 nodes.
  const NodeId m = static_cast<NodeId>(edges_per_node);
  for (NodeId v = 0; v <= m; ++v) {
    for (NodeId u = v + 1; u <= m; ++u) {
      edges.push_back({v, u, 1.0f});
      targets.push_back(v);
      targets.push_back(u);
    }
  }
  for (NodeId v = m + 1; v < num_nodes; ++v) {
    for (int j = 0; j < edges_per_node; ++j) {
      const NodeId u = targets[rng.next_u64(targets.size())];
      edges.push_back({v, u, 1.0f});
    }
    // Register endpoints after all m draws so a node can't attach to itself.
    for (std::size_t k = edges.size() - static_cast<std::size_t>(m);
         k < edges.size(); ++k) {
      targets.push_back(edges[k].src);
      targets.push_back(edges[k].dst);
    }
  }
  Graph g = Graph::from_edges(num_nodes, edges, /*make_undirected=*/true);
  g.randomize_weights(seed ^ 0x5deadbeefULL);
  return g;
}

Graph generate_erdos_renyi(NodeId num_nodes, EdgeIndex num_edges,
                           std::uint64_t seed) {
  GE_REQUIRE(num_nodes > 1, "need at least two nodes");
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges));
  for (EdgeIndex e = 0; e < num_edges; ++e) {
    const auto src = static_cast<NodeId>(
        rng.next_u64(static_cast<std::uint64_t>(num_nodes)));
    const auto dst = static_cast<NodeId>(
        rng.next_u64(static_cast<std::uint64_t>(num_nodes)));
    if (src == dst) continue;
    edges.push_back({src, dst, 1.0f});
  }
  Graph g = Graph::from_edges(num_nodes, edges, /*make_undirected=*/true);
  g.randomize_weights(seed ^ 0x77777777ULL);
  return g;
}

Graph generate_clustered(NodeId num_nodes, int num_communities,
                         EdgeIndex intra_edges, EdgeIndex inter_edges,
                         double beta, std::uint64_t seed) {
  GE_REQUIRE(num_communities >= 1 && num_nodes >= num_communities,
             "need at least one node per community");
  GE_REQUIRE(beta >= 1.0, "beta must be >= 1");
  Rng rng(seed);
  const NodeId block = num_nodes / num_communities;
  // Skewed within-block endpoint: floor(block * u^beta) biases toward the
  // block's first nodes, making them hubs.
  const auto skewed = [&](NodeId block_start, NodeId block_size) {
    const double u = rng.next_double();
    const auto off = static_cast<NodeId>(
        static_cast<double>(block_size) * std::pow(u, beta));
    return block_start + std::min<NodeId>(off, block_size - 1);
  };
  const auto block_of = [&](int c) {
    const NodeId start = static_cast<NodeId>(c) * block;
    const NodeId size =
        (c == num_communities - 1) ? (num_nodes - start) : block;
    return std::pair<NodeId, NodeId>(start, size);
  };

  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(intra_edges + inter_edges));
  for (EdgeIndex e = 0; e < intra_edges; ++e) {
    const int c = static_cast<int>(
        rng.next_u64(static_cast<std::uint64_t>(num_communities)));
    const auto [start, size] = block_of(c);
    const NodeId src = skewed(start, size);
    const NodeId dst = skewed(start, size);
    if (src == dst) continue;
    edges.push_back({src, dst, 1.0f});
  }
  for (EdgeIndex e = 0; e < inter_edges; ++e) {
    const int c1 = static_cast<int>(
        rng.next_u64(static_cast<std::uint64_t>(num_communities)));
    const int c2 = static_cast<int>(
        rng.next_u64(static_cast<std::uint64_t>(num_communities)));
    if (c1 == c2) continue;
    const auto [s1, z1] = block_of(c1);
    const auto [s2, z2] = block_of(c2);
    edges.push_back({skewed(s1, z1), skewed(s2, z2), 1.0f});
  }
  Graph g = Graph::from_edges(num_nodes, edges, /*make_undirected=*/true);
  g.randomize_weights(seed ^ 0xc105733dULL);
  return g;
}

std::vector<std::vector<EdgeMutationOp>> mutation_stream(
    const Graph& g, int num_batches, int ops_per_batch,
    double insert_fraction, std::uint64_t seed) {
  GE_REQUIRE(num_batches >= 0 && ops_per_batch > 0,
             "mutation_stream needs non-negative batches of > 0 ops");
  GE_REQUIRE(insert_fraction >= 0.0 && insert_fraction <= 1.0,
             "insert_fraction must be in [0, 1]");
  GE_REQUIRE(g.num_nodes() >= 2,
             "mutation_stream needs at least two nodes");

  // Live undirected edge multiset, seeded with the graph's own edges
  // (each {u, v} once; self-loops are not mutable) and extended by the
  // stream's own inserts — so every delete the stream emits targets an
  // edge that exists at that point of the replay.
  struct LiveEdge {
    NodeId u, v;
  };
  std::vector<LiveEdge> live;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) live.push_back({u, v});
    }
  }

  Rng rng(seed ^ 0x5eed5eedULL);
  std::vector<std::vector<EdgeMutationOp>> batches;
  batches.reserve(static_cast<std::size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<EdgeMutationOp> batch;
    batch.reserve(static_cast<std::size_t>(ops_per_batch));
    // A segment applies its deletes before its inserts, so a delete of an
    // edge this batch inserted would name an edge that does not exist yet.
    // Such a delete is drawn (RNG and live list move as usual) but not
    // emitted: the replayed graph then holds a superset of `live`, so every
    // later delete still finds its edge.
    std::set<std::pair<NodeId, NodeId>> inserted;
    for (int o = 0; o < ops_per_batch; ++o) {
      const bool do_insert =
          live.empty() ||
          rng.next_float(0.0f, 1.0f) < static_cast<float>(insert_fraction);
      if (do_insert) {
        EdgeMutationOp op;
        op.u = static_cast<NodeId>(
            rng.next_u64(static_cast<std::uint64_t>(g.num_nodes())));
        do {
          op.v = static_cast<NodeId>(
              rng.next_u64(static_cast<std::uint64_t>(g.num_nodes())));
        } while (op.v == op.u);
        op.weight = rng.next_float(0.0f, 1.0f) + 1e-3f;  // keep > 0
        op.insert = true;
        batch.push_back(op);
        live.push_back({op.u, op.v});
        inserted.insert(std::minmax(op.u, op.v));
      } else {
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_u64(static_cast<std::uint64_t>(live.size())));
        const LiveEdge e = live[pick];
        if (inserted.count(std::minmax(e.u, e.v)) == 0) {
          batch.push_back({e.u, e.v, 0.0f, /*insert=*/false});
        }
        live[pick] = live.back();
        live.pop_back();
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

Graph generate_grid(NodeId rows, NodeId cols) {
  GE_REQUIRE(rows > 0 && cols > 0, "grid dimensions must be positive");
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(rows) *
                static_cast<std::size_t>(cols) * 2);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1), 1.0f});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c), 1.0f});
    }
  }
  return Graph::from_edges(rows * cols, edges, /*make_undirected=*/true);
}

}  // namespace ppr
