// Synthetic graph generators used to build scaled replicas of the paper's
// datasets (Table 1), plus the seeded mutation-stream generator feeding
// the streaming-mutation tests and benches (DESIGN.md §15). All
// generators are deterministic given a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ppr {

/// R-MAT generator (Chakrabarti et al.). Produces a power-law graph with
/// heavy-tailed degree distribution, the structure of social networks like
/// Twitter. `num_nodes` is rounded up to a power of two internally for the
/// recursive quadrant descent but the returned graph has exactly
/// `num_nodes` nodes (endpoints are folded with modulo). The result is
/// undirected with random symmetric weights.
Graph generate_rmat(NodeId num_nodes, EdgeIndex num_edges, double a, double b,
                    double c, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new node attaches to
/// `edges_per_node` existing nodes proportionally to degree. Power-law but
/// with a lighter max-degree tail than R-MAT (Friendster-like).
Graph generate_barabasi_albert(NodeId num_nodes, int edges_per_node,
                               std::uint64_t seed);

/// Erdős–Rényi G(n, m): `num_edges` uniform random pairs. Near-uniform
/// degrees; used for tests and as a non-skewed control.
Graph generate_erdos_renyi(NodeId num_nodes, EdgeIndex num_edges,
                           std::uint64_t seed);

/// 2-D grid graph (rows x cols, 4-neighborhood). Deterministic structure
/// with known cut properties; used by partitioner tests.
Graph generate_grid(NodeId rows, NodeId cols);

/// Clustered power-law graph: `num_communities` equal contiguous blocks.
/// Intra-community endpoints are drawn with density ∝ u^beta (beta > 1
/// concentrates edges on per-community hub nodes, producing a heavy
/// degree tail); `inter_edges` uniform edges connect random communities.
/// This mimics the community structure of real social/co-purchase
/// networks, which is what makes them partitionable with low edge cut —
/// the property §4.3's locality analysis depends on.
Graph generate_clustered(NodeId num_nodes, int num_communities,
                         EdgeIndex intra_edges, EdgeIndex inter_edges,
                         double beta, std::uint64_t seed);

/// One streaming edge mutation against an UNDIRECTED graph: insert (or
/// delete) the edge {u, v}. Expressed in global node ids — the cluster's
/// mutation coordinator translates to per-shard delta operations and
/// mirrors both directions (engine/cluster.hpp). Lives here (not in
/// storage/) so graph-level tools can produce streams without pulling in
/// the storage plane.
struct EdgeMutationOp {
  NodeId u = 0;
  NodeId v = 0;
  float weight = 1.0f;
  bool insert = true;
};

/// Seeded stream of mutation batches over an existing graph — the shared
/// workload of the mutation tests and bench_mutations. Tracks the live
/// edge multiset as it goes: every delete targets an edge that is live at
/// that point of the stream (original or inserted by an EARLIER batch),
/// so replaying the batches in order against `g` is always valid; inserts
/// draw uniform random non-self-loop pairs with weights in (0, 1].
/// Roughly `insert_fraction` of ops are inserts (deletes are forced to
/// inserts while no live edge remains). A store applies a batch's deletes
/// before its inserts, so a drawn delete of an edge its own batch inserted
/// is dropped rather than emitted: a batch may hold fewer than
/// `ops_per_batch` ops. Deterministic given `seed`.
std::vector<std::vector<EdgeMutationOp>> mutation_stream(
    const Graph& g, int num_batches, int ops_per_batch,
    double insert_fraction, std::uint64_t seed);

}  // namespace ppr
