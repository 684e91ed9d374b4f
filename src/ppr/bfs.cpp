#include "ppr/bfs.hpp"

#include <deque>

#include "concurrent/flat_map.hpp"
#include "obs/trace.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

BfsResult distributed_bfs(const DistGraphStorage& storage,
                          std::span<const NodeId> source_locals,
                          const BfsOptions& options) {
  const int num_shards = storage.num_shards();
  const ShardId self = storage.shard_id();
  BfsResult res;
  // Visited set: packed NodeRef -> distance. A single FlatMap suffices —
  // one BFS runs on one computing process (inter-query parallelism is
  // across queries, as in the SSPPR engine).
  FlatMap<int> visited;

  std::vector<NodeId> frontier_locals(source_locals.begin(),
                                      source_locals.end());
  std::vector<ShardId> frontier_shards(source_locals.size(), self);
  for (const NodeId l : source_locals) {
    visited[NodeRef{l, self}.key()] = 0;
  }

  // Each level is one pipeline round: the frontier rows resolve through
  // the halo/adjacency caches where resident, at most one (optionally
  // compressed) RPC per remote shard fetches the rest, and the own-shard
  // frontier expands while responses are in flight. Expansion always
  // walks each shard's rows in request order regardless of where a row
  // was resolved from, so the traversal — and the next frontier's request
  // order — is identical under every cache configuration.
  FetchPipeline pipeline(storage, options.graph_version);
  obs::ScopedSpan query_span("bfs.query");
  int depth = 0;
  while (!frontier_locals.empty() &&
         (options.max_depth < 0 || depth < options.max_depth)) {
    ++res.num_levels;
    obs::ScopedSpan level_span("bfs.level");
    pipeline.begin_round();
    for (std::size_t i = 0; i < frontier_locals.size(); ++i) {
      pipeline.add(frontier_shards[i], frontier_locals[i]);
    }

    std::vector<NodeId> next_locals;
    std::vector<ShardId> next_shards;
    const auto expand = [&](const VertexProp& vp) {
      for (std::size_t k = 0; k < vp.degree(); ++k) {
        const NodeRef u{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]};
        const std::uint64_t key = u.key();
        if (visited.contains(key)) continue;
        visited[key] = depth + 1;
        next_locals.push_back(u.local);
        next_shards.push_back(u.shard);
      }
    };
    const auto expand_shard = [&](ShardId j) {
      const auto n = static_cast<std::uint32_t>(pipeline.num_rows(j));
      for (std::uint32_t r = 0; r < n; ++r) expand(pipeline.row(j, r));
    };

    pipeline.execute({options.compress, options.overlap, options.codec,
                      options.fetch_weights},
                     [&] { expand_shard(self); });
    for (ShardId j = 0; j < num_shards; ++j) {
      if (j != self) expand_shard(j);
    }

    frontier_locals.swap(next_locals);
    frontier_shards.swap(next_shards);
    ++depth;
  }

  res.distances.reserve(visited.size());
  visited.for_each([&](std::uint64_t key, int& d) {
    res.distances.emplace_back(NodeRef::from_key(key), d);
  });
  res.num_visited = res.distances.size();
  return res;
}

std::vector<int> bfs_reference(const Graph& g,
                               std::span<const NodeId> sources,
                               int max_depth) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::deque<NodeId> queue;
  for (const NodeId s : sources) {
    GE_REQUIRE(s >= 0 && s < g.num_nodes(), "source out of range");
    dist[static_cast<std::size_t>(s)] = 0;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const int d = dist[static_cast<std::size_t>(v)];
    if (max_depth >= 0 && d >= max_depth) continue;
    for (const NodeId u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == -1) {
        dist[static_cast<std::size_t>(u)] = d + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

}  // namespace ppr
