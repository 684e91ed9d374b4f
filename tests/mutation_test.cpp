// Versioned mutable storage plane (DESIGN.md §15): delta-segmented
// stores, snapshot-consistent reads, streaming edge mutations, and
// compaction. `ctest -L mutation`; tools/check.sh runs this suite under
// ASan/UBSan and the concurrent cases under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "ppr/bfs.hpp"
#include "ppr/khop_sampler.hpp"
#include "ppr/random_walk.hpp"
#include "storage/fetch_pipeline.hpp"
#include "storage/storage_service.hpp"
#include "storage/versioned_shard.hpp"
#include "khop_reference.hpp"

namespace ppr {
namespace {

constexpr double kAlpha = 0.462;
constexpr double kEps = 1e-5;

using Entries = std::vector<std::pair<NodeRef, double>>;

Entries sorted_ppr(const SspprState& s) {
  Entries e = s.ppr_entries();
  std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.first.key() < b.first.key();
  });
  return e;
}

/// Bit-exact comparison: same support, same doubles.
void expect_identical(const Entries& got, const Entries& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first.key(), want[i].first.key()) << what << " @" << i;
    ASSERT_EQ(got[i].second, want[i].second) << what << " @" << i;
  }
}

DriverOptions pinned_driver(std::uint64_t version) {
  DriverOptions d;
  d.graph_version = version;
  return d;
}

class MutationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_clustered(600, 6, 6000, 500, 1.5, 7);
    assignment_ = partition_multilevel(graph_, 3);
    batches_ = mutation_stream(graph_, /*num_batches=*/4,
                               /*ops_per_batch=*/30,
                               /*insert_fraction=*/0.65, /*seed=*/42);
  }

  std::unique_ptr<Cluster> make_cluster(bool halo = false,
                                        std::size_t cache_rows = 0) const {
    ClusterOptions opts;
    opts.num_machines = 3;
    opts.network = no_network_cost();
    opts.cache_halo_adjacency = halo;
    opts.adjacency_cache_rows = cache_rows;
    return std::make_unique<Cluster>(graph_, assignment_, opts);
  }

  std::vector<NodeRef> pick_sources(const Cluster& cluster, int machine,
                                    std::size_t count) const {
    const NodeId core = cluster.shard(machine).num_core_nodes();
    std::vector<NodeRef> sources;
    for (std::size_t q = 0; q < count; ++q) {
      sources.push_back(NodeRef{static_cast<NodeId>((q * 37 + 5) % core),
                                static_cast<ShardId>(machine)});
    }
    return sources;
  }

  Graph graph_;
  PartitionAssignment assignment_;
  std::vector<std::vector<EdgeMutationOp>> batches_;
};

// ---------------------------------------------------------------------
// Generator.

// Every emitted delete names an edge that is live when its batch lands,
// including in a high-churn stream (a 16-node grid with 64 ops per batch),
// where a delete keeps drawing edges its own batch just inserted: the
// store applies a batch's deletes before its inserts, so such a delete
// must not be emitted.
TEST_F(MutationFixture, MutationStreamDeterministicAndValid) {
  struct Input {
    Graph graph;
    int batches, ops;
    double insert_fraction;
    std::uint64_t seed;
  };
  const std::vector<Input> inputs = {
      {graph_, 4, 30, 0.65, 42},
      {generate_grid(4, 4), 40, 64, 0.5, 3},
  };
  for (const Input& in : inputs) {
    const Graph& g = in.graph;
    SCOPED_TRACE(::testing::Message() << g.num_nodes() << " nodes, "
                                      << in.ops << " ops per batch");
    const auto stream = mutation_stream(g, in.batches, in.ops,
                                        in.insert_fraction, in.seed);
    const auto again = mutation_stream(g, in.batches, in.ops,
                                       in.insert_fraction, in.seed);
    ASSERT_EQ(stream.size(), static_cast<std::size_t>(in.batches));
    ASSERT_EQ(again.size(), stream.size());
    for (std::size_t b = 0; b < stream.size(); ++b) {
      ASSERT_EQ(again[b].size(), stream[b].size());
      EXPECT_LE(stream[b].size(), static_cast<std::size_t>(in.ops));
      for (std::size_t i = 0; i < stream[b].size(); ++i) {
        EXPECT_EQ(again[b][i].u, stream[b][i].u);
        EXPECT_EQ(again[b][i].v, stream[b][i].v);
        EXPECT_EQ(again[b][i].weight, stream[b][i].weight);
        EXPECT_EQ(again[b][i].insert, stream[b][i].insert);
      }
    }
    for (const auto& batch : stream) {
      std::vector<std::pair<NodeId, NodeId>> inserted;
      for (const EdgeMutationOp& op : batch) {
        EXPECT_NE(op.u, op.v);
        EXPECT_GE(op.u, 0);
        EXPECT_LT(op.u, g.num_nodes());
        EXPECT_GE(op.v, 0);
        EXPECT_LT(op.v, g.num_nodes());
        const std::pair<NodeId, NodeId> key = std::minmax(op.u, op.v);
        if (op.insert) {
          EXPECT_GT(op.weight, 0.0f);
          inserted.push_back(key);
        } else {
          EXPECT_EQ(std::count(inserted.begin(), inserted.end(), key), 0)
              << "a batch deletes the edge " << key.first << "-"
              << key.second << " it inserted itself";
        }
      }
    }

    // Replaying the stream and reading every row at the final version
    // finds the edge of every delete.
    ClusterOptions opts;
    opts.num_machines = 2;
    opts.network = no_network_cost();
    Cluster cluster(g, partition_hash(g, 2), opts);
    EXPECT_NO_THROW({
      for (const auto& batch : stream) cluster.apply_edge_mutations(batch);
      for (ShardId s = 0; s < 2; ++s) {
        const auto snap = cluster.store(s)->snapshot(cluster.graph_version());
        for (NodeId local = 0; local < snap->num_core_nodes(); ++local) {
          snap->vertex_prop(local);
        }
      }
    });
    EXPECT_EQ(cluster.graph_version(), stream.size());
  }
}

// ---------------------------------------------------------------------
// Store-level: versions, per-version rows, delete-then-reinsert.

TEST_F(MutationFixture, StoreServesEveryAppliedVersion) {
  auto cluster = make_cluster();
  const auto store = cluster->store(0);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->latest_version(), 0u);

  // Insert one local edge 0 -> 1 inside shard 0 at version 1.
  const GraphShard& shard = cluster->shard(0);
  ASSERT_GE(shard.num_core_nodes(), 2);
  const float d0 = shard.core_weighted_degree(0);
  MutationBatch batch;
  batch.inserts.push_back(EdgeInsert{0, 1, 0, shard.core_global_id(1), 2.5f,
                                     shard.core_weighted_degree(1)});
  store->apply(1, batch);
  EXPECT_EQ(store->latest_version(), 1u);
  EXPECT_GT(store->delta_edges(), 0u);

  const auto v0 = store->snapshot(0);
  const auto v1 = store->snapshot(1);
  EXPECT_TRUE(v0->clean());
  EXPECT_FALSE(v1->clean());
  EXPECT_FLOAT_EQ(v0->weighted_degree(0), d0);
  EXPECT_FLOAT_EQ(v1->weighted_degree(0), d0 + 2.5f);
  const VertexProp row0 = v0->vertex_prop(0);
  const VertexProp row1 = v1->vertex_prop(0);
  EXPECT_EQ(row1.degree(), row0.degree() + 1);
  // Inserted edges append after the base edges.
  EXPECT_EQ(row1.nbr_local_ids[row1.degree() - 1], 1);
  EXPECT_FLOAT_EQ(row1.edge_weights[row1.degree() - 1], 2.5f);
}

TEST_F(MutationFixture, DeleteThenReinsertAcrossVersions) {
  auto cluster = make_cluster();
  const auto store = cluster->store(0);
  const GraphShard& shard = cluster->shard(0);

  // Pick a core row with at least one edge and delete its first neighbor.
  NodeId src = -1;
  for (NodeId l = 0; l < shard.num_core_nodes(); ++l) {
    if (shard.vertex_prop(l).degree() > 0) {
      src = l;
      break;
    }
  }
  ASSERT_GE(src, 0);
  const VertexProp base_row = shard.vertex_prop(src);
  const std::size_t deg = base_row.degree();
  const NodeId nbr_local = base_row.nbr_local_ids[0];
  const ShardId nbr_shard = base_row.nbr_shard_ids[0];
  const float w0 = base_row.edge_weights[0];
  // Global id of the first neighbor (core or halo of another shard).
  const NodeId nbr_global =
      nbr_shard == 0
          ? shard.core_global_id(nbr_local)
          : cluster->shard(nbr_shard).core_global_id(nbr_local);

  MutationBatch del;
  del.deletes.push_back(EdgeDelete{src, nbr_global});
  store->apply(1, del);
  MutationBatch ins;
  ins.inserts.push_back(
      EdgeInsert{src, nbr_local, nbr_shard, nbr_global, 9.0f, 1.0f});
  store->apply(2, ins);

  const auto v0 = store->snapshot(0);
  const auto v1 = store->snapshot(1);
  const auto v2 = store->snapshot(2);
  EXPECT_EQ(v0->vertex_prop(src).degree(), deg);
  EXPECT_EQ(v1->vertex_prop(src).degree(), deg - 1);
  EXPECT_EQ(v2->vertex_prop(src).degree(), deg);
  EXPECT_FLOAT_EQ(v0->weighted_degree(src), base_row.weighted_degree);
  EXPECT_FLOAT_EQ(v1->weighted_degree(src),
                  base_row.weighted_degree - w0);
  EXPECT_FLOAT_EQ(v2->weighted_degree(src),
                  base_row.weighted_degree - w0 + 9.0f);
  // The reinserted edge sits at the END of the merged row (insertion
  // order), not at the deleted edge's old slot.
  const VertexProp row2 = v2->vertex_prop(src);
  EXPECT_EQ(row2.nbr_local_ids[row2.degree() - 1], nbr_local);
  EXPECT_FLOAT_EQ(row2.edge_weights[row2.degree() - 1], 9.0f);
}

// ---------------------------------------------------------------------
// Deep segment logs: more than 100 versions on a small shard whose hot
// rows most segments touch, checked at every retained version (pins into
// retired generations included) against a plain-vector reference merge.

/// One reference row: the arrays a merged row must equal bit for bit.
/// `inserted` marks edges that came from an insert (generator only).
struct RefRow {
  std::vector<NodeId> local;
  std::vector<ShardId> shard;
  std::vector<float> weight;
  std::vector<float> nbr_dw;
  std::vector<NodeId> global;
  std::vector<char> inserted;
  float dw = 0;

  RowPtrs ptrs() const {
    return RowPtrs{local.data(),  shard.data(),  weight.data(), nbr_dw.data(),
                   global.data(), local.size(), dw};
  }
  /// Erase the first edge to `nbr`; returns its weight.
  float erase_first(NodeId nbr) {
    const auto k = std::find(global.begin(), global.end(), nbr) -
                   global.begin();
    if (static_cast<std::size_t>(k) == global.size()) {
      ADD_FAILURE() << "no edge to " << nbr;
      return 0;
    }
    const float w = weight[static_cast<std::size_t>(k)];
    local.erase(local.begin() + k);
    shard.erase(shard.begin() + k);
    weight.erase(weight.begin() + k);
    nbr_dw.erase(nbr_dw.begin() + k);
    global.erase(global.begin() + k);
    inserted.erase(inserted.begin() + k);
    return w;
  }
};
using RefShard = std::vector<RefRow>;

/// The documented batch semantics on plain vectors: every delete (first
/// live match) in batch order, then every insert appended in batch order.
void apply_reference(RefShard& rows, const MutationBatch& b) {
  for (const EdgeDelete& d : b.deletes) {
    RefRow& r = rows[static_cast<std::size_t>(d.src_local)];
    r.dw -= r.erase_first(d.nbr_global);
  }
  for (const EdgeInsert& e : b.inserts) {
    RefRow& r = rows[static_cast<std::size_t>(e.src_local)];
    r.local.push_back(e.nbr_local);
    r.shard.push_back(e.nbr_shard);
    r.weight.push_back(e.weight);
    r.nbr_dw.push_back(e.nbr_weighted_deg);
    r.global.push_back(e.nbr_global);
    r.inserted.push_back(1);
    r.dw += e.weight;
  }
}

/// Bit patterns of a span of 4-byte values (ids or floats).
template <typename T>
std::vector<std::uint32_t> bits(std::span<const T> v) {
  static_assert(sizeof(T) == 4);
  std::vector<std::uint32_t> out;
  for (const T x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}
template <typename T>
std::vector<std::uint32_t> bits(const std::vector<T>& v) {
  return bits(std::span<const T>(v));
}

void expect_row(const VertexProp& got, const RefRow& want,
                const std::string& what) {
  EXPECT_EQ(bits(got.nbr_local_ids), bits(want.local)) << what;
  EXPECT_EQ(bits(got.nbr_shard_ids), bits(want.shard)) << what;
  EXPECT_EQ(bits(got.edge_weights), bits(want.weight)) << what;
  EXPECT_EQ(bits(got.nbr_weighted_degrees), bits(want.nbr_dw)) << what;
  EXPECT_EQ(bits(got.nbr_global_ids), bits(want.global)) << what;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.weighted_degree),
            std::bit_cast<std::uint32_t>(want.dw))
      << what;
}

TEST(DeepSegmentLog, EveryRetainedVersionMatchesReferenceMerge) {
  const Graph g = generate_clustered(120, 2, 600, 60, 1.5, 5);
  const ShardedGraph sg =
      build_sharded_graph(g, partition_hash(g, 2), 2, /*halo=*/true);
  const GraphShard& base = *sg.shards[0];
  const NodeId n = base.num_core_nodes();
  VersionedShardStore store(sg.shards[0]);

  RefShard ref(static_cast<std::size_t>(n));
  for (NodeId l = 0; l < n; ++l) {
    const VertexProp p = base.vertex_prop(l);
    RefRow& r = ref[static_cast<std::size_t>(l)];
    r.local.assign(p.nbr_local_ids.begin(), p.nbr_local_ids.end());
    r.shard.assign(p.nbr_shard_ids.begin(), p.nbr_shard_ids.end());
    r.weight.assign(p.edge_weights.begin(), p.edge_weights.end());
    r.nbr_dw.assign(p.nbr_weighted_degrees.begin(),
                    p.nbr_weighted_degrees.end());
    r.global.assign(p.nbr_global_ids.begin(), p.nbr_global_ids.end());
    r.inserted.assign(p.degree(), 0);
    r.dw = p.weighted_degree;
  }
  std::vector<RefShard> at_version{ref};

  // Three hot rows take three of every four ops; compactions fold the log
  // at versions 40 and 80 and batches keep landing after each.
  constexpr NodeId kHot = 3;
  constexpr std::uint64_t kVersions = 120;
  int base_deletes = 0, inserted_deletes = 0, parallel_inserts = 0,
      reinserts = 0;
  Rng rng(2024);
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    MutationBatch b;
    // Deletes must name edges live when they apply (before the batch's
    // inserts), so they are drawn from a copy the deletes consume.
    RefShard live = ref;
    const auto insert_to = [&](NodeId src, NodeId global) {
      const NodeRef to = sg.mapping.to_ref(global);
      const auto& row = live[static_cast<std::size_t>(src)].global;
      if (std::find(row.begin(), row.end(), global) != row.end()) {
        ++parallel_inserts;
      }
      b.inserts.push_back(EdgeInsert{src, to.local, to.shard, global,
                                     rng.next_float(0.25f, 4.0f),
                                     rng.next_float(1.0f, 50.0f)});
    };
    const auto ops = 1 + rng.next_u64(6);
    for (std::uint64_t o = 0; o < ops; ++o) {
      const auto src = static_cast<NodeId>(
          rng.next_u64(4) != 0 ? rng.next_u64(kHot)
                               : rng.next_u64(static_cast<std::uint64_t>(n)));
      RefRow& row = live[static_cast<std::size_t>(src)];
      const auto kind = rng.next_u64(4);
      if (kind < 2 && !row.global.empty()) {
        const auto k = rng.next_u64(row.global.size());
        (row.inserted[k] != 0 ? inserted_deletes : base_deletes) += 1;
        const NodeId nbr = row.global[k];
        b.deletes.push_back(EdgeDelete{src, nbr});
        (void)row.erase_first(nbr);
      } else if (kind == 2 && !row.global.empty()) {
        insert_to(src, row.global[rng.next_u64(row.global.size())]);
      } else {
        insert_to(src, static_cast<NodeId>(rng.next_u64(
                           static_cast<std::uint64_t>(g.num_nodes()))));
      }
    }
    if (v % 10 == 0 && !live[0].global.empty()) {
      // Delete-then-reinsert within one batch: the edge moves to the end.
      const NodeId nbr = live[0].global.front();
      b.deletes.push_back(EdgeDelete{0, nbr});
      (void)live[0].erase_first(nbr);
      insert_to(0, nbr);
      ++reinserts;
    }
    apply_reference(ref, b);
    at_version.push_back(ref);
    store.apply(v, std::move(b));
    if (v == 40 || v == 80) store.compact();
  }
  EXPECT_EQ(store.compactions(), 2u);
  EXPECT_EQ(store.oldest_pinnable_version(), 0u);
  EXPECT_GT(base_deletes, 0);
  EXPECT_GT(inserted_deletes, 0);
  EXPECT_GT(parallel_inserts, 0);
  EXPECT_EQ(reinserts, 12);

  // Every row, hot rows repeated, in a scrambled order.
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < n; ++l) locals.push_back((l * 7 + 3) % n);
  for (NodeId l = 0; l < kHot; ++l) locals.push_back(l);

  for (std::uint64_t v = 0; v <= kVersions; ++v) {
    SCOPED_TRACE(::testing::Message() << "version " << v);
    const auto snap = store.snapshot(v);
    const RefShard& want = at_version[v];
    for (NodeId l = 0; l < n; ++l) {
      const std::string what = "row " + std::to_string(l);
      expect_row(snap->vertex_prop(l), want[static_cast<std::size_t>(l)],
                 what);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(snap->weighted_degree(l)),
                std::bit_cast<std::uint32_t>(
                    want[static_cast<std::size_t>(l)].dw))
          << what;
    }
    snap->reset_scratch();

    const std::vector<VertexProp> props = snap->get_neighbor_infos(locals);
    ASSERT_EQ(props.size(), locals.size());
    std::vector<RowPtrs> want_rows;
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const RefRow& r = want[static_cast<std::size_t>(locals[i])];
      expect_row(props[i], r, "batched row " + std::to_string(locals[i]));
      want_rows.push_back(r.ptrs());
    }

    for (const WireCodec codec : {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
      FetchOptions options;
      options.codec = codec;
      ByteWriter got;
      snap->encode_neighbor_infos_csr(locals, got, options);
      ByteWriter expected;
      encode_rows_csr(want_rows, expected, options);
      EXPECT_EQ(got.bytes(), expected.bytes()) << wire_codec_name(codec);
    }
  }
}

// Every generation shares the shard's one immutable halo: compaction
// hands the new base the old base's halo arrays instead of a copy.
TEST_F(MutationFixture, CompactionSharesTheHaloAcrossGenerations) {
  ClusterOptions opts;
  opts.num_machines = 3;
  opts.network = no_network_cost();
  opts.cache_halo_adjacency = true;
  Cluster cluster(graph_, assignment_, opts);
  const auto store = cluster.store(0);
  const auto old_base = store->base();
  ASSERT_GT(old_base->num_halo_rows(), 0);

  // The first halo ref of shard 0: a neighbor on another shard.
  std::optional<NodeRef> ref;
  for (NodeId l = 0; l < old_base->num_core_nodes() && !ref; ++l) {
    const VertexProp p = old_base->vertex_prop(l);
    for (std::size_t k = 0; k < p.degree(); ++k) {
      if (p.nbr_shard_ids[k] != 0) {
        ref = NodeRef{p.nbr_local_ids[k], p.nbr_shard_ids[k]};
        break;
      }
    }
  }
  ASSERT_TRUE(ref.has_value());

  for (const auto& batch : batches_) cluster.apply_edge_mutations(batch);
  ASSERT_GT(store->delta_edges(), 0u);
  store->compact();
  const auto new_base = store->base();
  ASSERT_NE(new_base, old_base);

  const auto old_row = old_base->halo_vertex_prop(*ref);
  const auto new_row = new_base->halo_vertex_prop(*ref);
  ASSERT_TRUE(old_row.has_value());
  ASSERT_TRUE(new_row.has_value());
  EXPECT_EQ(new_row->nbr_local_ids.data(), old_row->nbr_local_ids.data());
  EXPECT_EQ(new_row->nbr_global_ids.data(), old_row->nbr_global_ids.data());
  EXPECT_EQ(new_base->num_halo_rows(), old_base->num_halo_rows());
}

// ---------------------------------------------------------------------
// Version-0 invariance: a never-mutated store resolves "latest" to the
// concrete version 0 and serves base rows untouched.

TEST_F(MutationFixture, NeverMutatedStoreResolvesToLatest) {
  auto cluster = make_cluster();
  EXPECT_EQ(cluster->graph_version(), 0u);
  EXPECT_EQ(cluster->storage(0).resolve_pin(kVersionLatest), 0u);
  // An explicit pin sticks.
  EXPECT_EQ(cluster->storage(0).resolve_pin(3), 3u);

  // Results agree between the default options and an explicit
  // version-0 pin.
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  for (const NodeRef src : pick_sources(*cluster, 0, 3)) {
    const SspprState unpinned =
        compute_ssppr(cluster->storage(0), src, ppr, DriverOptions{});
    const SspprState pinned =
        compute_ssppr(cluster->storage(0), src, ppr, pinned_driver(0));
    expect_identical(sorted_ppr(pinned), sorted_ppr(unpinned), "pin0");
    EXPECT_EQ(pinned.num_pushes(), unpinned.num_pushes());
  }
}

TEST_F(MutationFixture, WireHeaderVersionRoundtrip) {
  // One 20-byte layout: [shard][routing epoch][graph version].
  ByteWriter w;
  write_storage_header(w, 1, 9, 42);
  auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), kStorageHeaderBytes);
  {
    ByteReader r(bytes);
    const StorageHeader h = read_storage_header(r);
    EXPECT_EQ(h.shard, 1);
    EXPECT_EQ(h.routing_epoch, 9u);
    EXPECT_EQ(h.graph_version, 42u);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // The retry path patches the epoch in place (dist_storage.cpp does
  // exactly this); shard and graph version are untouched.
  {
    const std::uint64_t epoch = 11;
    std::memcpy(bytes.data() + kStorageEpochOffset, &epoch, sizeof(epoch));
    ByteReader r(bytes);
    const StorageHeader h = read_storage_header(r);
    EXPECT_EQ(h.shard, 1);
    EXPECT_EQ(h.routing_epoch, 11u);
    EXPECT_EQ(h.graph_version, 42u);
  }
}

// ---------------------------------------------------------------------
// Snapshot isolation + frozen-copy equivalence across the full stack.

TEST_F(MutationFixture, QueriesPinnedAtOldVersionsAreUnaffected) {
  auto cluster = make_cluster();
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto sources = pick_sources(*cluster, 1, 3);

  std::vector<Entries> baseline;
  for (const NodeRef src : sources) {
    baseline.push_back(sorted_ppr(
        compute_ssppr(cluster->storage(1), src, ppr, DriverOptions{})));
  }

  for (const auto& batch : batches_) {
    cluster->apply_edge_mutations(batch);
  }
  EXPECT_EQ(cluster->graph_version(), batches_.size());

  // Pinned at 0: bit-identical to the pre-mutation run.
  for (std::size_t q = 0; q < sources.size(); ++q) {
    const SspprState at0 = compute_ssppr(cluster->storage(1), sources[q],
                                         ppr, pinned_driver(0));
    expect_identical(sorted_ppr(at0), baseline[q], "pinned at 0");
  }
}

TEST_F(MutationFixture, PinnedReadsMatchFrozenCopyAtEveryVersion) {
  // `full` has all batches applied; `frozen` only the first V. A read of
  // `full` pinned at V must be bit-identical to `frozen` at latest (both
  // queries resolve to version V), with the same remote traffic.
  auto full = make_cluster();
  for (const auto& batch : batches_) full->apply_edge_mutations(batch);

  const std::size_t kFrozenAt = 2;
  auto frozen = make_cluster();
  for (std::size_t b = 0; b < kFrozenAt; ++b) {
    frozen->apply_edge_mutations(batches_[b]);
  }
  ASSERT_EQ(frozen->graph_version(), kFrozenAt);

  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto sources = pick_sources(*full, 0, 4);
  for (const NodeRef src : sources) {
    full->reset_stats();
    frozen->reset_stats();
    const SspprState got = compute_ssppr(full->storage(0), src, ppr,
                                         pinned_driver(kFrozenAt));
    const SspprState want =
        compute_ssppr(frozen->storage(0), src, ppr, DriverOptions{});
    expect_identical(sorted_ppr(got), sorted_ppr(want), "frozen copy");
    EXPECT_EQ(got.num_pushes(), want.num_pushes());
    // Identical remote traffic, byte for byte: both runs resolve their
    // pin to V, so they emit the same versioned fetch frames.
    EXPECT_EQ(full->total_remote_calls(), frozen->total_remote_calls());
    EXPECT_EQ(full->total_remote_bytes(), frozen->total_remote_bytes());
  }

  // BFS and random walks see the same snapshot-consistent view.
  BfsOptions bfs_full;
  bfs_full.graph_version = kFrozenAt;
  const NodeId roots[2] = {sources[0].local, sources[1].local};
  const BfsResult bfs_got =
      distributed_bfs(full->storage(0), roots, bfs_full);
  const BfsResult bfs_want =
      distributed_bfs(frozen->storage(0), roots, BfsOptions{});
  ASSERT_EQ(bfs_got.distances.size(), bfs_want.distances.size());
  EXPECT_EQ(bfs_got.num_levels, bfs_want.num_levels);

  for (const bool batched : {true, false}) {
    RandomWalkOptions wopt;
    wopt.walk_length = 8;
    wopt.seed = 12345;
    wopt.batch = batched;
    RandomWalkOptions wopt_pinned = wopt;
    wopt_pinned.graph_version = kFrozenAt;
    const RandomWalkResult walk_got =
        distributed_random_walk(full->storage(0), roots, wopt_pinned);
    const RandomWalkResult walk_want =
        distributed_random_walk(frozen->storage(0), roots, wopt);
    EXPECT_EQ(walk_got.walks, walk_want.walks)
        << (batched ? "batched" : "unbatched");
  }

  // k-hop sampling takes no pin, so it runs on `frozen`, whose newest
  // version is V, and must equal the sampler's stream replayed over
  // `full`'s rows pinned at V.
  const auto rows_at = [&](std::uint64_t version) {
    return [&full, version](NodeRef r) {
      const auto snap = full->store(r.shard)->snapshot(version);
      const VertexProp p = snap->vertex_prop(r.local);
      std::vector<NodeRef> row;
      for (std::size_t k = 0; k < p.degree(); ++k) {
        row.push_back(NodeRef{p.nbr_local_ids[k], p.nbr_shard_ids[k]});
      }
      return row;
    };
  };
  const std::vector<NodeId> khop_roots = [&] {
    std::vector<NodeId> r;
    for (const NodeRef src : pick_sources(*full, 0, 24)) r.push_back(src.local);
    return r;
  }();
  KHopOptions khop;
  khop.fanouts = {6, 4, 2};
  khop.seed = 77;
  const KHopResult khop_got =
      sample_khop(frozen->storage(0), khop_roots, khop);
  const KHopResult khop_want =
      reference_khop(0, 3, khop_roots, khop, rows_at(kFrozenAt));
  EXPECT_EQ(khop_levels(khop_got), khop_levels(khop_want));
  EXPECT_EQ(khop_edges(khop_got), khop_edges(khop_want));
  // The sample reads mutated rows: at version 0 the same stream differs.
  EXPECT_NE(khop_edges(khop_got),
            khop_edges(reference_khop(0, 3, khop_roots, khop, rows_at(0))));
}

// ---------------------------------------------------------------------
// Compaction: loss-free, result- and byte-identical at the same version.

TEST_F(MutationFixture, CompactionPreservesResultsAndBytes) {
  auto cluster = make_cluster();
  for (const auto& batch : batches_) cluster->apply_edge_mutations(batch);
  const std::uint64_t pin = cluster->graph_version();

  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto sources = pick_sources(*cluster, 2, 4);

  std::vector<Entries> want;
  std::vector<std::uint64_t> want_bytes, want_calls;
  for (const NodeRef src : sources) {
    cluster->reset_stats();
    want.push_back(sorted_ppr(
        compute_ssppr(cluster->storage(2), src, ppr, pinned_driver(pin))));
    want_bytes.push_back(cluster->total_remote_bytes());
    want_calls.push_back(cluster->total_remote_calls());
  }

  std::uint64_t delta_before = 0;
  for (int s = 0; s < 3; ++s) delta_before += cluster->store(s)->delta_edges();
  EXPECT_GT(delta_before, 0u);

  cluster->compact_all();

  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster->store(s)->delta_edges(), 0u);
    EXPECT_EQ(cluster->store(s)->latest_version(), pin);
  }

  for (std::size_t q = 0; q < sources.size(); ++q) {
    cluster->reset_stats();
    const SspprState got = compute_ssppr(cluster->storage(2), sources[q],
                                         ppr, pinned_driver(pin));
    expect_identical(sorted_ppr(got), want[q], "post-compaction");
    EXPECT_EQ(cluster->total_remote_bytes(), want_bytes[q]);
    EXPECT_EQ(cluster->total_remote_calls(), want_calls[q]);
  }

  // Old versions survive compaction through the retired generations.
  const auto v0 = cluster->store(0)->snapshot(0);
  EXPECT_EQ(v0->version(), 0u);
}

// ---------------------------------------------------------------------
// Replicas apply versions in the same order as the owner.

TEST_F(MutationFixture, ReplicasStayInVersionLockstep) {
  auto cluster = make_cluster();
  cluster->add_replica(1, 0);
  for (const auto& batch : batches_) cluster->apply_edge_mutations(batch);

  const auto owner = cluster->service(1).store_ptr(1);
  const auto replica = cluster->service(0).store_ptr(1);
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(owner->latest_version(), replica->latest_version());
  EXPECT_EQ(owner->delta_edges(), replica->delta_edges());

  // Row-for-row identical at every version.
  for (std::uint64_t v = 0; v <= owner->latest_version(); ++v) {
    const auto a = owner->snapshot(v);
    const auto b = replica->snapshot(v);
    for (NodeId l = 0; l < a->num_core_nodes(); ++l) {
      ASSERT_FLOAT_EQ(a->weighted_degree(l), b->weighted_degree(l))
          << "v" << v << " row " << l;
      const VertexProp ra = a->vertex_prop(l);
      const VertexProp rb = b->vertex_prop(l);
      ASSERT_EQ(ra.degree(), rb.degree()) << "v" << v << " row " << l;
    }
  }
}

// Replicas of several shards at once: each wave ships every shard's batch
// to that shard's next copy, and every copy still matches its owner at
// every version. Shard 1 has three copies, so the batches land in three
// waves, and copies held by the coordinator (machine 0) apply in place.
TEST_F(MutationFixture, ReplicasOfSeveralShardsStayInVersionLockstep) {
  auto cluster = make_cluster();
  cluster->add_replica(1, 0);
  cluster->add_replica(1, 2);
  cluster->add_replica(2, 0);
  cluster->add_replica(0, 1);
  for (const auto& batch : batches_) cluster->apply_edge_mutations(batch);

  const std::vector<std::pair<ShardId, std::vector<int>>> copies = {
      {0, {1}}, {1, {0, 2}}, {2, {0}}};
  for (const auto& [shard, replicas] : copies) {
    const auto owner = cluster->service(shard).store_ptr(shard);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->latest_version(), batches_.size());
    for (const int machine : replicas) {
      const auto replica = cluster->service(machine).store_ptr(shard);
      ASSERT_NE(replica, nullptr) << "shard " << shard << " on " << machine;
      EXPECT_EQ(owner->latest_version(), replica->latest_version());
      EXPECT_EQ(owner->delta_edges(), replica->delta_edges());
      for (std::uint64_t v = 0; v <= owner->latest_version(); ++v) {
        const auto a = owner->snapshot(v);
        const auto b = replica->snapshot(v);
        for (NodeId l = 0; l < a->num_core_nodes(); ++l) {
          ASSERT_FLOAT_EQ(a->weighted_degree(l), b->weighted_degree(l))
              << "shard " << shard << " on " << machine << " v" << v
              << " row " << l;
          ASSERT_EQ(a->vertex_prop(l).degree(), b->vertex_prop(l).degree())
              << "shard " << shard << " on " << machine << " v" << v
              << " row " << l;
        }
      }
    }
  }
}

// The coordinator keeps independent calls in flight together: a batch
// touching every shard of a 4-machine cluster costs one round trip for
// its hint reads and one for its landing wave — 4 delays, where reading
// and landing shard by shard costs 12.
TEST(MutationCoordinator, LandsABatchOnEveryShardInTwoRoundTrips) {
  constexpr int kMachines = 4;
  constexpr double kDelayUs = 20000.0;
  const Graph g = generate_clustered(800, 4, 4000, 400, 1.6, 5);
  const PartitionAssignment assignment = partition_hash(g, kMachines);
  ClusterOptions opts;
  opts.num_machines = kMachines;
  opts.network = NetworkModel{kDelayUs, 0.0};
  Cluster cluster(g, assignment, opts);

  // Batch r inserts, for every shard s, an edge from its r-th node to a
  // node of shard s + 1 it does not touch yet: every shard gets a batch,
  // and every shard is asked for hints.
  std::vector<std::vector<NodeId>> nodes_of(kMachines);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    nodes_of[static_cast<std::size_t>(cluster.locate(u).shard)].push_back(u);
  }
  const auto batch = [&](std::size_t r) {
    std::vector<EdgeMutationOp> ops;
    for (std::size_t s = 0; s < kMachines; ++s) {
      const NodeId u = nodes_of[s].at(r);
      const auto nbrs = g.neighbors(u);
      for (const NodeId v : nodes_of[(s + 1) % kMachines]) {
        if (std::find(nbrs.begin(), nbrs.end(), v) == nbrs.end()) {
          ops.push_back(EdgeMutationOp{u, v, 1.0f, true});
          break;
        }
      }
    }
    return ops;
  };

  // Best of three batches: the modeled delay is a floor under every
  // batch, while the host can stall any single one.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < 3; ++r) {
    const std::vector<EdgeMutationOp> ops = batch(r);
    ASSERT_EQ(ops.size(), static_cast<std::size_t>(kMachines));
    WallTimer timer;
    EXPECT_EQ(cluster.apply_edge_mutations(ops), r + 1);
    best = std::min(best, timer.seconds());
  }
  for (ShardId s = 0; s < kMachines; ++s) {
    EXPECT_EQ(cluster.store(s)->latest_version(), 3u) << "shard " << s;
  }
  EXPECT_GT(best, 3.5 * kDelayUs * 1e-6);
  EXPECT_LT(best, 8 * kDelayUs * 1e-6);
}

// ---------------------------------------------------------------------
// storage(s) follows a migrated shard, so mutations coordinated after the
// move reach the copy its queries read.

TEST(MigratedShard, MutationsReachTheShardStorageReads) {
  const Graph g = generate_clustered(600, 3, 3000, 400, 1.6, 11);
  const PartitionAssignment assignment = partition_hash(g, 3);
  ClusterOptions opts;
  opts.num_machines = 3;
  opts.network = no_network_cost();
  Cluster moved(g, assignment, opts);
  Cluster reference(g, assignment, opts);

  // Insert one edge at u, the first node of shard 2, to a node it does
  // not yet touch.
  NodeId u = 0;
  while (moved.locate(u).shard != 2) ++u;
  const auto nbrs = g.neighbors(u);
  NodeId v = 0;
  while (v == u || std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end()) ++v;
  const std::vector<EdgeMutationOp> insert{{u, v, 1.0f, true}};

  moved.migrate_shard(2, 1);
  moved.apply_edge_mutations(insert);
  reference.apply_edge_mutations(insert);

  const NodeRef src = moved.locate(u);
  EXPECT_EQ(moved.storage(2)
                .local_store()
                .snapshot()
                ->vertex_prop(src.local)
                .degree(),
            reference.storage(2)
                .local_store()
                .snapshot()
                ->vertex_prop(src.local)
                .degree());
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const SspprState got = compute_ssppr(moved.storage(2), src, ppr);
  const SspprState want = compute_ssppr(reference.storage(2), src, ppr);
  EXPECT_EQ(got.num_pushes(), want.num_pushes());
  expect_identical(sorted_ppr(got), sorted_ppr(want), "migrated shard");
}

// The coordinator's weighted-degree hint rejects ids past the shard's
// core nodes, locally and over the wire, as a row read does.
TEST_F(MutationFixture, HintFetchRejectsOutOfRangeIds) {
  auto cluster = make_cluster();
  const NodeId core = cluster->shard(1).num_core_nodes();
  const auto snap = cluster->store(1)->snapshot(0);
  EXPECT_THROW((void)snap->weighted_degree(core), InvalidArgument);
  for (const NodeId id : {core, core + 3}) {
    const NodeId ids[] = {id};
    EXPECT_THROW(
        (void)cluster->storage(0).get_weighted_degrees(1, ids, 0).wait(),
        RpcError)
        << "id " << id;
  }
}

// A mutation frame whose insert names a shard past the routing table is
// refused before it reaches the store: the version does not move, so no
// pinned reader can meet the edge and index per-shard state with it.
TEST_F(MutationFixture, MutationNamingAMissingShardIsRejected) {
  auto cluster = make_cluster();
  const auto frame = [&](ShardId nbr_shard) {
    ByteWriter w;
    write_storage_header(w, /*shard=*/1, cluster->routing(0).epoch(),
                         /*graph_version=*/1);
    MutationBatch batch;
    batch.inserts.push_back(EdgeInsert{0, 0, nbr_shard,
                                       cluster->mapping().to_global({0, 2}),
                                       1.0f, 1.0f});
    batch.encode(w);
    return w.take();
  };
  EXPECT_THROW((void)cluster->endpoint(0).sync_call(
                   1, kStorageServiceName, storage_method::kMutateEdges,
                   frame(7)),
               RpcError);
  EXPECT_EQ(cluster->store(1)->latest_version(), 0u);
  // The same frame naming a real shard lands.
  (void)cluster->endpoint(0).sync_call(1, kStorageServiceName,
                                       storage_method::kMutateEdges, frame(2));
  EXPECT_EQ(cluster->store(1)->latest_version(), 1u);
}

// ---------------------------------------------------------------------
// Concurrency: queries pinned at version 0 stay bit-identical while
// mutation batches land and a compaction completes mid-stream.

TEST_F(MutationFixture, ConcurrentMutateAndQueryStaysSnapshotConsistent) {
  auto cluster = make_cluster();
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto sources = pick_sources(*cluster, 0, 2);

  std::vector<Entries> baseline;
  for (const NodeRef src : sources) {
    baseline.push_back(sorted_ppr(
        compute_ssppr(cluster->storage(0), src, ppr, DriverOptions{})));
  }

  const auto stream = mutation_stream(graph_, 6, 20, 0.6, 99);
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    for (std::size_t b = 0; b < stream.size(); ++b) {
      cluster->apply_edge_mutations(stream[b]);
      if (b == stream.size() / 2) cluster->compact_all();
    }
    done.store(true, std::memory_order_release);
  });

  int rounds = 0;
  while (!done.load(std::memory_order_acquire) || rounds < 3) {
    for (std::size_t q = 0; q < sources.size(); ++q) {
      const SspprState at0 = compute_ssppr(cluster->storage(0), sources[q],
                                           ppr, pinned_driver(0));
      expect_identical(sorted_ppr(at0), baseline[q], "pin0 under churn");
      // Latest-pinned queries must run cleanly against whatever version
      // is published while mutations land (values intentionally differ).
      const SspprState latest =
          compute_ssppr(cluster->storage(0), sources[q], ppr,
                        DriverOptions{});
      EXPECT_GT(latest.num_pushes(), 0u);
    }
    ++rounds;
  }
  mutator.join();

  EXPECT_EQ(cluster->graph_version(), stream.size());
  std::uint64_t compactions = 0;
  for (int s = 0; s < 3; ++s) compactions += cluster->store(s)->compactions();
  EXPECT_GT(compactions, 0u);

  // After the churn, pinned-at-0 reads are still bit-identical.
  for (std::size_t q = 0; q < sources.size(); ++q) {
    const SspprState at0 = compute_ssppr(cluster->storage(0), sources[q],
                                         ppr, pinned_driver(0));
    expect_identical(sorted_ppr(at0), baseline[q], "pin0 after churn");
  }
}

// Readers pinned BELOW the newest version stay bit-identical while
// batches land and every shard compacts every third batch: the shared
// row index of each generation is read at older pins on query, server and
// coordinator threads while apply() and compact() replace it.
TEST_F(MutationFixture, ConcurrentOldPinReadsStayConsistentThroughCompactions) {
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto stream = mutation_stream(graph_, 12, 20, 0.6, 7);

  // Expected answers at every version, from a copy that never compacts.
  auto reference = make_cluster();
  const auto sources = pick_sources(*reference, 0, 2);
  std::vector<std::vector<Entries>> want(stream.size() + 1);
  for (std::size_t v = 0; v <= stream.size(); ++v) {
    if (v > 0) reference->apply_edge_mutations(stream[v - 1]);
    for (const NodeRef src : sources) {
      want[v].push_back(sorted_ppr(compute_ssppr(
          reference->storage(0), src, ppr, pinned_driver(v))));
    }
  }

  // With 12 batches, a compaction every 3 and 4 retired generations kept,
  // every version stays pinnable for the whole run.
  auto cluster = make_cluster();
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    for (std::size_t b = 0; b < stream.size(); ++b) {
      cluster->apply_edge_mutations(stream[b]);
      if (b % 3 == 2) cluster->compact_all();
    }
    done.store(true, std::memory_order_release);
  });
  const auto read_old_pins = [&](std::size_t q) {
    int rounds = 0;
    while (!done.load(std::memory_order_acquire) || rounds < 3) {
      const std::uint64_t latest = cluster->graph_version();
      for (std::uint64_t back = 1; back <= 2 && back <= latest; ++back) {
        const std::uint64_t pin = latest - back;
        const SspprState got = compute_ssppr(cluster->storage(0), sources[q],
                                             ppr, pinned_driver(pin));
        expect_identical(sorted_ppr(got), want[pin][q],
                         "pin " + std::to_string(pin));
      }
      ++rounds;
    }
  };
  std::thread reader([&] { read_old_pins(1); });
  read_old_pins(0);
  reader.join();
  mutator.join();

  EXPECT_EQ(cluster->graph_version(), stream.size());
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster->store(s)->compactions(), 4u) << "shard " << s;
  }
}

// ---------------------------------------------------------------------
// Store serialization: migration snapshots carry the version state.

TEST_F(MutationFixture, StoreSerializationRoundTripsVersionState) {
  auto cluster = make_cluster();
  for (const auto& batch : batches_) cluster->apply_edge_mutations(batch);
  const auto store = cluster->store(0);

  ByteWriter w;
  store->serialize(w);
  const auto bytes = std::move(w).take();
  ByteReader r(bytes);
  const auto copy = VersionedShardStore::deserialize(r);

  EXPECT_EQ(copy->shard_id(), store->shard_id());
  EXPECT_EQ(copy->latest_version(), store->latest_version());
  EXPECT_EQ(copy->delta_edges(), store->delta_edges());
  const auto a = store->snapshot();
  const auto b = copy->snapshot();
  for (NodeId l = 0; l < a->num_core_nodes(); ++l) {
    ASSERT_FLOAT_EQ(a->weighted_degree(l), b->weighted_degree(l));
  }
}

// ---------------------------------------------------------------------
// Row-granular validity (DESIGN.md §15): the halo gate and the adjacency
// cache's tags read each row's own mutation versions, so a write
// invalidates only the rows it touched.

// The tracker notes a version's rows as it publishes it, drops a late or
// repeated version, and after a missed one counts every row as changed.
TEST(VersionTrackerRows, PublishNotesRowsAndCoversAMissedVersion) {
  // Shard 0 has core rows 0..1, shard 1 has rows 0..2.
  const GlobalMapping mapping(PartitionAssignment{0, 1, 0, 1, 1}, 2);
  VersionTracker t(mapping);
  EXPECT_EQ(t.published(), 0u);
  EXPECT_EQ(t.last_mutation(1, 2), 0u);

  t.publish(1, std::vector<ShardRows>{{1, {2}}});
  EXPECT_EQ(t.published(), 1u);
  EXPECT_EQ(t.first_mutation(1, 2), 1u);
  EXPECT_EQ(t.last_mutation(1, 2), 1u);
  EXPECT_EQ(t.first_mutation(1, 0), 0u);  // a sibling row
  EXPECT_EQ(t.first_mutation(0, 0), 0u);  // an untouched shard

  t.publish(2, std::vector<ShardRows>{{0, {1}}, {1, {2}}});
  EXPECT_EQ(t.first_mutation(1, 2), 1u);
  EXPECT_EQ(t.last_mutation(1, 2), 2u);
  EXPECT_EQ(t.first_mutation(0, 1), 2u);

  // A late or repeated version changes nothing.
  t.publish(2, std::vector<ShardRows>{{0, {0}}});
  EXPECT_EQ(t.published(), 2u);
  EXPECT_EQ(t.first_mutation(0, 0), 0u);

  // Versions 3 and 4 were missed: every row counts as first changed no
  // later than 3 and last changed at 5; earlier first notes stay.
  t.publish(5, std::vector<ShardRows>{{1, {0}}});
  EXPECT_EQ(t.published(), 5u);
  EXPECT_EQ(t.first_mutation(0, 0), 3u);
  EXPECT_EQ(t.last_mutation(0, 0), 5u);
  EXPECT_EQ(t.first_mutation(1, 2), 1u);
  EXPECT_EQ(t.last_mutation(1, 2), 5u);

  // Ids are checked before anything is noted or published.
  EXPECT_THROW(t.publish(6, std::vector<ShardRows>{{1, {0, 3}}}),
               InvalidArgument);
  EXPECT_THROW(t.publish(6, std::vector<ShardRows>{{2, {0}}}),
               InvalidArgument);
  EXPECT_EQ(t.published(), 5u);
  EXPECT_EQ(t.last_mutation(1, 0), 5u);
  EXPECT_THROW((void)t.first_mutation(0, 2), InvalidArgument);
}

/// Every read kind at one pin, from two sources: SSPPR (entries and push
/// counts), BFS distances, and batched random walks.
struct PinnedReads {
  std::vector<Entries> ppr;
  std::vector<std::uint64_t> pushes;
  std::vector<std::pair<std::uint64_t, int>> bfs;  // (ref key, hops)
  std::size_t bfs_levels = 0;
  std::vector<NodeId> walks;
};

PinnedReads read_everything_at(const DistGraphStorage& storage,
                               std::span<const NodeRef> sources,
                               std::uint64_t pin) {
  PinnedReads out;
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  for (const NodeRef src : sources) {
    const SspprState s = compute_ssppr(storage, src, ppr, pinned_driver(pin));
    out.ppr.push_back(sorted_ppr(s));
    out.pushes.push_back(s.num_pushes());
  }
  const NodeId roots[2] = {sources[0].local, sources[1].local};
  BfsOptions bfs;
  bfs.graph_version = pin;
  const BfsResult b = distributed_bfs(storage, roots, bfs);
  for (const auto& [ref, hops] : b.distances) {
    out.bfs.emplace_back(ref.key(), hops);
  }
  std::sort(out.bfs.begin(), out.bfs.end());
  out.bfs_levels = b.num_levels;
  RandomWalkOptions walk;
  walk.walk_length = 8;
  walk.seed = 4242;
  walk.graph_version = pin;
  out.walks = distributed_random_walk(storage, roots, walk).walks;
  return out;
}

// With halo rows and an adjacency cache of 0, 64 or 4,096 rows, a read
// pinned at any version equals a frozen copy holding only that version's
// batches, bit for bit. Pins run up and back down, so readers meet
// entries tagged at newer versions and halo rows refreshed at other pins.
TEST_F(MutationFixture, HaloAndCacheReadsMatchFrozenCopyAtEveryVersion) {
  std::vector<NodeRef> sources;
  std::vector<PinnedReads> want;
  {
    // Frozen copies: after v batches, version v is the newest there is.
    auto frozen = make_cluster(/*halo=*/true);
    sources = pick_sources(*frozen, 0, 3);
    for (std::size_t v = 0; v <= batches_.size(); ++v) {
      if (v > 0) frozen->apply_edge_mutations(batches_[v - 1]);
      want.push_back(read_everything_at(frozen->storage(0), sources, v));
    }
  }
  std::vector<std::uint64_t> pins;
  for (std::uint64_t v = 0; v <= batches_.size(); ++v) pins.push_back(v);
  for (std::uint64_t v = batches_.size(); v-- > 0;) pins.push_back(v);

  for (const std::size_t rows : {std::size_t{0}, std::size_t{64},
                                 std::size_t{4096}}) {
    auto full = make_cluster(/*halo=*/true, rows);
    for (const auto& batch : batches_) full->apply_edge_mutations(batch);
    for (const std::uint64_t pin : pins) {
      const std::string what = "cache " + std::to_string(rows) +
                               " rows, pin " + std::to_string(pin);
      SCOPED_TRACE(what);
      const PinnedReads got =
          read_everything_at(full->storage(0), sources, pin);
      const PinnedReads& w = want[pin];
      for (std::size_t q = 0; q < sources.size(); ++q) {
        expect_identical(got.ppr[q], w.ppr[q], what);
        EXPECT_EQ(got.pushes[q], w.pushes[q]);
      }
      EXPECT_EQ(got.bfs, w.bfs);
      EXPECT_EQ(got.bfs_levels, w.bfs_levels);
      EXPECT_EQ(got.walks, w.walks);
    }
    // Halo rows kept serving at the newest version.
    EXPECT_GT(full->storage(0).stats().halo_hits.load(), 0u);
    if (rows > 0) {
      EXPECT_GT(full->total_adjacency_cache_hits(), 0u);
    }
  }
}

// After a write, every cached row it did not touch still hits; only the
// touched rows miss, at most one invalidation each, and their refetched
// copies equal the owner's rows at the new version.
TEST_F(MutationFixture, RowsAWriteDidNotTouchKeepHittingTheCache) {
  auto cluster = make_cluster(/*halo=*/false, /*cache_rows=*/4096);
  const DistGraphStorage& reader = cluster->storage(0);
  const AdjacencyCacheStats& cache = *reader.adjacency_cache_stats();
  const GlobalMapping& mapping = cluster->mapping();
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < std::min<NodeId>(cluster->shard(1).num_core_nodes(),
                                          120);
       ++l) {
    locals.push_back(l);
  }
  // Reads every probed row of shard 1 at `pin`; returns the cache hits.
  const auto read_shard1 = [&](std::uint64_t pin) {
    FetchPipeline pipeline(reader, pin);
    pipeline.begin_round();
    for (const NodeId l : locals) pipeline.add(1, l);
    pipeline.execute(FetchPipeline::Plan{});
    const auto owner = cluster->store(1)->snapshot(pin);
    for (const NodeId l : locals) {
      const VertexProp got = pipeline.row(1, pipeline.row_of(1, l));
      const VertexProp want = owner->vertex_prop(l);
      EXPECT_EQ(bits(got.nbr_global_ids), bits(want.nbr_global_ids))
          << "row " << l << " at " << pin;
      EXPECT_EQ(bits(got.edge_weights), bits(want.edge_weights))
          << "row " << l << " at " << pin;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.weighted_degree),
                std::bit_cast<std::uint32_t>(want.weighted_degree))
          << "row " << l << " at " << pin;
    }
    return pipeline.stats().rows_cached.load();
  };
  EXPECT_EQ(read_shard1(0), 0u);  // cold: every row crosses the wire
  EXPECT_EQ(read_shard1(0), locals.size());

  // First a write touching one probed row (an edge from it to a node of
  // shard 2 it does not neighbor yet), then the fixture's batches.
  const NodeId u = mapping.to_global(NodeRef{locals[3], 1});
  const auto u_nbrs = graph_.neighbors(u);
  NodeId v = 0;
  while (mapping.to_ref(v).shard != 2 ||
         std::find(u_nbrs.begin(), u_nbrs.end(), v) != u_nbrs.end()) {
    ++v;
  }
  std::vector<std::vector<EdgeMutationOp>> writes = {{{u, v, 1.5f, true}}};
  writes.insert(writes.end(), batches_.begin(), batches_.end());
  std::size_t touched_total = 0;
  for (const auto& write : writes) {
    const std::uint64_t invalidations = cache.version_invalidations.load();
    const std::uint64_t version = cluster->apply_edge_mutations(write);
    // Every op changes the rows of both its endpoints.
    std::set<NodeId> touched;
    for (const EdgeMutationOp& op : write) {
      for (const NodeId g : {op.u, op.v}) {
        const NodeRef ref = mapping.to_ref(g);
        if (ref.shard == 1 && ref.local < static_cast<NodeId>(locals.size())) {
          touched.insert(ref.local);
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "version " << version << ", "
                                      << touched.size() << " rows touched");
    EXPECT_EQ(read_shard1(version), locals.size() - touched.size());
    EXPECT_LE(cache.version_invalidations.load() - invalidations,
              touched.size());
    EXPECT_EQ(read_shard1(version), locals.size());
    touched_total += touched.size();
  }
  EXPECT_GT(touched_total, 1u);
}

// Readers on two machines of a halo plus 64-row-cache cluster, at the
// newest version and the one before it, while batches land and every
// shard compacts: each answer equals the frozen copy at its pin.
TEST_F(MutationFixture, ConcurrentHaloAndCacheReadersMatchFrozenCopy) {
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = kEps};
  const auto stream = mutation_stream(graph_, 10, 20, 0.6, 17);

  // Expected answers at every version from a halo-on copy that reads each
  // version while it is the newest.
  auto frozen = make_cluster(/*halo=*/true);
  const std::vector<NodeRef> sources = {pick_sources(*frozen, 0, 1)[0],
                                        pick_sources(*frozen, 1, 1)[0]};
  std::vector<std::vector<Entries>> want(stream.size() + 1);
  for (std::size_t v = 0; v <= stream.size(); ++v) {
    if (v > 0) frozen->apply_edge_mutations(stream[v - 1]);
    for (const NodeRef src : sources) {
      want[v].push_back(sorted_ppr(compute_ssppr(
          frozen->storage(src.shard), src, ppr, pinned_driver(v))));
    }
  }

  auto cluster = make_cluster(/*halo=*/true, /*cache_rows=*/64);
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    for (std::size_t b = 0; b < stream.size(); ++b) {
      cluster->apply_edge_mutations(stream[b]);
      if (b % 4 == 3) cluster->compact_all();
    }
    done.store(true, std::memory_order_release);
  });
  const auto read = [&](std::size_t q) {
    int rounds = 0;
    while (!done.load(std::memory_order_acquire) || rounds < 3) {
      const std::uint64_t latest = cluster->graph_version();
      for (const std::uint64_t pin : {latest, latest > 0 ? latest - 1 : 0}) {
        const SspprState got =
            compute_ssppr(cluster->storage(sources[q].shard), sources[q], ppr,
                          pinned_driver(pin));
        expect_identical(sorted_ppr(got), want[pin][q],
                         "pin " + std::to_string(pin));
      }
      ++rounds;
    }
  };
  std::thread reader([&] { read(1); });
  read(0);
  reader.join();
  mutator.join();
  EXPECT_EQ(cluster->graph_version(), stream.size());
  EXPECT_GT(cluster->total_adjacency_cache_hits(), 0u);
}

}  // namespace
}  // namespace ppr
