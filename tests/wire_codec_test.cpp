// Wire-codec property tests: random CSR payloads must round-trip
// bit-identically through both the flat and the delta-varint codec, the
// two codecs must decode to equal arrays, malformed frames must be
// rejected with typed errors (never undefined behaviour), and the pooled
// zero-copy path must stop allocating once warm. tools/check.sh also runs
// this binary under ASan/UBSan with the tensor-marshal cost model enabled
// via GE_TENSOR_MARSHAL_US (see the env hook below).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "rpc/buffer_pool.hpp"
#include "rpc/message.hpp"
#include "storage/shard.hpp"
#include "storage/storage_service.hpp"

namespace ppr {
namespace {

// check.sh exercises the varint decoder with the marshal-overhead model
// on; the env hook lets it do that without a dedicated flag plumbed
// through gtest.
const bool kMarshalEnvApplied = [] {
  if (const char* us = std::getenv("GE_TENSOR_MARSHAL_US")) {
    set_tensor_marshal_overhead_us(std::atof(us));
  }
  return true;
}();

TEST(VarintTest, UvarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63),
                                  ~0ull};
  for (const std::uint64_t v : values) {
    ByteWriter w;
    w.write_uvarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.read_uvarint(), v);
    EXPECT_TRUE(r.done());
  }
  // LEB128 length spot checks.
  ByteWriter w;
  w.write_uvarint(127);
  EXPECT_EQ(w.size(), 1u);
  w.write_uvarint(128);
  EXPECT_EQ(w.size(), 3u);
  w.write_uvarint(~0ull);
  EXPECT_EQ(w.size(), 3u + kMaxVarintBytes);
}

TEST(VarintTest, SvarintRoundTripsSignedValues) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    ByteWriter w;
    w.write_svarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.read_svarint(), v);
  }
  // Small magnitudes of either sign stay 1 byte (the zigzag property the
  // delta encoding relies on).
  ByteWriter w;
  w.write_svarint(-3);
  w.write_svarint(3);
  EXPECT_EQ(w.size(), 2u);
}

TEST(VarintTest, RejectsTruncatedAndOverlongVarints) {
  // Truncated: every byte says "more follows", then the buffer ends.
  const std::uint8_t truncated[] = {0x80, 0x80};
  ByteReader r1({truncated, sizeof(truncated)});
  EXPECT_THROW((void)r1.read_uvarint(), InvalidArgument);

  // 10th byte may only carry the top bit of the 64-bit value.
  std::vector<std::uint8_t> overflow(kMaxVarintBytes - 1, 0x80);
  overflow.push_back(0x02);
  ByteReader r2(overflow);
  EXPECT_THROW((void)r2.read_uvarint(), InvalidArgument);

  // An 11-byte varint (10 continuation bytes) can never be valid.
  std::vector<std::uint8_t> overlong(kMaxVarintBytes, 0x80);
  overlong.push_back(0x01);
  ByteReader r3(overlong);
  EXPECT_THROW((void)r3.read_uvarint(), InvalidArgument);
}

/// Shards used by the codec property tests: a skewed random graph and a
/// crafted pathological one (max-degree hub star + a tail of dangling
/// nodes), both cut three ways.
class WireCodecFixture : public ::testing::Test {
 protected:
  static ShardedGraph make_random() {
    const Graph g = generate_rmat(400, 1800, 0.55, 0.2, 0.15, 2024);
    return build_sharded_graph(g, partition_multilevel(g, 3), 3);
  }

  static ShardedGraph make_pathological() {
    std::vector<WeightedEdge> edges;
    // Star: node 0 adjacent to 1..39 (degree 39 after mirroring), with
    // varied weights; nodes 40..49 stay dangling (degree-0 rows).
    for (NodeId i = 1; i < 40; ++i) {
      edges.push_back({0, i, 0.5f + 0.25f * static_cast<float>(i)});
    }
    const Graph g = Graph::from_edges(50, edges, /*make_undirected=*/true);
    return build_sharded_graph(g, partition_multilevel(g, 3), 3);
  }

  /// Random request list over the shard's core nodes: ragged coverage,
  /// duplicates, and (when present) dangling rows.
  static std::vector<NodeId> random_locals(const GraphShard& shard,
                                           std::mt19937& rng,
                                           std::size_t count) {
    std::uniform_int_distribution<NodeId> pick(0, shard.num_core_nodes() - 1);
    std::vector<NodeId> locals(count);
    for (auto& l : locals) l = pick(rng);
    return locals;
  }

  static void expect_batch_matches_shard(const NeighborBatch& batch,
                                         const GraphShard& shard,
                                         std::span<const NodeId> locals,
                                         bool expect_weights) {
    ASSERT_EQ(batch.size(), locals.size());
    EXPECT_EQ(batch.has_weights(), expect_weights);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const VertexProp want = shard.vertex_prop(locals[i]);
      const VertexProp got = batch[i];
      ASSERT_EQ(got.degree(), want.degree()) << "row " << i;
      for (std::size_t k = 0; k < want.degree(); ++k) {
        EXPECT_EQ(got.nbr_local_ids[k], want.nbr_local_ids[k]);
        EXPECT_EQ(got.nbr_shard_ids[k], want.nbr_shard_ids[k]);
        EXPECT_EQ(got.nbr_global_ids[k], want.nbr_global_ids[k]);
        if (expect_weights) {
          // Floats ship raw, so bit-identity (plain ==) is the contract.
          EXPECT_EQ(got.edge_weights[k], want.edge_weights[k]);
          EXPECT_EQ(got.nbr_weighted_degrees[k], want.nbr_weighted_degrees[k]);
        } else {
          EXPECT_EQ(got.edge_weights[k], 0.0f);
          EXPECT_EQ(got.nbr_weighted_degrees[k], 0.0f);
        }
      }
      EXPECT_EQ(got.weighted_degree,
                expect_weights ? want.weighted_degree : 0.0f);
    }
  }
};

TEST_F(WireCodecFixture, RandomCsrPayloadsRoundTripThroughBothCodecs) {
  std::mt19937 rng(7);
  for (const ShardedGraph& sg : {make_random(), make_pathological()}) {
    for (const auto& shard : sg.shards) {
      for (const std::size_t count : {std::size_t{1}, std::size_t{17},
                                      std::size_t{64}}) {
        const auto locals = random_locals(*shard, rng, count);
        for (const WireCodec codec :
             {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
          for (const bool need_weights : {true, false}) {
            ByteWriter w;
            shard->encode_neighbor_infos_csr(
                locals, w, FetchOptions{true, codec, need_weights});
            ByteReader r(w.bytes());
            const NeighborBatch batch = NeighborBatch::decode_csr(r);
            EXPECT_TRUE(r.done());
            expect_batch_matches_shard(batch, *shard, locals, need_weights);
          }
        }
      }
    }
  }
}

TEST_F(WireCodecFixture, EmptyRequestRoundTripsUnderBothCodecs) {
  const ShardedGraph sg = make_pathological();
  for (const WireCodec codec : {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
    ByteWriter w;
    sg.shards[0]->encode_neighbor_infos_csr(
        {}, w, FetchOptions{true, codec, true});
    ByteReader r(w.bytes());
    const NeighborBatch batch = NeighborBatch::decode_csr(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(batch.size(), 0u);
  }
}

TEST_F(WireCodecFixture, CodecsDecodeToIdenticalArrays) {
  std::mt19937 rng(11);
  const ShardedGraph sg = make_random();
  const auto& shard = *sg.shards[1];
  const auto locals = random_locals(shard, rng, 48);

  ByteWriter flat_w;
  shard.encode_neighbor_infos_csr(locals, flat_w,
                                  FetchOptions{true, WireCodec::kFlat, true});
  ByteWriter var_w;
  shard.encode_neighbor_infos_csr(
      locals, var_w, FetchOptions{true, WireCodec::kDeltaVarint, true});

  ByteReader fr(flat_w.bytes());
  ByteReader vr(var_w.bytes());
  const NeighborBatch flat = NeighborBatch::decode_csr(fr);
  const NeighborBatch varint = NeighborBatch::decode_csr(vr);
  ASSERT_EQ(flat.size(), varint.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const VertexProp a = flat[i];
    const VertexProp b = varint[i];
    ASSERT_EQ(a.degree(), b.degree());
    EXPECT_EQ(a.weighted_degree, b.weighted_degree);
    for (std::size_t k = 0; k < a.degree(); ++k) {
      EXPECT_EQ(a.nbr_local_ids[k], b.nbr_local_ids[k]);
      EXPECT_EQ(a.nbr_shard_ids[k], b.nbr_shard_ids[k]);
      EXPECT_EQ(a.nbr_global_ids[k], b.nbr_global_ids[k]);
      EXPECT_EQ(a.edge_weights[k], b.edge_weights[k]);
      EXPECT_EQ(a.nbr_weighted_degrees[k], b.nbr_weighted_degrees[k]);
    }
  }
}

TEST_F(WireCodecFixture, VarintFramesAreSmallerOnTheWire) {
  std::mt19937 rng(3);
  const ShardedGraph sg = make_random();
  const auto& shard = *sg.shards[0];
  const auto locals = random_locals(shard, rng, 64);
  ByteWriter flat_w, var_w;
  shard.encode_neighbor_infos_csr(locals, flat_w,
                                  FetchOptions{true, WireCodec::kFlat, true});
  shard.encode_neighbor_infos_csr(
      locals, var_w, FetchOptions{true, WireCodec::kDeltaVarint, true});
  EXPECT_LT(var_w.size(), flat_w.size());
  // Dropping the floats must shrink the frame further.
  ByteWriter bare_w;
  shard.encode_neighbor_infos_csr(
      locals, bare_w, FetchOptions{true, WireCodec::kDeltaVarint, false});
  EXPECT_LT(bare_w.size(), var_w.size());
}

TEST_F(WireCodecFixture, TensorListAndCsrAgreeUnderMarshalModel) {
  // Exercises write_tensor/read_tensor (and their pay_tensor_marshal
  // hooks, live when GE_TENSOR_MARSHAL_US is exported) against the codec
  // paths.
  (void)kMarshalEnvApplied;
  std::mt19937 rng(5);
  const ShardedGraph sg = make_random();
  const auto& shard = *sg.shards[2];
  const auto locals = random_locals(shard, rng, 20);
  ByteWriter tensor_w;
  shard.encode_neighbor_infos_tensor_list(locals, tensor_w);
  ByteReader tr(tensor_w.bytes());
  const NeighborBatch tensor = NeighborBatch::decode_tensor_list(tr);
  expect_batch_matches_shard(tensor, shard, locals, /*expect_weights=*/true);
}

TEST_F(WireCodecFixture, DecodeRejectsTruncatedFrames) {
  std::mt19937 rng(13);
  const ShardedGraph sg = make_random();
  const auto& shard = *sg.shards[0];
  const auto locals = random_locals(shard, rng, 24);
  for (const WireCodec codec : {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
    ByteWriter w;
    shard.encode_neighbor_infos_csr(locals, w,
                                    FetchOptions{true, codec, true});
    const std::vector<std::uint8_t>& frame = w.bytes();
    // Every strict prefix must be rejected with a typed error — never
    // UB, never a partial batch (fuzz-style cut sweep; step keeps the
    // sweep fast on large frames while still covering every section).
    const std::size_t step = std::max<std::size_t>(1, frame.size() / 97);
    for (std::size_t cut = 0; cut < frame.size(); cut += step) {
      ByteReader r(std::span<const std::uint8_t>(frame.data(), cut));
      EXPECT_THROW((void)NeighborBatch::decode_csr(r), EngineError)
          << wire_codec_name(codec) << " prefix " << cut;
    }
  }
}

TEST_F(WireCodecFixture, DecodeRejectsHostileFrames) {
  // Unknown codec tag.
  {
    ByteWriter w;
    w.write<std::uint8_t>(0x7f);
    w.write<std::uint8_t>(1);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Row-count bomb: claims 2^40 rows in a 20-byte frame.
  {
    ByteWriter w;
    w.write<std::uint8_t>(1);
    w.write<std::uint8_t>(1);
    w.write_uvarint(1ull << 40);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Degree bomb: one row claiming 2^40 edges.
  {
    ByteWriter w;
    w.write<std::uint8_t>(1);
    w.write<std::uint8_t>(1);
    w.write_uvarint(1);
    w.write_uvarint(1ull << 40);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Negative neighbor global id (delta walks below zero).
  {
    ByteWriter w;
    w.write<std::uint8_t>(1);
    w.write<std::uint8_t>(0);
    w.write_uvarint(1);   // one row
    w.write_uvarint(1);   // degree 1
    w.write_svarint(-5);  // global id -5
    w.write_uvarint(0);   // local id
    w.write_uvarint(0);   // shard id
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Overlong varint inside the id section.
  {
    ByteWriter w;
    w.write<std::uint8_t>(1);
    w.write<std::uint8_t>(0);
    w.write_uvarint(1);
    w.write_uvarint(1);
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      w.write<std::uint8_t>(0x80);
    }
    w.write<std::uint8_t>(0x01);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Storage request header: every strict prefix of the 20-byte header is
  // rejected as InvalidArgument before any field is read.
  {
    ByteWriter w;
    write_storage_header(w, 1, 9, 42);
    const std::vector<std::uint8_t>& frame = w.bytes();
    ASSERT_EQ(frame.size(), kStorageHeaderBytes);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      ByteReader r(std::span<const std::uint8_t>(frame.data(), cut));
      EXPECT_THROW((void)read_storage_header(r), InvalidArgument)
          << "header prefix " << cut;
    }
  }
  // Flat frame whose indptr is non-monotone.
  {
    ByteWriter w;
    w.write<std::uint8_t>(0);
    w.write<std::uint8_t>(0);
    w.write_vec(std::vector<EdgeIndex>{0, 2, 1});
    w.write_vec(std::vector<NodeId>{0});
    w.write_vec(std::vector<ShardId>{0});
    w.write_vec(std::vector<NodeId>{0});
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_csr(r), InvalidArgument);
  }
  // Shard snapshots (what an adopting machine decodes): a core offset past
  // the edges or below zero, and a halo row index past the halo rows.
  {
    const Graph g = generate_rmat(400, 1800, 0.55, 0.2, 0.15, 2024);
    const ShardedGraph sg =
        build_sharded_graph(g, partition_multilevel(g, 3), 3, true);
    const GraphShard& shard = *sg.shards[0];
    ByteWriter w;
    shard.serialize(w);
    const std::vector<std::uint8_t> good = w.bytes();
    // Walk the layout to the two fields the corruptions overwrite.
    ByteReader walk(good);
    const auto offset = [&] { return good.size() - walk.remaining(); };
    (void)walk.read<std::uint8_t>();
    (void)walk.read<std::int32_t>();
    const std::size_t indptr1 = offset() + 2 * sizeof(std::uint64_t);
    (void)walk.read_vec<EdgeIndex>();
    (void)walk.read_vec<NodeId>();
    (void)walk.read_vec<float>();
    (void)walk.read_vec<NodeId>();
    (void)walk.read_vec<ShardId>();
    (void)walk.read_vec<float>();
    (void)walk.read_vec<float>();
    (void)walk.read_vec<NodeId>();
    ASSERT_EQ(walk.read<std::uint8_t>(), 1) << "halo cache shipped";
    const auto halo_rows = walk.read<std::uint64_t>();
    ASSERT_GT(halo_rows, 0u);
    const std::size_t first_halo_row = offset() + sizeof(std::uint64_t);

    const auto decode_with = [&](std::size_t at, auto value) {
      std::vector<std::uint8_t> bad = good;
      std::memcpy(bad.data() + at, &value, sizeof(value));
      ByteReader r(bad);
      return GraphShard::deserialize(r);
    };
    ASSERT_EQ(decode_with(indptr1, static_cast<EdgeIndex>(
                                       shard.vertex_prop(0).degree()))
                  ->num_stored_edges(),
              shard.num_stored_edges());  // the walk found indptr[1]
    EXPECT_THROW(
        (void)decode_with(indptr1, shard.num_stored_edges() + 100000),
        InvalidArgument);
    EXPECT_THROW((void)decode_with(indptr1, EdgeIndex{-5}), InvalidArgument);
    EXPECT_THROW((void)decode_with(first_halo_row, std::uint32_t{1000000}),
                 InvalidArgument);
  }
  // Tensor-list responses (the Single and +Batch rungs' uncompressed
  // format): a row count the payload cannot hold is rejected before
  // anything is reserved for it, and a ragged row as malformed input.
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 40,
                                    ~std::uint64_t{0}}) {
    ByteWriter w;
    w.write<std::uint64_t>(count);
    w.write<float>(1.0f);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_tensor_list(r), InvalidArgument)
        << "count " << count;
  }
  {
    ByteWriter w;
    w.write<std::uint64_t>(1);
    w.write<float>(1.0f);
    w.write_tensor(std::vector<NodeId>{1, 2});
    w.write_tensor(std::vector<ShardId>{0, 0});
    w.write_tensor(std::vector<float>{1.0f});  // one weight for two edges
    w.write_tensor(std::vector<float>{1.0f, 1.0f});
    w.write_tensor(std::vector<NodeId>{1, 2});
    ByteReader r(w.bytes());
    EXPECT_THROW((void)NeighborBatch::decode_tensor_list(r), InvalidArgument);
  }
  // A frame that ends inside its last tensor's alignment padding is
  // truncated: the reader must not step past the end of the buffer.
  {
    ByteWriter w;
    w.write<std::uint64_t>(1);
    w.write<float>(1.0f);
    w.write_tensor(std::vector<NodeId>{1});
    w.write_tensor(std::vector<ShardId>{0});
    w.write_tensor(std::vector<float>{1.0f});
    w.write_tensor(std::vector<float>{1.0f});
    w.write_tensor(std::vector<NodeId>{1});  // 4 bytes + 12 of padding
    const std::vector<std::uint8_t>& frame = w.bytes();
    ByteReader whole(frame);
    EXPECT_EQ(NeighborBatch::decode_tensor_list(whole).size(), 1u);
    EXPECT_TRUE(whole.done());
    for (const std::size_t cut : {1, 6, 12}) {
      ByteReader r(std::span<const std::uint8_t>(frame).first(frame.size() -
                                                              cut));
      EXPECT_THROW((void)NeighborBatch::decode_tensor_list(r),
                   InvalidArgument)
          << "cut " << cut;
    }
  }
}

TEST(BufferPoolTest, RecyclesReleasedBuffers) {
  BufferPool pool(4);
  auto a = pool.acquire(100);
  EXPECT_EQ(pool.stats().created, 1u);
  a.resize(60);
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle_buffers(), 1u);
  auto b = pool.acquire(50);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().created, 1u);
  EXPECT_TRUE(b.empty()) << "recycled buffers must come back cleared";
  EXPECT_GE(b.capacity(), 100u) << "recycled capacity must be kept";
  pool.release(std::move(b));
}

TEST(BufferPoolTest, GrowsAndDropsAtTheEdges) {
  BufferPool pool(1);
  auto a = pool.acquire(16);
  auto b = pool.acquire(16);
  pool.release(std::move(a));
  pool.release(std::move(b));  // beyond max_pooled: dropped
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.idle_buffers(), 1u);
  // Reuse with a bigger reservation counts as a grow, not a create.
  auto c = pool.acquire(1 << 20);
  EXPECT_EQ(pool.stats().grown, 1u);
  EXPECT_EQ(pool.stats().created, 2u);
  EXPECT_EQ(pool.stats().allocations(), 3u);
  // Capacity-less releases are dropped rather than pooled.
  pool.release(std::vector<std::uint8_t>{});
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(FrameViewTest, MatchesFlatEncodeByteForByte) {
  Message msg;
  msg.call_id = 42;
  msg.kind = MessageKind::kRequest;
  msg.src_machine = 1;
  msg.dst_machine = 2;
  msg.service = "storage";
  msg.method = "get_neighbor_infos";
  msg.payload = {1, 2, 3, 4, 5, 6, 7};

  const std::vector<std::uint8_t> flat = msg.encode();
  FrameView view = msg.encode_view();
  ASSERT_EQ(view.wire_size(), flat.size());
  EXPECT_EQ(msg.wire_size(), flat.size());
  std::vector<std::uint8_t> glued = view.header;
  glued.insert(glued.end(), view.payload.begin(), view.payload.end());
  EXPECT_EQ(glued, flat);

  std::uint64_t payload_len = 0;
  const Message header = Message::decode_header(view.header, &payload_len);
  EXPECT_EQ(payload_len, msg.payload.size());
  EXPECT_EQ(header.call_id, msg.call_id);
  EXPECT_EQ(header.service, msg.service);
  EXPECT_EQ(header.method, msg.method);
  BufferPool::global().release(std::move(view.header));

  const Message round = Message::decode(flat);
  EXPECT_EQ(round.payload, msg.payload);
}

TEST(ZeroAllocTest, SteadyStateFetchPathStopsAllocatingBuffers) {
  const Graph g = generate_rmat(500, 2400, 0.5, 0.2, 0.2, 31);
  ClusterOptions opts;
  opts.num_machines = 3;
  opts.network = no_network_cost();
  Cluster cluster(g, partition_multilevel(g, 3), opts);

  const SspprOptions ppr{.alpha = 0.462, .epsilon = 1e-5};
  const DriverOptions driver = DriverOptions::varint();
  const NodeRef src = cluster.locate(5);
  const auto run = [&] {
    (void)compute_ssppr(cluster.storage(src.shard), src, ppr, driver);
  };
  // The fetch path holds at most three pooled buffers per in-flight RPC —
  // the client's master request, the copy the server consumes, and the
  // server's reply — and the driver keeps at most one RPC per remote
  // shard in flight. The server recycles the request before it replies,
  // so nothing is left in flight once a query returns; only how close a
  // warm-up run comes to that peak depends on thread timing. Seed the
  // pool to the peak, so the runs below must find every buffer there.
  {
    std::vector<std::vector<std::uint8_t>> seed;
    for (int i = 0; i < 3 * (opts.num_machines - 1); ++i) {
      seed.push_back(BufferPool::global().acquire(64));
    }
    for (auto& buf : seed) BufferPool::global().release(std::move(buf));
  }
  for (int i = 0; i < 3; ++i) run();  // warm the pool

  const BufferPoolStats& stats = BufferPool::global().stats();
  const std::uint64_t allocations = stats.allocations();
  const std::uint64_t before_acquired = stats.acquired;
  for (int i = 0; i < 5; ++i) run();
  EXPECT_GT(stats.acquired, before_acquired)
      << "the pooled path must actually be exercised";
  EXPECT_EQ(stats.allocations(), allocations)
      << "steady-state RPC buffers must come from the pool, not malloc";
}

}  // namespace
}  // namespace ppr
