// Graph Shard: the per-machine storage unit of §3.2.
//
// After partitioning, each shard stores a CSR whose rows are its *core
// nodes* (the vertex set METIS assigned to it) and whose columns range
// over core ∪ 1-hop *halo* nodes. Every column endpoint is identified by
// a <local id, shard id> pair, never a global id, so traversal dispatches
// by shard id and indexes by local id directly. Each edge also carries the
// neighbor's *weighted degree* so Forward Push threshold checks
// (r(u) > ε·d_w(u)) never require a remote aggregate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace ppr {

using ShardId = std::int32_t;

/// Array encoding of the CSR-compressed neighbor response (§3.2.3
/// "Compress" decides *whether* to ship CSR; the codec decides *how*).
enum class WireCodec : std::uint8_t {
  /// Full-width length-prefixed arrays — the historic flat encoding.
  kFlat = 0,
  /// Row offsets shipped as per-row degree varints; neighbor global ids
  /// delta-encoded within each (sorted) row and LEB128-packed, local and
  /// shard ids varint-packed. Floats stay raw. Typically 35-60% smaller
  /// on the wire; decodes to bit-identical arrays.
  kDeltaVarint = 1,
};

inline const char* wire_codec_name(WireCodec c) {
  return c == WireCodec::kDeltaVarint ? "varint" : "flat";
}

/// Graph-version sentinel of option defaults: "read the newest published
/// version". Admission (DistGraphStorage::resolve_pin) turns it into a
/// concrete version — 0 on a never-mutated graph — so it never reaches
/// the wire, a cache or a snapshot pin. Distinct from the ROUTING epoch
/// (ShardMap): the routing epoch versions *placement*, the graph version
/// versions *data* (DESIGN.md §15 glossary).
inline constexpr std::uint64_t kVersionLatest = ~std::uint64_t{0};

/// Per-fetch wire options, next to the pre-existing `compress` knob. The
/// response frame self-describes its codec, so decoders never need these.
struct FetchOptions {
  /// CSR response (a few flat arrays) vs per-node tensor list (§3.2.3).
  bool compress = true;
  /// Array encoding of the CSR response; ignored for tensor lists.
  WireCodec codec = WireCodec::kFlat;
  /// When false the edge-weight / weighted-degree floats are dropped from
  /// the frame entirely (decoded as zeros) — for callers like BFS that
  /// only consume neighbor ids. Weightless rows are never fed into the
  /// adjacency cache (the cache must stay fit for weight-consuming
  /// queries).
  bool need_weights = true;
  /// Pinned graph version the response must be assembled at; the
  /// kVersionLatest default resolves to the newest published version
  /// when the request is issued.
  std::uint64_t graph_version = kVersionLatest;
};

/// A node reference: local id within a shard + the shard id.
struct NodeRef {
  NodeId local = 0;
  ShardId shard = 0;

  /// Pack into a 64-bit hashmap key (both components are non-negative, so
  /// the packed key can never collide with the map's kEmptyKey sentinel).
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(shard))
            << 32) |
           static_cast<std::uint32_t>(local);
  }
  static NodeRef from_key(std::uint64_t k) {
    return NodeRef{static_cast<NodeId>(k & 0xffffffffULL),
                   static_cast<ShardId>(k >> 32)};
  }
  bool operator==(const NodeRef&) const = default;
};

/// One row of an encodable row set: raw pointers + length + the source
/// node's weighted degree. The versioned store (versioned_shard.hpp) hands
/// merged base+delta rows to encode_rows_csr() through this view, so
/// mutated rows ship with the exact byte layout of the immutable CSR path.
struct RowPtrs {
  const NodeId* nbr_local = nullptr;
  const ShardId* nbr_shard = nullptr;
  const float* weights = nullptr;
  const float* nbr_dw = nullptr;
  const NodeId* nbr_global = nullptr;
  std::size_t len = 0;
  float src_dw = 0;
};

/// Zero-copy view of one core node's neighborhood inside a shard (or
/// inside a decoded remote response — the two share this API, which is
/// what makes the CSR-compressed response directly consumable).
struct VertexProp {
  std::span<const NodeId> nbr_local_ids;
  std::span<const ShardId> nbr_shard_ids;
  std::span<const float> edge_weights;
  std::span<const float> nbr_weighted_degrees;
  /// Original graph ids of the neighbors. Carried through every resolution
  /// path (shard, halo cache, adjacency cache, wire) so client-side
  /// samplers (random walk, k-hop) can emit global ids without a second
  /// lookup.
  std::span<const NodeId> nbr_global_ids;
  float weighted_degree = 0;  // d_w of the source node itself

  std::size_t degree() const { return nbr_local_ids.size(); }
};

/// Maps original graph node ids to <shard, local> and back. Built once
/// from the partition assignment; shared by all shards of a simulation.
class GlobalMapping {
 public:
  GlobalMapping() = default;
  GlobalMapping(const PartitionAssignment& assignment, int num_shards);

  int num_shards() const { return static_cast<int>(core_globals_.size()); }
  NodeId num_nodes() const { return static_cast<NodeId>(shard_of_.size()); }
  NodeRef to_ref(NodeId global) const {
    return NodeRef{local_of_[static_cast<std::size_t>(global)],
                   shard_of_[static_cast<std::size_t>(global)]};
  }
  NodeId to_global(NodeRef ref) const {
    return core_globals_[static_cast<std::size_t>(ref.shard)]
                        [static_cast<std::size_t>(ref.local)];
  }
  NodeId num_core_nodes(ShardId shard) const {
    return static_cast<NodeId>(
        core_globals_[static_cast<std::size_t>(shard)].size());
  }
  std::span<const NodeId> core_globals(ShardId shard) const {
    return core_globals_[static_cast<std::size_t>(shard)];
  }

 private:
  std::vector<ShardId> shard_of_;
  std::vector<NodeId> local_of_;
  std::vector<std::vector<NodeId>> core_globals_;
};

/// Immutable per-machine graph partition in the core/halo CSR layout.
class GraphShard {
 public:
  /// Build shard `shard_id` of `g` under `mapping`. With
  /// `cache_halo_adjacency`, the shard additionally stores the full
  /// neighbor rows of its 1-hop halo nodes — the "higher hop value"
  /// direction of §3.2.1: more memory, fewer remote fetches (every
  /// first-hop remote access of a query rooted in this shard becomes
  /// local).
  GraphShard(const Graph& g, const GlobalMapping& mapping, ShardId shard_id,
             bool cache_halo_adjacency = false);

  bool has_halo_cache() const { return halo_ != nullptr; }
  NodeId num_halo_rows() const;

  /// Neighborhood view of a cached halo node, or nullopt if `ref` is not
  /// in this shard's halo cache. `ref` must belong to another shard.
  std::optional<VertexProp> halo_vertex_prop(NodeRef ref) const;

  ShardId shard_id() const { return shard_id_; }
  NodeId num_core_nodes() const {
    return static_cast<NodeId>(indptr_.size() - 1);
  }
  EdgeIndex num_stored_edges() const {
    return static_cast<EdgeIndex>(nbr_local_ids_.size());
  }
  NodeId core_global_id(NodeId local) const {
    return core_global_ids_[static_cast<std::size_t>(local)];
  }
  float core_weighted_degree(NodeId local) const {
    return core_weighted_deg_[static_cast<std::size_t>(local)];
  }

  /// Zero-copy neighborhood view for one core node.
  VertexProp vertex_prop(NodeId local) const;

  /// Zero-copy views for a batch of core nodes (the shared-memory local
  /// fetch path: no serialization, no copies).
  std::vector<VertexProp> get_neighbor_infos(
      std::span<const NodeId> locals) const;

  /// Serialize neighbor info for `locals` as one CSR-compressed response:
  /// a self-describing frame of either full-width flat arrays or the
  /// delta-varint packing, per `options.codec` (the "+Compress" wire
  /// format of §3.2.3; see DESIGN.md §10 for the frame layout).
  void encode_neighbor_infos_csr(std::span<const NodeId> locals,
                                 ByteWriter& w,
                                 const FetchOptions& options = {}) const;

  /// Serialize the same data as a list of per-node tensor-wrapped arrays
  /// (4 small tensors per source node) — the uncompressed baseline format.
  void encode_neighbor_infos_tensor_list(std::span<const NodeId> locals,
                                         ByteWriter& w) const;

  /// Raw array access (used by shard IO and tests).
  const std::vector<EdgeIndex>& indptr() const { return indptr_; }
  const std::vector<NodeId>& nbr_local_ids() const { return nbr_local_ids_; }
  const std::vector<ShardId>& nbr_shard_ids() const { return nbr_shard_ids_; }
  const std::vector<float>& edge_weights() const { return edge_weights_; }
  const std::vector<float>& nbr_weighted_degrees() const {
    return nbr_weighted_deg_;
  }

  /// Approximate resident bytes of the shard arrays.
  std::size_t memory_bytes() const;

  /// Full-state serialization for live migration (DESIGN.md §13): every
  /// CSR array plus the halo-adjacency cache, bit-exactly. deserialize()
  /// reconstructs a shard that answers every query identically to the
  /// original — the property the migration bit-identity tests pin down.
  void serialize(ByteWriter& w) const;
  static std::shared_ptr<GraphShard> deserialize(ByteReader& r);

 private:
  GraphShard() = default;  // deserialize() fills every field

  /// Pointer view of one core row (feeds the shared row-set encoders).
  RowPtrs row_ptrs(NodeId local) const;

  // Compaction (versioned_shard.cpp) materializes a fresh base CSR from
  // merged base+delta rows through the private default ctor.
  friend class VersionedShardStore;

  ShardId shard_id_ = 0;
  std::vector<EdgeIndex> indptr_;          // per core node
  std::vector<NodeId> core_global_ids_;    // local -> original global id
  std::vector<float> core_weighted_deg_;   // d_w of each core node
  // Per-edge arrays (the five arrays of §3.2.2, plus neighbor global ids
  // to support random-walk summaries).
  std::vector<NodeId> nbr_local_ids_;
  std::vector<ShardId> nbr_shard_ids_;
  std::vector<float> edge_weights_;
  std::vector<float> nbr_weighted_deg_;
  std::vector<NodeId> nbr_global_ids_;

  // Optional halo-adjacency cache: one CSR row per 1-hop halo node,
  // indexed by packed NodeRef key. Immutable, so every base a versioned
  // store compacts from this one shares it (null = no halo cache).
  struct HaloRows;
  std::shared_ptr<const HaloRows> halo_;
};

/// Encode an arbitrary row set (e.g. snapshot-merged base+delta rows) as a
/// CSR-compressed response. Shares the exact encoder the GraphShard member
/// functions use, so a clean row and a merged row with the same contents
/// produce the same bytes.
void encode_rows_csr(std::span<const RowPtrs> rows, ByteWriter& w,
                     const FetchOptions& options = {});

/// Tensor-list counterpart of encode_rows_csr().
void encode_rows_tensor_list(std::span<const RowPtrs> rows, ByteWriter& w);

/// Decoded remote neighbor-info response. Owns its arrays; exposes the
/// same VertexProp views as GraphShard so the push operator consumes local
/// and remote data identically.
class NeighborBatch {
 public:
  NeighborBatch() = default;

  /// Decode a CSR-compressed response of either codec (the frame's tag
  /// byte says which). Malformed frames — truncated sections, overlong
  /// varints, inconsistent offsets, out-of-range ids — are rejected with
  /// GE_REQUIRE, never undefined behaviour.
  static NeighborBatch decode_csr(ByteReader& r);
  /// Same, decoding into `out` so its vectors' capacity is reused —
  /// steady-state rounds of the fetch pipeline decode with zero
  /// allocations once warm.
  static void decode_csr_into(ByteReader& r, NeighborBatch& out);
  /// Decode a tensor-list response for `num_nodes` source nodes.
  static NeighborBatch decode_tensor_list(ByteReader& r);

  std::size_t size() const { return src_weighted_deg_.size(); }
  VertexProp operator[](std::size_t i) const;

  /// False when the frame was encoded with need_weights off: the weight /
  /// degree arrays are zero-filled placeholders and the rows must not be
  /// fed into the adjacency cache.
  bool has_weights() const { return has_weights_; }

 private:
  std::vector<EdgeIndex> indptr_;
  std::vector<NodeId> nbr_local_ids_;
  std::vector<ShardId> nbr_shard_ids_;
  std::vector<float> edge_weights_;
  std::vector<float> nbr_weighted_deg_;
  std::vector<NodeId> nbr_global_ids_;
  std::vector<float> src_weighted_deg_;
  bool has_weights_ = true;
};

/// Build every shard of `g` for `num_shards` partitions.
/// Convenience used by the cluster bootstrap and tests.
struct ShardedGraph {
  GlobalMapping mapping;
  std::vector<std::shared_ptr<const GraphShard>> shards;
};
ShardedGraph build_sharded_graph(const Graph& g,
                                 const PartitionAssignment& assignment,
                                 int num_shards,
                                 bool cache_halo_adjacency = false);

}  // namespace ppr
