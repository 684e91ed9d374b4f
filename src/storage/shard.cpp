#include "storage/shard.hpp"

#include <algorithm>
#include <limits>

#include "common/simd.hpp"
#include "concurrent/flat_map.hpp"

namespace ppr {

GlobalMapping::GlobalMapping(const PartitionAssignment& assignment,
                             int num_shards) {
  const auto n = assignment.size();
  shard_of_.resize(n);
  local_of_.resize(n);
  core_globals_.resize(static_cast<std::size_t>(num_shards));
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t p = assignment[v];
    GE_REQUIRE(p >= 0 && p < num_shards, "partition id out of range");
    shard_of_[v] = p;
    local_of_[v] =
        static_cast<NodeId>(core_globals_[static_cast<std::size_t>(p)].size());
    core_globals_[static_cast<std::size_t>(p)].push_back(
        static_cast<NodeId>(v));
  }
}

struct GraphShard::HaloRows {
  FlatMap<std::uint32_t> row_of;
  std::vector<EdgeIndex> indptr;
  std::vector<float> weighted_deg;
  std::vector<NodeId> nbr_local_ids;
  std::vector<ShardId> nbr_shard_ids;
  std::vector<float> edge_weights;
  std::vector<float> nbr_weighted_deg;
  std::vector<NodeId> nbr_global_ids;

  std::size_t memory_bytes() const {
    return indptr.size() * sizeof(EdgeIndex) +
           weighted_deg.size() * sizeof(float) +
           nbr_local_ids.size() * (3 * sizeof(NodeId) + 2 * sizeof(float)) +
           row_of.capacity() * (sizeof(std::uint64_t) + sizeof(int));
  }
};

GraphShard::GraphShard(const Graph& g, const GlobalMapping& mapping,
                       ShardId shard_id, bool cache_halo_adjacency)
    : shard_id_(shard_id) {
  const auto cores = mapping.core_globals(shard_id);
  const NodeId num_core = static_cast<NodeId>(cores.size());
  core_global_ids_.assign(cores.begin(), cores.end());
  indptr_.assign(static_cast<std::size_t>(num_core) + 1, 0);
  core_weighted_deg_.resize(static_cast<std::size_t>(num_core));

  EdgeIndex total = 0;
  for (NodeId l = 0; l < num_core; ++l) {
    total += g.degree(cores[static_cast<std::size_t>(l)]);
  }
  nbr_local_ids_.reserve(static_cast<std::size_t>(total));
  nbr_shard_ids_.reserve(static_cast<std::size_t>(total));
  edge_weights_.reserve(static_cast<std::size_t>(total));
  nbr_weighted_deg_.reserve(static_cast<std::size_t>(total));
  nbr_global_ids_.reserve(static_cast<std::size_t>(total));

  for (NodeId l = 0; l < num_core; ++l) {
    const NodeId v = cores[static_cast<std::size_t>(l)];
    core_weighted_deg_[static_cast<std::size_t>(l)] = g.weighted_degree(v);
    const auto nbrs = g.neighbors(v);
    const auto weights = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId u = nbrs[k];
      const NodeRef ref = mapping.to_ref(u);
      nbr_local_ids_.push_back(ref.local);
      nbr_shard_ids_.push_back(ref.shard);
      edge_weights_.push_back(weights[k]);
      nbr_weighted_deg_.push_back(g.weighted_degree(u));
      nbr_global_ids_.push_back(u);
    }
    indptr_[static_cast<std::size_t>(l) + 1] =
        indptr_[static_cast<std::size_t>(l)] +
        static_cast<EdgeIndex>(nbrs.size());
  }

  if (!cache_halo_adjacency) return;
  // Collect the 1-hop halo set (foreign endpoints of core rows) and copy
  // each halo node's full neighbor row so first-hop remote fetches of
  // queries rooted here can be served from shared memory.
  auto halo = std::make_shared<HaloRows>();
  halo->indptr.push_back(0);
  for (std::size_t e = 0; e < nbr_local_ids_.size(); ++e) {
    if (nbr_shard_ids_[e] == shard_id_) continue;
    const NodeRef ref{nbr_local_ids_[e], nbr_shard_ids_[e]};
    if (halo->row_of.contains(ref.key())) continue;
    halo->row_of[ref.key()] =
        static_cast<std::uint32_t>(halo->indptr.size() - 1);
    const NodeId hv = mapping.to_global(ref);
    halo->weighted_deg.push_back(g.weighted_degree(hv));
    const auto hnbrs = g.neighbors(hv);
    const auto hws = g.edge_weights(hv);
    for (std::size_t k = 0; k < hnbrs.size(); ++k) {
      const NodeRef href = mapping.to_ref(hnbrs[k]);
      halo->nbr_local_ids.push_back(href.local);
      halo->nbr_shard_ids.push_back(href.shard);
      halo->edge_weights.push_back(hws[k]);
      halo->nbr_weighted_deg.push_back(g.weighted_degree(hnbrs[k]));
      halo->nbr_global_ids.push_back(hnbrs[k]);
    }
    halo->indptr.push_back(static_cast<EdgeIndex>(halo->nbr_local_ids.size()));
  }
  halo_ = std::move(halo);
}

NodeId GraphShard::num_halo_rows() const {
  return halo_ ? static_cast<NodeId>(halo_->row_of.size()) : 0;
}

std::optional<VertexProp> GraphShard::halo_vertex_prop(NodeRef ref) const {
  if (!halo_) return std::nullopt;
  const HaloRows& h = *halo_;
  const std::uint32_t* row = h.row_of.find(ref.key());
  if (row == nullptr) return std::nullopt;
  const auto lo = static_cast<std::size_t>(h.indptr[*row]);
  const auto hi = static_cast<std::size_t>(h.indptr[*row + 1]);
  return VertexProp{
      {h.nbr_local_ids.data() + lo, h.nbr_local_ids.data() + hi},
      {h.nbr_shard_ids.data() + lo, h.nbr_shard_ids.data() + hi},
      {h.edge_weights.data() + lo, h.edge_weights.data() + hi},
      {h.nbr_weighted_deg.data() + lo, h.nbr_weighted_deg.data() + hi},
      {h.nbr_global_ids.data() + lo, h.nbr_global_ids.data() + hi},
      h.weighted_deg[*row]};
}

VertexProp GraphShard::vertex_prop(NodeId local) const {
  GE_REQUIRE(local >= 0 && local < num_core_nodes(),
             "local id out of range for shard");
  const auto lo = static_cast<std::size_t>(
      indptr_[static_cast<std::size_t>(local)]);
  const auto hi = static_cast<std::size_t>(
      indptr_[static_cast<std::size_t>(local) + 1]);
  return VertexProp{
      {nbr_local_ids_.data() + lo, nbr_local_ids_.data() + hi},
      {nbr_shard_ids_.data() + lo, nbr_shard_ids_.data() + hi},
      {edge_weights_.data() + lo, edge_weights_.data() + hi},
      {nbr_weighted_deg_.data() + lo, nbr_weighted_deg_.data() + hi},
      {nbr_global_ids_.data() + lo, nbr_global_ids_.data() + hi},
      core_weighted_deg_[static_cast<std::size_t>(local)]};
}

std::vector<VertexProp> GraphShard::get_neighbor_infos(
    std::span<const NodeId> locals) const {
  std::vector<VertexProp> props;
  props.reserve(locals.size());
  for (const NodeId l : locals) props.push_back(vertex_prop(l));
  return props;
}

namespace {
/// CSR frame preamble: codec tag, then a flags byte (bit0 = the weight /
/// degree float sections are present). See DESIGN.md §10.
constexpr std::uint8_t kCsrHasWeightsFlag = 0x01;

/// Shared CSR encoder over any RowPtrs accessor. The GraphShard member
/// encoder (rows point into the shard arrays) and the free-function row-set
/// encoder (rows point into snapshot-merged scratch) both stream through
/// this one implementation, so clean and merged rows with the same contents
/// produce the same bytes.
template <typename RowOf>
void encode_csr_impl(std::size_t n, const RowOf& rowof, ByteWriter& w,
                     const FetchOptions& options) {
  w.write<std::uint8_t>(static_cast<std::uint8_t>(options.codec));
  w.write<std::uint8_t>(options.need_weights ? kCsrHasWeightsFlag : 0);

  if (options.codec == WireCodec::kDeltaVarint) {
    // Scatter-gather straight off the row views: each section streams
    // row by row with no intermediate gather buffers.
    w.write_uvarint(n);
    // Row offsets as per-row degrees (the varint delta of indptr).
    for (std::size_t i = 0; i < n; ++i) {
      w.write_uvarint(rowof(i).len);
    }
    // Neighbor global ids: delta within the row (neighbor lists are
    // sorted, so deltas are small positive varints; zigzag keeps any
    // unsorted row correct too).
    for (std::size_t i = 0; i < n; ++i) {
      const RowPtrs row = rowof(i);
      NodeId prev = 0;
      for (std::size_t e = 0; e < row.len; ++e) {
        w.write_svarint(static_cast<std::int64_t>(row.nbr_global[e]) - prev);
        prev = row.nbr_global[e];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const RowPtrs row = rowof(i);
      for (std::size_t e = 0; e < row.len; ++e) {
        w.write_uvarint(static_cast<std::uint64_t>(row.nbr_local[e]));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const RowPtrs row = rowof(i);
      for (std::size_t e = 0; e < row.len; ++e) {
        w.write_uvarint(static_cast<std::uint64_t>(row.nbr_shard[e]));
      }
    }
    if (options.need_weights) {
      for (std::size_t i = 0; i < n; ++i) {
        const RowPtrs row = rowof(i);
        if (row.len != 0) w.write_bytes(row.weights, row.len * sizeof(float));
      }
      for (std::size_t i = 0; i < n; ++i) {
        const RowPtrs row = rowof(i);
        if (row.len != 0) w.write_bytes(row.nbr_dw, row.len * sizeof(float));
      }
      for (std::size_t i = 0; i < n; ++i) {
        w.write<float>(rowof(i).src_dw);
      }
    }
    return;
  }

  // Flat codec: gather into contiguous CSR arrays, then write each as one
  // full-width length-prefixed array.
  std::vector<EdgeIndex> indptr(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += rowof(i).len;
    indptr[i + 1] = static_cast<EdgeIndex>(total);
  }
  std::vector<NodeId> nbr_local(total);
  std::vector<ShardId> nbr_shard(total);
  std::vector<float> weights(total);
  std::vector<float> nbr_dw(total);
  std::vector<NodeId> nbr_global(total);
  std::vector<float> src_dw(n);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RowPtrs row = rowof(i);
    std::copy_n(row.nbr_local, row.len, nbr_local.data() + pos);
    std::copy_n(row.nbr_shard, row.len, nbr_shard.data() + pos);
    std::copy_n(row.weights, row.len, weights.data() + pos);
    std::copy_n(row.nbr_dw, row.len, nbr_dw.data() + pos);
    std::copy_n(row.nbr_global, row.len, nbr_global.data() + pos);
    src_dw[i] = row.src_dw;
    pos += row.len;
  }
  w.write_vec(indptr);
  w.write_vec(nbr_local);
  w.write_vec(nbr_shard);
  if (options.need_weights) {
    w.write_vec(weights);
    w.write_vec(nbr_dw);
  }
  w.write_vec(nbr_global);
  if (options.need_weights) {
    w.write_vec(src_dw);
  }
}

template <typename RowOf>
void encode_tensor_list_impl(std::size_t n, const RowOf& rowof,
                             ByteWriter& w) {
  w.write<std::uint64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RowPtrs row = rowof(i);
    w.write<float>(row.src_dw);
    // Five small tensors per node, each paying header + padding — the
    // list-of-small-tensors cost the Compress optimization removes.
    w.write_tensor(std::span<const NodeId>(row.nbr_local, row.len));
    w.write_tensor(std::span<const ShardId>(row.nbr_shard, row.len));
    w.write_tensor(std::span<const float>(row.weights, row.len));
    w.write_tensor(std::span<const float>(row.nbr_dw, row.len));
    w.write_tensor(std::span<const NodeId>(row.nbr_global, row.len));
  }
}
}  // namespace

RowPtrs GraphShard::row_ptrs(NodeId local) const {
  GE_REQUIRE(local >= 0 && local < num_core_nodes(), "local id out of range");
  const auto lo = static_cast<std::size_t>(
      indptr_[static_cast<std::size_t>(local)]);
  const auto hi = static_cast<std::size_t>(
      indptr_[static_cast<std::size_t>(local) + 1]);
  return RowPtrs{nbr_local_ids_.data() + lo,
                 nbr_shard_ids_.data() + lo,
                 edge_weights_.data() + lo,
                 nbr_weighted_deg_.data() + lo,
                 nbr_global_ids_.data() + lo,
                 hi - lo,
                 core_weighted_deg_[static_cast<std::size_t>(local)]};
}

void GraphShard::encode_neighbor_infos_csr(std::span<const NodeId> locals,
                                           ByteWriter& w,
                                           const FetchOptions& options) const {
  encode_csr_impl(
      locals.size(), [&](std::size_t i) { return row_ptrs(locals[i]); }, w,
      options);
}

void GraphShard::encode_neighbor_infos_tensor_list(
    std::span<const NodeId> locals, ByteWriter& w) const {
  encode_tensor_list_impl(
      locals.size(), [&](std::size_t i) { return row_ptrs(locals[i]); }, w);
}

void encode_rows_csr(std::span<const RowPtrs> rows, ByteWriter& w,
                     const FetchOptions& options) {
  encode_csr_impl(
      rows.size(), [&](std::size_t i) { return rows[i]; }, w, options);
}

void encode_rows_tensor_list(std::span<const RowPtrs> rows, ByteWriter& w) {
  encode_tensor_list_impl(
      rows.size(), [&](std::size_t i) { return rows[i]; }, w);
}

std::size_t GraphShard::memory_bytes() const {
  return indptr_.size() * sizeof(EdgeIndex) +
         core_global_ids_.size() * sizeof(NodeId) +
         core_weighted_deg_.size() * sizeof(float) +
         nbr_local_ids_.size() * sizeof(NodeId) +
         nbr_shard_ids_.size() * sizeof(ShardId) +
         edge_weights_.size() * sizeof(float) +
         nbr_weighted_deg_.size() * sizeof(float) +
         nbr_global_ids_.size() * sizeof(NodeId) +
         (halo_ ? halo_->memory_bytes() : 0);
}

void GraphShard::serialize(ByteWriter& w) const {
  w.write<std::uint8_t>(1);  // shard snapshot layout version
  w.write<std::int32_t>(shard_id_);
  w.write_vec(indptr_);
  w.write_vec(core_global_ids_);
  w.write_vec(core_weighted_deg_);
  w.write_vec(nbr_local_ids_);
  w.write_vec(nbr_shard_ids_);
  w.write_vec(edge_weights_);
  w.write_vec(nbr_weighted_deg_);
  w.write_vec(nbr_global_ids_);
  w.write<std::uint8_t>(halo_ ? 1 : 0);
  if (!halo_) return;
  const HaloRows& h = *halo_;
  // The FlatMap ships as (key, row) pairs ordered by row so the encoding
  // is deterministic regardless of the table's probe layout.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  entries.reserve(h.row_of.size());
  h.row_of.for_each([&](std::uint64_t key, const std::uint32_t& row) {
    entries.emplace_back(key, row);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  w.write<std::uint64_t>(entries.size());
  for (const auto& [key, row] : entries) {
    w.write<std::uint64_t>(key);
    w.write<std::uint32_t>(row);
  }
  w.write_vec(h.indptr);
  w.write_vec(h.weighted_deg);
  w.write_vec(h.nbr_local_ids);
  w.write_vec(h.nbr_shard_ids);
  w.write_vec(h.edge_weights);
  w.write_vec(h.nbr_weighted_deg);
  w.write_vec(h.nbr_global_ids);
}

namespace {
/// A peer's CSR offsets must start at 0, never decrease, and end at the
/// edge count — otherwise a row would read outside the edge arrays.
void require_offsets(std::span<const EdgeIndex> indptr, std::size_t edges,
                     const char* what) {
  GE_REQUIRE(!indptr.empty() && indptr.front() == 0 &&
                 static_cast<std::size_t>(indptr.back()) == edges &&
                 std::is_sorted(indptr.begin(), indptr.end()),
             std::string("snapshot ") + what +
                 " offsets are not a CSR over its edges");
}
}  // namespace

std::shared_ptr<GraphShard> GraphShard::deserialize(ByteReader& r) {
  const auto version = r.read<std::uint8_t>();
  GE_REQUIRE(version == 1,
             "unknown shard snapshot version " + std::to_string(version));
  auto shard = std::shared_ptr<GraphShard>(new GraphShard());
  shard->shard_id_ = r.read<std::int32_t>();
  GE_REQUIRE(shard->shard_id_ >= 0, "snapshot names a negative shard id");
  shard->indptr_ = r.read_vec<EdgeIndex>();
  shard->core_global_ids_ = r.read_vec<NodeId>();
  shard->core_weighted_deg_ = r.read_vec<float>();
  shard->nbr_local_ids_ = r.read_vec<NodeId>();
  shard->nbr_shard_ids_ = r.read_vec<ShardId>();
  shard->edge_weights_ = r.read_vec<float>();
  shard->nbr_weighted_deg_ = r.read_vec<float>();
  shard->nbr_global_ids_ = r.read_vec<NodeId>();
  GE_REQUIRE(!shard->indptr_.empty(), "snapshot missing CSR offsets");
  const std::size_t cores = shard->indptr_.size() - 1;
  const std::size_t edges = shard->nbr_local_ids_.size();
  require_offsets(shard->indptr_, edges, "core");
  GE_REQUIRE(shard->core_global_ids_.size() == cores &&
                 shard->core_weighted_deg_.size() == cores,
             "snapshot core arrays disagree on node count");
  GE_REQUIRE(shard->nbr_shard_ids_.size() == edges &&
                 shard->edge_weights_.size() == edges &&
                 shard->nbr_weighted_deg_.size() == edges &&
                 shard->nbr_global_ids_.size() == edges,
             "snapshot edge arrays disagree on edge count");
  if (r.read<std::uint8_t>() == 0) return shard;
  auto halo = std::make_shared<HaloRows>();
  const auto num_halo = r.read<std::uint64_t>();
  // Each halo entry owes 12 bytes, so a hostile count cannot force a huge
  // table past the frame.
  GE_REQUIRE(num_halo <= r.remaining() / 12,
             "snapshot halo row count exceeds frame");
  halo->row_of = FlatMap<std::uint32_t>(static_cast<std::size_t>(num_halo) * 2);
  for (std::uint64_t i = 0; i < num_halo; ++i) {
    const auto key = r.read<std::uint64_t>();
    const auto row = r.read<std::uint32_t>();
    GE_REQUIRE(row < num_halo, "snapshot halo row index out of range");
    halo->row_of[key] = row;
  }
  halo->indptr = r.read_vec<EdgeIndex>();
  halo->weighted_deg = r.read_vec<float>();
  halo->nbr_local_ids = r.read_vec<NodeId>();
  halo->nbr_shard_ids = r.read_vec<ShardId>();
  halo->edge_weights = r.read_vec<float>();
  halo->nbr_weighted_deg = r.read_vec<float>();
  halo->nbr_global_ids = r.read_vec<NodeId>();
  GE_REQUIRE(halo->indptr.size() == num_halo + 1,
             "snapshot halo offsets disagree with halo row count");
  const std::size_t halo_edges = halo->nbr_local_ids.size();
  require_offsets(halo->indptr, halo_edges, "halo");
  GE_REQUIRE(halo->nbr_shard_ids.size() == halo_edges &&
                 halo->edge_weights.size() == halo_edges &&
                 halo->nbr_weighted_deg.size() == halo_edges &&
                 halo->nbr_global_ids.size() == halo_edges &&
                 halo->weighted_deg.size() == num_halo,
             "snapshot halo arrays disagree on edge count");
  shard->halo_ = std::move(halo);
  return shard;
}

NeighborBatch NeighborBatch::decode_csr(ByteReader& r) {
  NeighborBatch b;
  decode_csr_into(r, b);
  return b;
}

void NeighborBatch::decode_csr_into(ByteReader& r, NeighborBatch& out) {
  const auto tag = r.read<std::uint8_t>();
  GE_REQUIRE(tag == static_cast<std::uint8_t>(WireCodec::kFlat) ||
                 tag == static_cast<std::uint8_t>(WireCodec::kDeltaVarint),
             "unknown CSR codec tag");
  const auto flags = r.read<std::uint8_t>();
  out.has_weights_ = (flags & kCsrHasWeightsFlag) != 0;

  if (tag == static_cast<std::uint8_t>(WireCodec::kDeltaVarint)) {
    const std::uint64_t n = r.read_uvarint();
    // Each row costs at least one degree byte, so a hostile count cannot
    // exceed the frame and force a huge allocation.
    GE_REQUIRE(n <= r.remaining(), "CSR row count exceeds frame");
    out.indptr_.resize(n + 1);
    out.indptr_[0] = 0;
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t deg = r.read_uvarint();
      GE_REQUIRE(deg <= r.remaining(), "CSR row degree exceeds frame");
      total += deg;
      GE_REQUIRE(total <= r.remaining(),
                 "CSR edge total exceeds frame");
      out.indptr_[i + 1] = static_cast<EdgeIndex>(total);
    }
    // Every remaining edge still owes ≥3 bytes (global + local + shard
    // varints), so this bounds the array allocations by the frame size.
    GE_REQUIRE(total <= r.remaining() / 3, "CSR edge total exceeds frame");
    const auto e = static_cast<std::size_t>(total);
    out.nbr_global_ids_.resize(e);
    out.nbr_local_ids_.resize(e);
    out.nbr_shard_ids_.resize(e);
    // The three id sections decode through the runtime-dispatched SIMD
    // block decoders (simd.hpp): per-row zigzag deltas with a vector
    // prefix sum for global ids, bulk single-byte-window uvarints for
    // locals and shards. Pull the raw buffer out of the reader, then
    // resynchronize it once the blocks are consumed.
    const std::uint8_t* raw = r.raw();
    const std::size_t raw_size = r.buffer_size();
    std::size_t at_byte = r.position();
    std::size_t at = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto hi = static_cast<std::size_t>(out.indptr_[i + 1]);
      at_byte = simd::decode_zigzag_prefix32_block(
          raw, raw_size, at_byte, /*prev=*/0,
          out.nbr_global_ids_.data() + at, hi - at,
          std::numeric_limits<NodeId>::max(),
          "neighbor global id out of range");
      at = hi;
    }
    static_assert(sizeof(NodeId) == sizeof(std::uint32_t));
    static_assert(sizeof(ShardId) == sizeof(std::uint32_t));
    at_byte = simd::decode_uvarint32_block(
        raw, raw_size, at_byte,
        reinterpret_cast<std::uint32_t*>(out.nbr_local_ids_.data()), e,
        std::numeric_limits<NodeId>::max(),
        "neighbor local id out of range");
    at_byte = simd::decode_uvarint32_block(
        raw, raw_size, at_byte,
        reinterpret_cast<std::uint32_t*>(out.nbr_shard_ids_.data()), e,
        std::numeric_limits<ShardId>::max(),
        "neighbor shard id out of range");
    r.seek(at_byte);
    out.edge_weights_.resize(e);
    out.nbr_weighted_deg_.resize(e);
    out.src_weighted_deg_.resize(n);
    if (out.has_weights_) {
      r.read_raw(std::span<float>(out.edge_weights_));
      r.read_raw(std::span<float>(out.nbr_weighted_deg_));
      r.read_raw(std::span<float>(out.src_weighted_deg_));
    } else {
      std::fill(out.edge_weights_.begin(), out.edge_weights_.end(), 0.0f);
      std::fill(out.nbr_weighted_deg_.begin(), out.nbr_weighted_deg_.end(),
                0.0f);
      std::fill(out.src_weighted_deg_.begin(), out.src_weighted_deg_.end(),
                0.0f);
    }
    return;
  }

  r.read_vec_into(out.indptr_);
  r.read_vec_into(out.nbr_local_ids_);
  r.read_vec_into(out.nbr_shard_ids_);
  if (out.has_weights_) {
    r.read_vec_into(out.edge_weights_);
    r.read_vec_into(out.nbr_weighted_deg_);
  }
  r.read_vec_into(out.nbr_global_ids_);
  GE_REQUIRE(!out.indptr_.empty(), "CSR response missing indptr");
  const std::size_t n = out.indptr_.size() - 1;
  const std::size_t e = out.nbr_local_ids_.size();
  if (out.has_weights_) {
    r.read_vec_into(out.src_weighted_deg_);
    GE_REQUIRE(out.src_weighted_deg_.size() == n,
               "inconsistent CSR response");
    GE_REQUIRE(out.edge_weights_.size() == e &&
                   out.nbr_weighted_deg_.size() == e,
               "ragged CSR edge arrays");
  } else {
    out.edge_weights_.assign(e, 0.0f);
    out.nbr_weighted_deg_.assign(e, 0.0f);
    out.src_weighted_deg_.assign(n, 0.0f);
  }
  GE_REQUIRE(out.nbr_shard_ids_.size() == e &&
                 out.nbr_global_ids_.size() == e,
             "ragged CSR edge arrays");
  // The indptr offsets index the edge arrays directly in operator[]; a
  // malformed frame here would otherwise become out-of-bounds UB later.
  GE_REQUIRE(out.indptr_.front() == 0 &&
                 out.indptr_.back() == static_cast<EdgeIndex>(e),
             "CSR indptr endpoints inconsistent");
  for (std::size_t i = 0; i + 1 < out.indptr_.size(); ++i) {
    GE_REQUIRE(out.indptr_[i] <= out.indptr_[i + 1],
               "CSR indptr not monotone");
  }
}

NeighborBatch NeighborBatch::decode_tensor_list(ByteReader& r) {
  NeighborBatch b;
  const auto n = r.read<std::uint64_t>();
  // Each row owes at least its float plus five tensor headers, so a
  // hostile count is rejected before anything is reserved for it.
  GE_REQUIRE(n <= r.remaining() / (sizeof(float) + 5 * kTensorHeaderBytes),
             "tensor-list row count exceeds the payload");
  b.indptr_.reserve(n + 1);
  b.indptr_.push_back(0);
  b.src_weighted_deg_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    b.src_weighted_deg_.push_back(r.read<float>());
    // Each small tensor decodes into its own temporary allocation (the
    // cost profile of unpickling a list of tensors), then appends.
    auto locals = r.read_tensor<NodeId>();
    auto shards = r.read_tensor<ShardId>();
    auto weights = r.read_tensor<float>();
    auto dws = r.read_tensor<float>();
    auto globals = r.read_tensor<NodeId>();
    GE_REQUIRE(locals.size() == shards.size() &&
                   locals.size() == weights.size() &&
                   locals.size() == dws.size() &&
                   locals.size() == globals.size(),
               "ragged tensor-list response");
    b.nbr_local_ids_.insert(b.nbr_local_ids_.end(), locals.begin(),
                            locals.end());
    b.nbr_shard_ids_.insert(b.nbr_shard_ids_.end(), shards.begin(),
                            shards.end());
    b.edge_weights_.insert(b.edge_weights_.end(), weights.begin(),
                           weights.end());
    b.nbr_weighted_deg_.insert(b.nbr_weighted_deg_.end(), dws.begin(),
                               dws.end());
    b.nbr_global_ids_.insert(b.nbr_global_ids_.end(), globals.begin(),
                             globals.end());
    b.indptr_.push_back(static_cast<EdgeIndex>(b.nbr_local_ids_.size()));
  }
  return b;
}

VertexProp NeighborBatch::operator[](std::size_t i) const {
  const auto lo = static_cast<std::size_t>(indptr_[i]);
  const auto hi = static_cast<std::size_t>(indptr_[i + 1]);
  return VertexProp{
      {nbr_local_ids_.data() + lo, nbr_local_ids_.data() + hi},
      {nbr_shard_ids_.data() + lo, nbr_shard_ids_.data() + hi},
      {edge_weights_.data() + lo, edge_weights_.data() + hi},
      {nbr_weighted_deg_.data() + lo, nbr_weighted_deg_.data() + hi},
      {nbr_global_ids_.data() + lo, nbr_global_ids_.data() + hi},
      src_weighted_deg_[i]};
}

ShardedGraph build_sharded_graph(const Graph& g,
                                 const PartitionAssignment& assignment,
                                 int num_shards,
                                 bool cache_halo_adjacency) {
  ShardedGraph sg;
  sg.mapping = GlobalMapping(assignment, num_shards);
  sg.shards.reserve(static_cast<std::size_t>(num_shards));
  for (ShardId s = 0; s < num_shards; ++s) {
    sg.shards.push_back(std::make_shared<const GraphShard>(
        g, sg.mapping, s, cache_halo_adjacency));
  }
  return sg;
}

}  // namespace ppr
