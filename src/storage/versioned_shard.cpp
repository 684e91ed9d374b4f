#include "storage/versioned_shard.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace ppr {

// ---------------------------------------------------------------------------
// MutationBatch

void MutationBatch::encode(ByteWriter& w) const {
  w.write<std::uint32_t>(static_cast<std::uint32_t>(inserts.size()));
  for (const EdgeInsert& e : inserts) {
    w.write<NodeId>(e.src_local);
    w.write<NodeId>(e.nbr_local);
    w.write<ShardId>(e.nbr_shard);
    w.write<NodeId>(e.nbr_global);
    w.write<float>(e.weight);
    w.write<float>(e.nbr_weighted_deg);
  }
  w.write<std::uint32_t>(static_cast<std::uint32_t>(deletes.size()));
  for (const EdgeDelete& e : deletes) {
    w.write<NodeId>(e.src_local);
    w.write<NodeId>(e.nbr_global);
  }
}

MutationBatch MutationBatch::decode(ByteReader& r) {
  MutationBatch b;
  const auto num_inserts = r.read<std::uint32_t>();
  // Each insert owes 24 bytes, so a hostile count cannot force a huge
  // allocation past the frame.
  GE_REQUIRE(num_inserts <= r.remaining() / 24,
             "mutation insert count exceeds frame");
  b.inserts.resize(num_inserts);
  for (EdgeInsert& e : b.inserts) {
    e.src_local = r.read<NodeId>();
    e.nbr_local = r.read<NodeId>();
    e.nbr_shard = r.read<ShardId>();
    e.nbr_global = r.read<NodeId>();
    e.weight = r.read<float>();
    e.nbr_weighted_deg = r.read<float>();
  }
  const auto num_deletes = r.read<std::uint32_t>();
  GE_REQUIRE(num_deletes <= r.remaining() / 8,
             "mutation delete count exceeds frame");
  b.deletes.resize(num_deletes);
  for (EdgeDelete& e : b.deletes) {
    e.src_local = r.read<NodeId>();
    e.nbr_global = r.read<NodeId>();
  }
  return b;
}

std::vector<NodeId> MutationBatch::source_rows() const {
  std::vector<NodeId> rows;
  rows.reserve(num_ops());
  for (const EdgeInsert& e : inserts) rows.push_back(e.src_local);
  for (const EdgeDelete& e : deletes) rows.push_back(e.src_local);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// DeltaSegment

namespace {

/// Group op indices by source row: `ptr[slot]..ptr[slot + 1]` delimits the
/// ops of rows[slot] in `out`, in batch order (a stable counting sort).
template <typename Op>
void group_by_row(const std::vector<Op>& ops, std::span<const NodeId> rows,
                  std::vector<std::uint32_t>& ptr,
                  std::vector<std::uint32_t>& out) {
  const auto slot_of = [&](NodeId src) {
    return static_cast<std::size_t>(
        std::lower_bound(rows.begin(), rows.end(), src) - rows.begin());
  };
  ptr.assign(rows.size() + 1, 0);
  for (const Op& op : ops) ++ptr[slot_of(op.src_local) + 1];
  for (std::size_t i = 0; i < rows.size(); ++i) ptr[i + 1] += ptr[i];
  out.resize(ops.size());
  std::vector<std::uint32_t> next(ptr.begin(), ptr.end() - 1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out[next[slot_of(ops[i].src_local)]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

DeltaSegment::DeltaSegment(std::uint64_t version, MutationBatch batch)
    : version_(version),
      batch_(std::move(batch)),
      rows_(batch_.source_rows()) {
  group_by_row(batch_.deletes, rows_, delete_ptr_, delete_ops_);
  group_by_row(batch_.inserts, rows_, insert_ptr_, insert_ops_);
}

std::span<const std::uint32_t> DeltaSegment::deletes_of(
    std::size_t slot) const {
  return {delete_ops_.data() + delete_ptr_[slot],
          delete_ops_.data() + delete_ptr_[slot + 1]};
}

std::span<const std::uint32_t> DeltaSegment::inserts_of(
    std::size_t slot) const {
  return {insert_ops_.data() + insert_ptr_[slot],
          insert_ops_.data() + insert_ptr_[slot + 1]};
}

// ---------------------------------------------------------------------------
// DeltaLog

DeltaLog::DeltaLog(NodeId num_rows,
                   std::vector<std::shared_ptr<const DeltaSegment>> segments)
    : segments_(std::move(segments)),
      offsets_(static_cast<std::size_t>(num_rows) + 1, 0) {
  // Counting sort by row; visiting segments in log order leaves every
  // row's touches in ascending segment position.
  for (const auto& seg : segments_) {
    num_ops_ += seg->num_ops();
    for (const NodeId row : seg->rows()) {
      ++offsets_[static_cast<std::size_t>(row) + 1];
    }
  }
  for (std::size_t r = 1; r < offsets_.size(); ++r) {
    offsets_[r] += offsets_[r - 1];
  }
  touches_.resize(offsets_.back());
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t p = 0; p < segments_.size(); ++p) {
    const auto rows = segments_[p]->rows();
    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
      touches_[next[static_cast<std::size_t>(rows[slot])]++] =
          Touch{static_cast<std::uint32_t>(p),
                static_cast<std::uint32_t>(slot)};
    }
  }
}

std::size_t DeltaLog::count_at(std::uint64_t version) const {
  return static_cast<std::size_t>(
      std::upper_bound(segments_.begin(), segments_.end(), version,
                       [](std::uint64_t v, const auto& seg) {
                         return v < seg->version();
                       }) -
      segments_.begin());
}

// ---------------------------------------------------------------------------
// ShardSnapshot

ShardSnapshot::ShardSnapshot(std::shared_ptr<const GraphShard> base,
                             std::shared_ptr<const DeltaLog> log,
                             std::uint64_t version, std::shared_ptr<void> pin)
    : base_(std::move(base)),
      log_(std::move(log)),
      num_segments_(static_cast<std::uint32_t>(log_->count_at(version))),
      version_(version),
      pin_(std::move(pin)) {}

std::size_t ShardSnapshot::merge_row(NodeId local) const {
  const VertexProp b = base_->vertex_prop(local);
  scratch_.open_row(b);
  // d_w evolves strictly left-to-right over the segment log, so a frozen
  // copy of the graph at this version (same base + same batches) computes
  // the bit-identical float — the property the equivalence tests pin.
  float dw = b.weighted_degree;
  for (const DeltaLog::Touch t : log_->touches(local)) {
    if (t.segment >= num_segments_) break;
    const DeltaSegment& seg = *log_->segments()[t.segment];
    // Deletes before inserts within a segment: delete-then-reinsert at one
    // version behaves as written.
    for (const std::uint32_t di : seg.deletes_of(t.slot)) {
      const EdgeDelete& d = seg.batch().deletes[di];
      float w = 0;
      const bool found = scratch_.erase_edge(d.nbr_global, w);
      if (!found) scratch_.discard_open_row();
      GE_REQUIRE(found, "delete of non-existent edge " +
                            std::to_string(local) + " -> global " +
                            std::to_string(d.nbr_global));
      dw -= w;
    }
    for (const std::uint32_t ii : seg.inserts_of(t.slot)) {
      const EdgeInsert& ins = seg.batch().inserts[ii];
      scratch_.push_edge(ins.nbr_local, ins.nbr_shard, ins.weight,
                         ins.nbr_weighted_deg, ins.nbr_global);
      dw += ins.weight;
    }
  }
  return scratch_.close_row(dw);
}

template <typename Fn>
void ShardSnapshot::for_each_row(std::span<const NodeId> locals,
                                 Fn&& fn) const {
  constexpr std::size_t kClean = ~std::size_t{0};
  row_slots_.resize(locals.size());
  for (std::size_t i = 0; i < locals.size(); ++i) {
    row_slots_[i] = dirty(locals[i]) ? merge_row(locals[i]) : kClean;
  }
  for (std::size_t i = 0; i < locals.size(); ++i) {
    fn(i, row_slots_[i] == kClean ? base_->vertex_prop(locals[i])
                                  : scratch_.row(row_slots_[i]));
  }
}

float ShardSnapshot::weighted_degree(NodeId local) const {
  GE_REQUIRE(local >= 0 && local < num_core_nodes(),
             "local id out of range for shard");
  if (!dirty(local)) return base_->core_weighted_degree(local);
  return scratch_.row(merge_row(local)).weighted_degree;
}

VertexProp ShardSnapshot::vertex_prop(NodeId local) const {
  if (!dirty(local)) return base_->vertex_prop(local);
  return scratch_.row(merge_row(local));
}

std::vector<VertexProp> ShardSnapshot::get_neighbor_infos(
    std::span<const NodeId> locals) const {
  if (clean()) return base_->get_neighbor_infos(locals);
  std::vector<VertexProp> props;
  props.reserve(locals.size());
  for_each_row(locals,
               [&](std::size_t, const VertexProp& p) { props.push_back(p); });
  return props;
}

namespace {
RowPtrs row_ptrs_of(const VertexProp& p) {
  return RowPtrs{p.nbr_local_ids.data(),        p.nbr_shard_ids.data(),
                 p.edge_weights.data(),         p.nbr_weighted_degrees.data(),
                 p.nbr_global_ids.data(),       p.degree(),
                 p.weighted_degree};
}
}  // namespace

void ShardSnapshot::encode_neighbor_infos_csr(std::span<const NodeId> locals,
                                              ByteWriter& w,
                                              const FetchOptions& options)
    const {
  if (clean()) {
    base_->encode_neighbor_infos_csr(locals, w, options);
    return;
  }
  std::vector<RowPtrs> rows;
  rows.reserve(locals.size());
  for_each_row(locals, [&](std::size_t, const VertexProp& p) {
    rows.push_back(row_ptrs_of(p));
  });
  encode_rows_csr(rows, w, options);
}

void ShardSnapshot::encode_neighbor_infos_tensor_list(
    std::span<const NodeId> locals, ByteWriter& w) const {
  if (clean()) {
    base_->encode_neighbor_infos_tensor_list(locals, w);
    return;
  }
  std::vector<RowPtrs> rows;
  rows.reserve(locals.size());
  for_each_row(locals, [&](std::size_t, const VertexProp& p) {
    rows.push_back(row_ptrs_of(p));
  });
  encode_rows_tensor_list(rows, w);
}

void ShardSnapshot::reset_scratch() const { scratch_.clear(); }

// ---------------------------------------------------------------------------
// VersionedShardStore

struct VersionedShardStore::PinState {
  explicit PinState(ShardId shard) {
    if (shard < 0) return;
    reg = obs::MetricRegistry::global().attach(
        "storage.snapshot_pins", {{"shard", std::to_string(shard)}}, pins);
  }
  obs::Gauge pins;
  obs::Registration reg;
};

VersionedShardStore::VersionedShardStore(
    std::shared_ptr<const GraphShard> base, std::uint64_t base_version) {
  GE_REQUIRE(base != nullptr, "versioned store needs a base shard");
  current_.log = std::make_shared<const DeltaLog>(
      base->num_core_nodes(),
      std::vector<std::shared_ptr<const DeltaSegment>>{});
  current_.base = std::move(base);
  current_.floor = base_version;
  latest_ = base_version;
  const ShardId shard = current_.base->shard_id();
  pins_ = std::make_shared<PinState>(shard);
  const obs::Labels labels{{"shard", std::to_string(shard)}};
  auto& reg = obs::MetricRegistry::global();
  regs_.push_back(reg.attach("storage.delta_edges", labels, delta_edges_));
  regs_.push_back(reg.attach("storage.compactions", labels, compactions_));
}

ShardId VersionedShardStore::shard_id() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_.base->shard_id();
}

std::shared_ptr<const GraphShard> VersionedShardStore::base() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_.base;
}

std::uint64_t VersionedShardStore::latest_version() const {
  std::lock_guard<std::mutex> lk(mu_);
  return latest_;
}

std::uint64_t VersionedShardStore::oldest_pinnable_version() const {
  std::lock_guard<std::mutex> lk(mu_);
  return retired_.empty() ? current_.floor : retired_.front().floor;
}

std::uint64_t VersionedShardStore::delta_edges() const {
  return static_cast<std::uint64_t>(delta_edges_.load());
}

std::int64_t VersionedShardStore::snapshot_pins() const {
  return pins_->pins.load();
}

std::uint64_t VersionedShardStore::compactions() const {
  return compactions_.load();
}


void VersionedShardStore::apply(std::uint64_t version, MutationBatch batch) {
  obs::ScopedSpan span("storage.mutate");
  span.annotate("version=" + std::to_string(version) +
                " ops=" + std::to_string(batch.num_ops()));
  auto seg = std::make_shared<const DeltaSegment>(version, std::move(batch));
  std::lock_guard<std::mutex> lk(mu_);
  GE_REQUIRE(version > latest_,
             "mutation versions must be strictly ascending (got " +
                 std::to_string(version) + ", latest " +
                 std::to_string(latest_) + ")");
  const NodeId n = current_.base->num_core_nodes();
  for (const EdgeInsert& e : seg->batch().inserts) {
    GE_REQUIRE(e.src_local >= 0 && e.src_local < n,
               "edge insert source out of range");
    GE_REQUIRE(e.nbr_local >= 0 && e.nbr_shard >= 0 && e.nbr_global >= 0 &&
                   e.weight >= 0,
               "malformed edge insert");
  }
  for (const EdgeDelete& e : seg->batch().deletes) {
    GE_REQUIRE(e.src_local >= 0 && e.src_local < n,
               "edge delete source out of range");
  }
  // Copy-on-write: snapshots already taken keep the log they pinned.
  auto segments = current_.log->segments();
  segments.push_back(std::move(seg));
  current_.log = std::make_shared<const DeltaLog>(n, std::move(segments));
  latest_ = version;
  delta_edges_.set(static_cast<std::int64_t>(current_.log->num_ops()));
}

std::shared_ptr<const ShardSnapshot> VersionedShardStore::snapshot(
    std::uint64_t version) const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(version);
}

std::shared_ptr<const ShardSnapshot> VersionedShardStore::snapshot_locked(
    std::uint64_t version) const {
  const std::uint64_t v = (version == kVersionLatest) ? latest_ : version;
  const Generation* gen = nullptr;
  if (v >= current_.floor) {
    gen = &current_;
  } else {
    // Newest retired generation whose base predates the pin still holds
    // every segment needed to reach it (compaction moves only segments
    // *newer* than the new floor forward).
    for (auto it = retired_.rbegin(); it != retired_.rend(); ++it) {
      if (v >= it->floor) {
        gen = &*it;
        break;
      }
    }
  }
  GE_REQUIRE(gen != nullptr, "snapshot version " + std::to_string(v) +
                                 " compacted away (oldest pinnable " +
                                 std::to_string(retired_.empty()
                                                    ? current_.floor
                                                    : retired_.front().floor) +
                                 ")");
  pins_->pins.add(1);
  auto st = pins_;
  std::shared_ptr<void> token(new int(0), [st](void* p) {
    delete static_cast<int*>(p);
    st->pins.add(-1);
  });
  return std::shared_ptr<const ShardSnapshot>(
      new ShardSnapshot(gen->base, gen->log, v, std::move(token)));
}

std::shared_ptr<const GraphShard> VersionedShardStore::materialize(
    const ShardSnapshot& snap) {
  const GraphShard& old = snap.base();
  auto shard = std::shared_ptr<GraphShard>(new GraphShard());
  shard->shard_id_ = old.shard_id_;
  const NodeId n = old.num_core_nodes();
  shard->core_global_ids_ = old.core_global_ids_;
  shard->indptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  shard->core_weighted_deg_.resize(static_cast<std::size_t>(n));
  for (NodeId l = 0; l < n; ++l) {
    const VertexProp p = snap.vertex_prop(l);
    shard->core_weighted_deg_[static_cast<std::size_t>(l)] =
        p.weighted_degree;
    shard->nbr_local_ids_.insert(shard->nbr_local_ids_.end(),
                                 p.nbr_local_ids.begin(),
                                 p.nbr_local_ids.end());
    shard->nbr_shard_ids_.insert(shard->nbr_shard_ids_.end(),
                                 p.nbr_shard_ids.begin(),
                                 p.nbr_shard_ids.end());
    shard->edge_weights_.insert(shard->edge_weights_.end(),
                                p.edge_weights.begin(),
                                p.edge_weights.end());
    shard->nbr_weighted_deg_.insert(shard->nbr_weighted_deg_.end(),
                                    p.nbr_weighted_degrees.begin(),
                                    p.nbr_weighted_degrees.end());
    shard->nbr_global_ids_.insert(shard->nbr_global_ids_.end(),
                                  p.nbr_global_ids.begin(),
                                  p.nbr_global_ids.end());
    shard->indptr_[static_cast<std::size_t>(l) + 1] =
        shard->indptr_[static_cast<std::size_t>(l)] +
        static_cast<EdgeIndex>(p.degree());
    snap.reset_scratch();  // one merged row at a time
  }
  // Halo rows stay version-0 copies of other shards' rows; the halo gate
  // reads each row's first mutation from the process's VersionTracker, so
  // every generation shares the one immutable halo.
  shard->halo_ = old.halo_;
  return shard;
}

void VersionedShardStore::compact() {
  obs::ScopedSpan span("storage.compaction");
  // Serialize compactions against each other; readers and apply() only
  // contend on mu_ for the short publish step.
  std::lock_guard<std::mutex> compact_lk(compact_mu_);
  std::shared_ptr<const ShardSnapshot> snap;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (current_.log->segments().empty()) return;  // nothing to fold
    snap = snapshot_locked(kVersionLatest);
  }
  span.annotate("version=" + std::to_string(snap->version()));
  // Copy: materialize the merged CSR outside the lock — mutations and
  // reads proceed concurrently against the still-current generation.
  auto fresh = materialize(*snap);
  // Publish + Retire.
  std::lock_guard<std::mutex> lk(mu_);
  // Segments applied during the copy carry into the new generation.
  const auto& segments = current_.log->segments();
  Generation next;
  next.floor = snap->version();
  next.log = std::make_shared<const DeltaLog>(
      fresh->num_core_nodes(),
      std::vector<std::shared_ptr<const DeltaSegment>>(
          segments.begin() +
              static_cast<std::ptrdiff_t>(current_.log->count_at(next.floor)),
          segments.end()));
  next.base = std::move(fresh);
  retired_.push_back(std::move(current_));
  current_ = std::move(next);
  if (retired_.size() > kMaxRetiredGenerations) {
    retired_.erase(retired_.begin());
  }
  compactions_.add(1);
  delta_edges_.set(static_cast<std::int64_t>(current_.log->num_ops()));
}

void VersionedShardStore::serialize(ByteWriter& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.write<std::uint8_t>(2);  // store snapshot layout version
  current_.base->serialize(w);
  w.write<std::uint64_t>(current_.floor);
  w.write<std::uint64_t>(latest_);
  const auto& segments = current_.log->segments();
  w.write<std::uint32_t>(static_cast<std::uint32_t>(segments.size()));
  for (const auto& seg : segments) {
    w.write<std::uint64_t>(seg->version());
    seg->batch().encode(w);
  }
}

std::shared_ptr<VersionedShardStore> VersionedShardStore::deserialize(
    ByteReader& r) {
  const auto layout = r.read<std::uint8_t>();
  GE_REQUIRE(layout == 2,
             "unknown store snapshot layout " + std::to_string(layout));
  auto base = GraphShard::deserialize(r);
  const auto floor = r.read<std::uint64_t>();
  const auto latest = r.read<std::uint64_t>();
  auto store = std::make_shared<VersionedShardStore>(std::move(base), floor);
  const auto num_segments = r.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < num_segments; ++i) {
    const auto version = r.read<std::uint64_t>();
    store->apply(version, MutationBatch::decode(r));
  }
  std::lock_guard<std::mutex> lk(store->mu_);
  GE_REQUIRE(store->latest_ == latest,
             "store snapshot latest version inconsistent with segments");
  return store;
}

// ---------------------------------------------------------------------------
// VersionTracker

VersionTracker::VersionTracker(const GlobalMapping& mapping)
    : cells_(std::make_unique<std::atomic<Cell*>[]>(
          static_cast<std::size_t>(mapping.num_shards()))) {
  GE_REQUIRE(mapping.num_shards() > 0,
             "version tracker needs at least one shard");
  for (ShardId s = 0; s < mapping.num_shards(); ++s) {
    num_rows_.push_back(mapping.num_core_nodes(s));
    cells_[static_cast<std::size_t>(s)].store(nullptr,
                                              std::memory_order_relaxed);
  }
}

VersionTracker::~VersionTracker() {
  for (std::size_t s = 0; s < num_rows_.size(); ++s) {
    delete[] cells_[s].load(std::memory_order_relaxed);
  }
}

VersionTracker::Cell* VersionTracker::cells_for_write(std::size_t s) {
  Cell* cells = cells_[s].load(std::memory_order_relaxed);
  if (cells == nullptr) {
    cells = new Cell[static_cast<std::size_t>(num_rows_[s])];
    cells_[s].store(cells, std::memory_order_release);
  }
  return cells;
}

void VersionTracker::publish(std::uint64_t version,
                             std::span<const ShardRows> changed) {
  for (const ShardRows& s : changed) {
    const std::size_t shard = checked_shard(s.shard);
    for (const NodeId row : s.rows) {
      GE_REQUIRE(row >= 0 && row < num_rows_[shard], "row id out of range");
    }
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::uint64_t published = published_.load(std::memory_order_relaxed);
  if (version <= published) return;
  const auto note = [](Cell& c, std::uint64_t first, std::uint64_t last) {
    if (c.first.load(std::memory_order_relaxed) == 0) {
      c.first.store(first, std::memory_order_release);
    }
    c.last.store(last, std::memory_order_release);
  };
  if (version == published + 1) {
    for (const ShardRows& s : changed) {
      Cell* cells = cells_for_write(static_cast<std::size_t>(s.shard));
      for (const NodeId row : s.rows) note(cells[row], version, version);
    }
  } else {
    for (std::size_t s = 0; s < num_rows_.size(); ++s) {
      Cell* cells = cells_for_write(s);
      for (NodeId row = 0; row < num_rows_[s]; ++row) {
        note(cells[row], published + 1, version);
      }
    }
  }
  published_.store(version, std::memory_order_release);
}

}  // namespace ppr
