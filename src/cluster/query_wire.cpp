#include "cluster/query_wire.hpp"

#include "common/serialize.hpp"

namespace ppr::cluster {

namespace {

/// Entry count of a list whose entries take `entry_bytes` each; a count
/// the rest of the payload cannot hold is rejected before anything is
/// reserved for it.
std::uint64_t read_count(ByteReader& r, std::size_t entry_bytes) {
  const auto n = r.read<std::uint64_t>();
  GE_REQUIRE(n <= r.remaining() / entry_bytes,
             "entry count exceeds the payload");
  return n;
}

}  // namespace

std::vector<std::uint8_t> encode_ssppr_request(const SspprRequest& r) {
  ByteWriter w;
  w.write<std::int64_t>(r.source);
  return std::move(w).take();
}

SspprRequest decode_ssppr_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  SspprRequest req;
  req.source = static_cast<NodeId>(r.read<std::int64_t>());
  return req;
}

std::vector<std::uint8_t> encode_ssppr_reply(const SspprReply& r) {
  ByteWriter w;
  w.write<std::uint8_t>(r.status);
  w.write<std::uint64_t>(r.num_pushes);
  w.write<std::uint64_t>(r.entries.size());
  for (const auto& [global, value] : r.entries) {
    w.write<std::int64_t>(global);
    w.write<double>(value);
  }
  return std::move(w).take();
}

SspprReply decode_ssppr_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  SspprReply out;
  out.status = r.read<std::uint8_t>();
  out.num_pushes = r.read<std::uint64_t>();
  const auto n = read_count(r, sizeof(std::int64_t) + sizeof(double));
  out.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto global = static_cast<NodeId>(r.read<std::int64_t>());
    const double value = r.read<double>();
    out.entries.emplace_back(global, value);
  }
  return out;
}

std::vector<std::uint8_t> encode_bfs_request(const BfsRequest& r) {
  ByteWriter w;
  w.write<std::int64_t>(r.source);
  w.write<std::int32_t>(r.max_depth);
  return std::move(w).take();
}

BfsRequest decode_bfs_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  BfsRequest req;
  req.source = static_cast<NodeId>(r.read<std::int64_t>());
  req.max_depth = r.read<std::int32_t>();
  return req;
}

std::vector<std::uint8_t> encode_bfs_reply(const BfsReply& r) {
  ByteWriter w;
  w.write<std::uint64_t>(r.num_levels);
  w.write<std::uint64_t>(r.distances.size());
  for (const auto& [global, dist] : r.distances) {
    w.write<std::int64_t>(global);
    w.write<std::int32_t>(dist);
  }
  return std::move(w).take();
}

BfsReply decode_bfs_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  BfsReply out;
  out.num_levels = r.read<std::uint64_t>();
  const auto n = read_count(r, sizeof(std::int64_t) + sizeof(std::int32_t));
  out.distances.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto global = static_cast<NodeId>(r.read<std::int64_t>());
    const auto dist = r.read<std::int32_t>();
    out.distances.emplace_back(global, dist);
  }
  return out;
}

std::vector<std::uint8_t> encode_walk_request(const WalkRequest& r) {
  ByteWriter w;
  w.write<std::int64_t>(r.source);
  w.write<std::int32_t>(r.walk_length);
  w.write<std::uint64_t>(r.seed);
  return std::move(w).take();
}

WalkRequest decode_walk_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  WalkRequest req;
  req.source = static_cast<NodeId>(r.read<std::int64_t>());
  req.walk_length = r.read<std::int32_t>();
  req.seed = r.read<std::uint64_t>();
  return req;
}

std::vector<std::uint8_t> encode_walk_reply(const WalkReply& r) {
  ByteWriter w;
  w.write_vec(r.steps);
  return std::move(w).take();
}

WalkReply decode_walk_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  WalkReply out;
  out.steps = r.read_vec<NodeId>();
  return out;
}

std::vector<std::uint8_t> encode_ping_reply(std::int32_t node_id) {
  ByteWriter w;
  w.write<std::int32_t>(node_id);
  return std::move(w).take();
}

std::int32_t decode_ping_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  return r.read<std::int32_t>();
}

std::vector<std::uint8_t> encode_text_reply(const std::string& text) {
  ByteWriter w;
  w.write_string(text);
  return std::move(w).take();
}

std::string decode_text_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  return r.read_string();
}

std::vector<std::uint8_t> encode_shard_admin(const ShardAdminRequest& r) {
  ByteWriter w;
  w.write<std::int32_t>(r.shard);
  w.write<std::int32_t>(r.node);
  return std::move(w).take();
}

ShardAdminRequest decode_shard_admin(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  ShardAdminRequest req;
  req.shard = r.read<std::int32_t>();
  req.node = r.read<std::int32_t>();
  return req;
}

std::vector<std::uint8_t> encode_shard_map_payload(const ShardMap& map) {
  ByteWriter w;
  map.encode(w);
  return std::move(w).take();
}

ShardMap decode_shard_map_payload(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  return ShardMap::decode(r);
}

std::vector<std::uint8_t> encode_shard_load_reply(
    const std::vector<std::pair<ShardId, std::uint64_t>>& counts) {
  ByteWriter w;
  w.write<std::uint64_t>(counts.size());
  for (const auto& [shard, count] : counts) {
    w.write<std::int32_t>(shard);
    w.write<std::uint64_t>(count);
  }
  return std::move(w).take();
}

std::vector<std::pair<ShardId, std::uint64_t>> decode_shard_load_reply(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  const auto n = read_count(r, sizeof(std::int32_t) + sizeof(std::uint64_t));
  std::vector<std::pair<ShardId, std::uint64_t>> counts;
  counts.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto shard = r.read<std::int32_t>();
    const auto count = r.read<std::uint64_t>();
    counts.emplace_back(shard, count);
  }
  return counts;
}

std::vector<std::uint8_t> encode_mutate_request(const MutateRequest& r) {
  ByteWriter w;
  w.write<std::uint64_t>(r.ops.size());
  for (const auto& op : r.ops) {
    w.write<std::int64_t>(op.u);
    w.write<std::int64_t>(op.v);
    w.write<float>(op.weight);
    w.write<std::uint8_t>(op.insert ? 1 : 0);
  }
  return std::move(w).take();
}

MutateRequest decode_mutate_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  MutateRequest req;
  const auto n = read_count(r, 2 * sizeof(std::int64_t) + sizeof(float) +
                                   sizeof(std::uint8_t));
  req.ops.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    EdgeMutationOp op;
    op.u = static_cast<NodeId>(r.read<std::int64_t>());
    op.v = static_cast<NodeId>(r.read<std::int64_t>());
    op.weight = r.read<float>();
    op.insert = r.read<std::uint8_t>() != 0;
    req.ops.push_back(op);
  }
  return req;
}

std::vector<std::uint8_t> encode_mutate_reply(const MutateReply& r) {
  ByteWriter w;
  w.write<std::uint64_t>(r.version);
  return std::move(w).take();
}

MutateReply decode_mutate_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  MutateReply out;
  out.version = r.read<std::uint64_t>();
  return out;
}

std::vector<std::uint8_t> encode_version_announce(const VersionAnnounce& a) {
  ByteWriter w;
  w.write<std::uint64_t>(a.version);
  w.write<std::uint64_t>(a.shards.size());
  for (const ShardRows& s : a.shards) {
    w.write<std::int32_t>(s.shard);
    w.write_vec(s.rows);
  }
  return std::move(w).take();
}

VersionAnnounce decode_version_announce(std::span<const std::uint8_t> p,
                                        const GlobalMapping& mapping) {
  ByteReader r(p);
  VersionAnnounce out;
  out.version = r.read<std::uint64_t>();
  const auto n = read_count(r, sizeof(std::int32_t) + sizeof(std::uint64_t));
  out.shards.resize(static_cast<std::size_t>(n));
  for (ShardRows& s : out.shards) {
    s.shard = r.read<std::int32_t>();
    GE_REQUIRE(s.shard >= 0 && s.shard < mapping.num_shards(),
               "announced shard out of range");
    r.read_vec_into(s.rows);  // count checked against the bytes left
    const NodeId rows = mapping.num_core_nodes(s.shard);
    for (const NodeId row : s.rows) {
      GE_REQUIRE(row >= 0 && row < rows, "announced row out of range");
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_version_reply(std::uint64_t version) {
  ByteWriter w;
  w.write<std::uint64_t>(version);
  return std::move(w).take();
}

std::uint64_t decode_version_reply(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  return r.read<std::uint64_t>();
}

}  // namespace ppr::cluster
