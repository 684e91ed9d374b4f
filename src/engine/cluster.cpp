#include "engine/cluster.hpp"

#include <algorithm>

#include "rpc/inproc_transport.hpp"

namespace ppr {

Cluster::Cluster(const Graph& g, const PartitionAssignment& assignment,
                 ClusterOptions options)
    : options_(options) {
  const int k = options_.num_machines;
  GE_REQUIRE(k >= 1, "need at least one machine");
  sharded_ = build_sharded_graph(g, assignment, k,
                                 options_.cache_halo_adjacency);
  transport_ = std::make_shared<InProcTransport>(k, options_.network);
  // One tracker for the whole simulated cluster: machines share the
  // process, so a mutation published anywhere is visible to every
  // machine's pin resolution at its next admission.
  tracker_ = std::make_shared<VersionTracker>(sharded_.mapping);
  const MachineConfig config{options_.server_threads,
                             options_.adjacency_cache_rows, RetryPolicy{}};
  published_ = ShardMap::identity(k);
  primaries_ = std::make_unique<std::atomic<DistGraphStorage*>[]>(
      static_cast<std::size_t>(k));
  machines_.reserve(static_cast<std::size_t>(k));
  for (int m = 0; m < k; ++m) {
    machines_.push_back(std::make_unique<Machine>(
        transport_, m, published_, tracker_, sharded_.mapping, config));
  }
  // The simulated deployment starts with shard m on machine m; real
  // clusters (cluster/node.hpp) route through the same RoutingTable
  // abstraction with config-derived placements.
  for (int m = 0; m < k; ++m) {
    auto client = machines_[static_cast<std::size_t>(m)]->install(
        std::make_shared<VersionedShardStore>(
            sharded_.shards[static_cast<std::size_t>(m)]));
    primaries_[static_cast<std::size_t>(m)].store(client.get());
    clients_.push_back(std::move(client));
  }

  tensor_ctx_ = std::make_unique<TensorPushContext>(
      sharded_.mapping, g.num_nodes(),
      std::vector<float>(g.weighted_degrees()));
}

Cluster::~Cluster() {
  // Endpoints reference the transport; stop delivery before teardown so
  // no handler runs into a half-destroyed machine.
  if (transport_ != nullptr) transport_->stop();
}

void Cluster::keep(std::shared_ptr<DistGraphStorage> client) {
  if (std::find(clients_.begin(), clients_.end(), client) == clients_.end()) {
    clients_.push_back(std::move(client));
  }
}

void Cluster::publish(const ShardMap& next,
                      const std::vector<int>& skip_publish) {
  for (int m = 0; m < options_.num_machines; ++m) {
    if (std::find(skip_publish.begin(), skip_publish.end(), m) ==
        skip_publish.end()) {
      machine_at(m).routing().apply(next);
    }
  }
  published_ = next;
  for (ShardId s = 0; s < next.num_shards(); ++s) {
    primaries_[static_cast<std::size_t>(s)].store(
        machine_at(next.node_of(s)).client(s).get(),
        std::memory_order_release);
  }
}

void Cluster::migrate_shard(ShardId shard, int dst,
                            const std::vector<int>& skip_publish) {
  GE_REQUIRE(dst >= 0 && dst < options_.num_machines,
             "migration target out of range");
  std::lock_guard<std::mutex> lock(admin_mu_);
  const int src = published_.node_of(shard);
  if (src == dst) return;
  // Copy: the destination pulls the snapshot while the source keeps
  // serving. The copy is version-complete (base + deltas); a mutation
  // racing the migration lands on whichever copy the map names — callers
  // serialize mutations against migration of the same shard.
  keep(machine_at(dst).adopt(shard, src));
  // Publish: flip the epoch everywhere (minus the deliberately-stale).
  publish(published_.with_placement(shard, dst), skip_publish);
  // Drain + free: the source blocks until in-flight fetches complete,
  // then drops the shard (its client stays kept for storage() holders).
  machine_at(src).drop(shard);
}

void Cluster::add_replica(ShardId shard, int machine,
                          const std::vector<int>& skip_publish) {
  GE_REQUIRE(machine >= 0 && machine < options_.num_machines,
             "replica target out of range");
  std::lock_guard<std::mutex> lock(admin_mu_);
  const int src = published_.node_of(shard);
  GE_REQUIRE(src != machine, "primary cannot replicate onto itself");
  keep(machine_at(machine).adopt(shard, src));
  publish(published_.with_replica(shard, machine), skip_publish);
}

std::shared_ptr<VersionedShardStore> Cluster::store(ShardId shard) {
  std::lock_guard<std::mutex> lock(admin_mu_);
  return machine_at(published_.node_of(shard)).service().store_ptr(shard);
}

std::uint64_t Cluster::apply_edge_mutations(
    std::span<const EdgeMutationOp> ops) {
  return machine_at(0).apply_mutations(ops).version;
}

void Cluster::compact_shard(ShardId shard) {
  std::vector<int> serving;
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    serving.push_back(published_.node_of(shard));
    for (const std::int32_t rep : published_.replicas(shard)) {
      serving.push_back(rep);
    }
  }
  for (const int m : serving) machine_at(m).compact(shard);
}

void Cluster::compact_all() {
  for (ShardId s = 0; s < options_.num_machines; ++s) compact_shard(s);
}

template <typename F>
std::uint64_t Cluster::sum_clients(F field) const {
  std::lock_guard<std::mutex> lock(admin_mu_);
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += field(*c);
  return n;
}

void Cluster::reset_stats() {
  std::lock_guard<std::mutex> lock(admin_mu_);
  for (const auto& c : clients_) {
    c->stats().reset();
    c->reset_adjacency_cache_stats();
  }
}

std::uint64_t Cluster::total_remote_calls() const {
  return sum_clients(
      [](const DistGraphStorage& c) { return c.stats().remote_calls.load(); });
}

std::uint64_t Cluster::total_remote_nodes() const {
  return sum_clients(
      [](const DistGraphStorage& c) { return c.stats().remote_nodes.load(); });
}

std::uint64_t Cluster::total_remote_bytes() const {
  return sum_clients(
      [](const DistGraphStorage& c) { return c.stats().remote_bytes(); });
}

std::uint64_t Cluster::total_adjacency_cache_hits() const {
  return sum_clients([](const DistGraphStorage& c) -> std::uint64_t {
    const AdjacencyCacheStats* cs = c.adjacency_cache_stats();
    return cs != nullptr ? cs->hits.load() : 0;
  });
}

std::uint64_t Cluster::total_adjacency_cache_misses() const {
  return sum_clients([](const DistGraphStorage& c) -> std::uint64_t {
    const AdjacencyCacheStats* cs = c.adjacency_cache_stats();
    return cs != nullptr ? cs->misses.load() : 0;
  });
}

double Cluster::remote_ratio() const {
  const std::uint64_t local = sum_clients(
      [](const DistGraphStorage& c) { return c.stats().local_nodes.load(); });
  const std::uint64_t remote = total_remote_nodes();
  return (local + remote) > 0
             ? static_cast<double>(remote) /
                   static_cast<double>(local + remote)
             : 0.0;
}

}  // namespace ppr
