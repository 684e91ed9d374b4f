// Elastic shard plane, end-to-end over real processes (DESIGN.md §13):
// live migration while the cluster keeps answering, and kill -9 failover
// onto a replica — both holding SSPPR answers bit-identical to the
// pre-change cluster. The in-process counterparts live in routing_test;
// this file is the "it survives real sockets and real process death"
// layer.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/client.hpp"
#include "cluster/config.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "rpc/tcp_transport.hpp"
#include "serve/service_types.hpp"

#ifdef GE_NODE_BIN

namespace ppr {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "cluster_elastic.XXXXXX")
            .string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

pid_t spawn_node(const std::string& config_path, int node_id,
                 const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    const std::string config_arg = "--config=" + config_path;
    const std::string node_arg = "--node=" + std::to_string(node_id);
    ::execl(GE_NODE_BIN, "graph_engine_node", config_arg.c_str(),
            node_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

/// A booted 3-storage-node cluster plus the mesh-member client. `extra`
/// is appended to the config (retry/failover knobs).
struct LiveCluster {
  TempDir dir;
  ClusterConfig config;
  std::vector<pid_t> pids;
  std::unique_ptr<cluster::ClusterClient> client;

  explicit LiveCluster(const std::string& extra = "") {
    const Graph g = generate_clustered(500, 3, 2500, 400, 1.6, 11);
    const std::string graph_path = dir.path + "/graph.pgrf";
    save_graph(g, graph_path);

    // A fixed port can be stolen between selection and bind; retry the
    // whole bootstrap with a fresh base. Bases are drawn below Linux's
    // default ephemeral range (32768 and up), so an outbound connection
    // cannot hold one, and a lost attempt costs its connect timeout.
    std::mt19937 rng(static_cast<unsigned>(::getpid()));
    for (int attempt = 0; attempt < 3 && client == nullptr; ++attempt) {
      const int base = 20000 + static_cast<int>(rng() % 12000);
      std::string text;
      text += "cluster_name = elastic-e2e\n";
      text += "graph = " + graph_path + "\n";
      text += "partition = hash\n";
      text += "server_threads = 2\nquery_threads = 2\nexecutors = 1\n";
      text += extra;
      for (int i = 0; i < 3; ++i) {
        text += "node " + std::to_string(i) + " 127.0.0.1 " +
                std::to_string(base + i) + " storage\n";
      }
      text += "node 3 127.0.0.1 " + std::to_string(base + 3) + " client\n";
      const std::string config_path = dir.path + "/cluster.conf";
      std::ofstream(config_path) << text;
      config = ClusterConfig::parse_string(text, config_path);

      for (int i = 0; i < 3; ++i) {
        pids.push_back(spawn_node(config_path, i,
                                  dir.path + "/node-" + std::to_string(i) +
                                      ".log"));
      }
      try {
        TcpTransportOptions net;
        net.connect_timeout_s = 20.0;
        client = std::make_unique<cluster::ClusterClient>(config, 3, net);
      } catch (const EngineError& e) {
        GE_LOG(kWarn) << "cluster boot attempt " << attempt
                      << " failed: " << e.what();
        for (const pid_t pid : pids) ::kill(pid, SIGKILL);
        for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
        pids.clear();
      }
    }
  }

  /// One graph node whose source shard is `shard` (identity placement at
  /// boot: shard s starts on node s).
  NodeId source_on_shard(ShardId shard) const {
    for (NodeId s = 0; s < client->num_graph_nodes(); ++s) {
      if (client->mapping().to_ref(s).shard == shard) return s;
    }
    ADD_FAILURE() << "no source on shard " << shard;
    return 0;
  }

  /// Graceful teardown; nodes in `killed` were SIGKILLed by the test and
  /// must have died from exactly that signal — everyone else exits 0.
  void shutdown_and_reap(const std::vector<std::size_t>& killed = {}) {
    client->shutdown_cluster();
    client->leave();
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const bool was_killed =
          std::find(killed.begin(), killed.end(), i) != killed.end();
      if (was_killed) continue;  // reaped at kill time
      int status = 0;
      ASSERT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "node " << i << " exited abnormally (status " << status << ")";
    }
  }
};

void expect_bit_identical(const cluster::SspprReply& before,
                          const cluster::SspprReply& after,
                          const char* when) {
  ASSERT_EQ(after.status, before.status) << when;
  EXPECT_EQ(after.num_pushes, before.num_pushes) << when;
  ASSERT_EQ(after.entries.size(), before.entries.size()) << when;
  for (std::size_t i = 0; i < before.entries.size(); ++i) {
    EXPECT_EQ(after.entries[i].first, before.entries[i].first)
        << when << " entry " << i;
    // Bit-identical, not approximately equal: the push order depends only
    // on shard ids, never on which node hosts the shard.
    EXPECT_EQ(after.entries[i].second, before.entries[i].second)
        << when << " entry " << i;
  }
}

TEST(ClusterElastic, LiveMigrationKeepsAnswersBitIdentical) {
  LiveCluster c;
  ASSERT_NE(c.client, nullptr) << "cluster never booted";

  // One source per shard, answered before any placement change.
  std::vector<NodeId> sources;
  std::vector<cluster::SspprReply> before;
  for (ShardId s = 0; s < 3; ++s) {
    sources.push_back(c.source_on_shard(s));
    before.push_back(c.client->ssppr(sources.back()));
    ASSERT_EQ(before.back().status,
              static_cast<std::uint8_t>(serve::QueryStatus::kOk));
  }

  // Live-migrate shard 2 onto node 0 (the coordinator orchestrates:
  // copy over the storage wire, publish epoch+1 to the whole mesh, drain
  // and free the source).
  const ShardMap moved = c.client->migrate_shard(2, 0);
  EXPECT_EQ(moved.node_of(2), 0);
  EXPECT_GT(moved.epoch(), 1u);
  EXPECT_EQ(c.client->owner_of(sources[2]), 0);

  // Every shard answers exactly as before — including the moved one, now
  // served by node 0, and a second migration hop back.
  for (ShardId s = 0; s < 3; ++s) {
    expect_bit_identical(before[static_cast<std::size_t>(s)],
                         c.client->ssppr(sources[static_cast<std::size_t>(s)]),
                         "after migration");
  }
  const ShardMap back = c.client->migrate_shard(2, 2);
  EXPECT_EQ(back.node_of(2), 2);
  expect_bit_identical(before[2], c.client->ssppr(sources[2]),
                       "after migrating back");

  // The elastic counters ride the standard metrics export; the adopter
  // counted the snapshot bytes.
  const std::string metrics = c.client->metrics_json(0);
  EXPECT_NE(metrics.find("rpc.retries"), std::string::npos);
  EXPECT_NE(metrics.find("routing.stale_epoch_hits"), std::string::npos);
  EXPECT_NE(metrics.find("migration.bytes_copied"), std::string::npos);
  EXPECT_EQ(metrics.find("\"migration.bytes_copied\": 0"),
            std::string::npos)
      << "adopting node never counted copied bytes";

  c.shutdown_and_reap();
}

TEST(ClusterElastic, KillDashNineFailsOverToReplicaBitIdentically) {
  // Tight failover knobs: a dead peer is usually detected by the broken
  // link (fast); the timeout only backstops a wedged-but-connected peer.
  LiveCluster c(
      "rpc_timeout_s = 10\nrpc_max_attempts = 5\nrpc_backoff_ms = 50\n");
  ASSERT_NE(c.client, nullptr) << "cluster never booted";

  const NodeId source = c.source_on_shard(2);
  const cluster::SspprReply before = c.client->ssppr(source);
  ASSERT_EQ(before.status,
            static_cast<std::uint8_t>(serve::QueryStatus::kOk));

  // Replicate shard 2 onto node 0 while its primary (node 2) still
  // serves, then kill the primary without any goodbye.
  const ShardMap replicated = c.client->add_replica(2, 0);
  ASSERT_EQ(replicated.replicas(2), (std::vector<std::int32_t>{0}));
  ::kill(c.pids[2], SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(c.pids[2], &status, 0), c.pids[2]);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The next query for the dead node's shard rides the retry plane: the
  // failed call re-routes onto the promoted replica, and the answer is
  // bit-identical — a kill -9 degrades throughput, never correctness.
  const cluster::SspprReply after = c.client->ssppr(source);
  expect_bit_identical(before, after, "after kill -9");
  EXPECT_EQ(c.client->owner_of(source), 0);

  // Survivors are healthy and queries on their own shards still work.
  EXPECT_EQ(c.client->ping(0), 0);
  EXPECT_EQ(c.client->ping(1), 1);
  const NodeId other = c.source_on_shard(1);
  EXPECT_EQ(c.client->ssppr(other).status,
            static_cast<std::uint8_t>(serve::QueryStatus::kOk));

  c.shutdown_and_reap({2});
}

}  // namespace
}  // namespace ppr

#endif  // GE_NODE_BIN
