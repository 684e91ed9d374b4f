// A K-node TcpTransport mesh inside one test process, over loopback
// ephemeral ports: every frame crosses the kernel's TCP stack, as between
// graph_engine_node processes.
#pragma once

#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rpc/tcp_transport.hpp"

namespace ppr {

/// Bind all `n` transports, exchange their real ports, and connect the
/// full mesh concurrently; throws the first connect error.
inline std::vector<std::shared_ptr<TcpTransport>> make_mesh(
    int n, TcpTransportOptions options = {}) {
  const std::vector<TcpPeer> peers(static_cast<std::size_t>(n),
                                   TcpPeer{"127.0.0.1", 0});
  std::vector<std::shared_ptr<TcpTransport>> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ts.push_back(std::make_shared<TcpTransport>(i, peers, options));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ts[static_cast<std::size_t>(i)]->set_peer_port(
          j, ts[static_cast<std::size_t>(j)]->listen_port());
    }
  }
  std::vector<std::thread> threads;
  std::mutex mu;
  std::exception_ptr error;
  for (auto& t : ts) {
    threads.emplace_back([&t, &mu, &error] {
      try {
        t->connect_mesh();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  return ts;
}

}  // namespace ppr
