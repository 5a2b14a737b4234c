// ShardServer: hosts one ShardBackend behind the wire protocol.
//
// One server = one shard. An accept thread hands each connection to its
// own handler thread, which answers frames sequentially until the peer
// goes away — the connection is the unit of ordering, exactly like a
// SelectionEngine call sequence. A kBatchRequest is answered by ONE
// backend SelectBatch call, so the engine's batch semantics (in-order
// memo hits) survive the hop unchanged.
//
// Protocol errors (unparseable frame, unsupported type, bad payload)
// answer with a kError frame carrying the typed Status, then close the
// connection — a malformed peer never crashes or wedges the server
// (tests/net_protocol_test.cc feeds it a corpus of mutated frames).
//
// Shutdown discipline (the fd-race-free pattern): Shutdown() first
// Interrupt()s the listener (shutdown(2) WITHOUT close, so the fd value
// the accept thread holds stays stable), then shutdown(2)s every live
// connection fd from a mutex-guarded registry, then joins all threads,
// and only then — single-threaded again — closes descriptors. A peer's
// kShutdownRequest triggers the same path via WaitForShutdown().

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "service/backend.h"

namespace comparesets {

struct ShardServerOptions {
  /// Listen address: "unix:PATH" or "tcp:HOST:PORT" (port 0 = pick an
  /// ephemeral port; bound_address() reports the resolved one).
  std::string address;
  int backlog = 16;
  /// Budget for writing one response frame; <= 0 waits forever.
  double send_timeout_seconds = 30.0;
};

/// One shard behind a socket. Thread-safe public surface.
class ShardServer {
 public:
  /// Binds, listens, and starts the accept loop. The server owns the
  /// backend for its lifetime.
  static Result<std::unique_ptr<ShardServer>> Start(
      std::unique_ptr<ShardBackend> backend, ShardServerOptions options);

  ~ShardServer();
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The resolved address peers should connect to.
  const std::string& bound_address() const { return bound_address_; }

  /// Blocks until a peer's kShutdownRequest (or a local Shutdown())
  /// asks the server to stop, then tears everything down. The
  /// shard_server binary's main thread lives here.
  void WaitForShutdown();

  /// Stops accepting, unblocks and joins every connection thread,
  /// closes all descriptors. Idempotent; callable from any thread
  /// except a connection handler (those call RequestShutdown via the
  /// shutdown handshake instead).
  void Shutdown();

  /// Asks the server to stop without blocking (safe from handlers).
  void RequestShutdown();

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_served() const {
    return frames_served_.load(std::memory_order_relaxed);
  }
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  ShardServer(std::unique_ptr<ShardBackend> backend,
              ShardServerOptions options);

  void AcceptLoop();
  void HandleConnection(Socket socket, uint64_t connection_id);
  /// Answers one frame. Returns false when the connection should close
  /// (protocol error, shutdown handshake, send failure).
  bool Dispatch(Socket& socket, const NetFrame& frame);
  /// Best-effort kError frame carrying `status`.
  void SendError(Socket& socket, const Status& status);

  std::unique_ptr<ShardBackend> backend_;
  ShardServerOptions options_;
  ListenSocket listener_;
  std::string bound_address_;

  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<std::thread> connection_threads_;
  /// Live connection fds, keyed by connection id — Shutdown interrupts
  /// them via shutdown(2); each handler closes its own socket on exit.
  std::unordered_map<uint64_t, int> live_fds_;
  uint64_t next_connection_id_ = 0;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
  bool torn_down_ = false;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace comparesets
