// RPC client for shard servers: RpcShardBackend speaks the
// net/wire_format.h protocol to one logical shard, optionally served by
// several replica processes.
//
// What the transport layer promises the router above it:
//   * Application fidelity — a Status produced by the remote engine
//     (NotFound, DeadlineExceeded, injected solve faults, ...) comes
//     back with identical code AND message, never rewritten. Transport
//     failures are the ONLY statuses this layer originates.
//   * Retry-to-replica — transport failures (connect refused, send /
//     recv errors, injected kConnect/kSend/kRecv faults) retry on
//     replica `attempt % num_replicas`, so a single-replica shard
//     degrades to retry-same-replica. Application statuses are final:
//     the remote engine already answered, retrying would re-run side
//     effects.
//   * Deadline charging — time burned inside the transport (connects,
//     retries) is subtracted from each request's deadline before
//     (re)serialization, clamped to a tiny positive floor so "already
//     expired" still reaches the engine as an (immediately expiring)
//     deadline and the engine's OWN DeadlineExceeded message comes
//     back — never a client-invented one. The read timeout is the
//     remaining deadline plus a grace window, so the server's verdict
//     always outruns the client's patience.
//   * Hedged selects — with hedging on and >= 2 replicas, a Select is
//     sent to two replicas and the first response wins. The losing
//     connection is shut down and NEVER returned to the pool, so a
//     late duplicate answer can never be misread as the response to a
//     later request (the "no duplicate side effects" proof obligation
//     in the transport oracle).
//
// Connections are pooled per replica; any error on a connection drops
// it (frames are request/response in lockstep, so a half-used channel
// is unrecoverable by construction).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/messages.h"
#include "net/socket.h"
#include "service/backend.h"
#include "service/fault_injector.h"

namespace comparesets {

struct RpcBackendOptions {
  /// Replica addresses for this shard ("unix:PATH" / "tcp:HOST:PORT").
  /// At least one; all replicas must serve identical corpora.
  std::vector<std::string> replicas;
  /// Shard id this backend fronts (for name() and error text).
  uint64_t shard_id = 0;
  double connect_timeout_seconds = 5.0;
  double send_timeout_seconds = 30.0;
  /// Read budget for requests WITHOUT a deadline; <= 0 waits forever
  /// (the ctest TIMEOUT is the backstop in CI).
  double recv_timeout_seconds = 0.0;
  /// Extra read budget past a request's deadline, so the server's own
  /// kDeadlineExceeded Status arrives instead of a client kTimeout.
  double deadline_grace_seconds = 5.0;
  double probe_timeout_seconds = 5.0;
  /// Transport attempts per call; 0 = one pass over the replicas plus
  /// one retry (num_replicas + 1).
  int max_transport_attempts = 0;
  /// Hedge single Selects across two replicas when replicas >= 2.
  bool hedge_selects = false;
  /// Client-side fault seams (kConnect/kSend/kRecv); nullptr = none.
  /// Probes are exempt — health checks must see the true transport.
  std::shared_ptr<FaultInjector> fault_injector;
};

/// One logical shard behind the wire protocol.
class RpcShardBackend : public ShardBackend {
 public:
  static Result<std::unique_ptr<RpcShardBackend>> Create(
      RpcBackendOptions options);

  Result<SelectResponse> Select(const SelectRequest& request) override;
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) override;
  Result<ShardStatus> Probe() override;
  std::string name() const override;

  uint64_t transport_retries() const {
    return transport_retries_.load(std::memory_order_relaxed);
  }
  uint64_t hedged_selects() const {
    return hedged_selects_.load(std::memory_order_relaxed);
  }
  uint64_t connections_opened() const {
    return connections_opened_.load(std::memory_order_relaxed);
  }

 private:
  /// Produces the (re-encoded) request payload for an attempt that
  /// starts `elapsed` seconds into the call, or an error to abort.
  using EncodeFn = std::function<Result<std::string>(double elapsed)>;
  /// Read budget for an attempt starting at `elapsed`.
  using BudgetFn = std::function<double(double elapsed)>;

  explicit RpcShardBackend(RpcBackendOptions options);

  Result<Socket> AcquireConnection(size_t replica);
  void ReleaseConnection(size_t replica, Socket socket);

  /// One request/response exchange with one replica. Sets
  /// *transport_failed when the failure happened in the transport
  /// (retryable) as opposed to a decoded server answer (final).
  Result<std::string> CallOnce(size_t replica, uint16_t request_type,
                               uint16_t response_type,
                               const std::string& payload, double recv_budget,
                               bool inject_faults, bool* transport_failed);

  /// Hedged exchange: same payload to two replicas, first answer wins,
  /// loser connection closed unpooled.
  Result<std::string> CallHedged(uint16_t request_type, uint16_t response_type,
                                 const std::string& payload, double recv_budget,
                                 bool* transport_failed);

  /// Retry loop over CallOnce (or CallHedged when `hedge`).
  Result<std::string> Call(uint16_t request_type, uint16_t response_type,
                           const EncodeFn& encode, const BudgetFn& budget,
                           bool inject_faults, bool hedge);

  RpcBackendOptions options_;
  std::mutex pool_mutex_;
  /// Idle pooled connections, per replica.
  std::vector<std::vector<Socket>> idle_;

  std::atomic<uint64_t> transport_retries_{0};
  std::atomic<uint64_t> hedged_selects_{0};
  std::atomic<uint64_t> connections_opened_{0};
};

/// Probes a shard server once: connect, health round trip.
Result<ShardStatus> ProbeServer(const std::string& address,
                                double timeout_seconds);

/// Polls ProbeServer until the server reports ready or the timeout
/// elapses (kTimeout, message carrying the last probe failure).
Status WaitForServerReady(const std::string& address, double timeout_seconds);

/// Asks a shard server to shut down cleanly (kShutdownRequest) and
/// waits for the acknowledgement.
Status RequestServerShutdown(const std::string& address,
                             double timeout_seconds);

}  // namespace comparesets
