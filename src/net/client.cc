#include "net/client.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "util/timer.h"

namespace comparesets {

namespace {

/// Deadlines on the wire are clamped to this floor instead of dropping
/// to <= 0 (which would mean "no deadline"): an already-expired request
/// still reaches the engine as an immediately-expiring one, so the
/// ENGINE's DeadlineExceeded message comes back, never a client-made one.
constexpr double kDeadlineFloorSeconds = 1e-9;

/// Pooled idle connections kept per replica; extras are closed.
constexpr size_t kMaxIdlePerReplica = 8;

double AdjustDeadline(double deadline_seconds, double elapsed) {
  if (deadline_seconds <= 0.0) return deadline_seconds;
  return std::max(deadline_seconds - elapsed, kDeadlineFloorSeconds);
}

/// Classifies one received frame against the expected response type.
/// Sets *transport_failed = false when the server actually answered
/// (including with a kError frame); *reusable when the connection
/// finished a clean request/response cycle.
Result<std::string> InterpretFrame(NetFrame frame, uint16_t response_type,
                                   bool* transport_failed, bool* reusable) {
  *reusable = false;
  if (frame.type == static_cast<uint16_t>(MessageType::kError)) {
    // The server closes after a kError frame, so the channel is dead,
    // but the answer itself is final — never retried.
    *transport_failed = false;
    Status server_error;
    if (!DecodeErrorPayload(frame.payload, &server_error).ok()) {
      return Status::IOError("undecodable error frame from shard server");
    }
    return server_error;
  }
  if (frame.type != response_type) {
    return Status::IOError("unexpected frame type " +
                           std::to_string(frame.type) + " (wanted " +
                           std::to_string(response_type) + ")");
  }
  *reusable = true;
  return std::move(frame.payload);
}

/// One synchronous exchange on an already-connected socket.
Result<std::string> Exchange(Socket& socket, uint16_t request_type,
                             uint16_t response_type,
                             const std::string& payload, double send_timeout,
                             double recv_budget, bool* transport_failed,
                             bool* reusable) {
  *reusable = false;
  Status sent = socket.SendFrame(request_type, payload, send_timeout);
  if (!sent.ok()) return sent;
  Result<NetFrame> frame = socket.RecvFrame(recv_budget);
  if (!frame.ok()) return frame.status();
  return InterpretFrame(std::move(frame).value(), response_type,
                        transport_failed, reusable);
}

}  // namespace

RpcShardBackend::RpcShardBackend(RpcBackendOptions options)
    : options_(std::move(options)), idle_(options_.replicas.size()) {}

Result<std::unique_ptr<RpcShardBackend>> RpcShardBackend::Create(
    RpcBackendOptions options) {
  if (options.replicas.empty()) {
    return Status::InvalidArgument(
        "RpcShardBackend requires at least one replica address");
  }
  for (const std::string& address : options.replicas) {
    COMPARESETS_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));
    (void)parsed;
  }
  return std::unique_ptr<RpcShardBackend>(
      new RpcShardBackend(std::move(options)));
}

Result<Socket> RpcShardBackend::AcquireConnection(size_t replica) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!idle_[replica].empty()) {
      Socket socket = std::move(idle_[replica].back());
      idle_[replica].pop_back();
      return socket;
    }
  }
  Result<Socket> connected = Socket::Connect(
      options_.replicas[replica], options_.connect_timeout_seconds);
  if (connected.ok()) {
    connections_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  return connected;
}

void RpcShardBackend::ReleaseConnection(size_t replica, Socket socket) {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (idle_[replica].size() < kMaxIdlePerReplica) {
    idle_[replica].push_back(std::move(socket));
  }
  // else: socket destructor closes it.
}

Result<std::string> RpcShardBackend::CallOnce(
    size_t replica, uint16_t request_type, uint16_t response_type,
    const std::string& payload, double recv_budget, bool inject_faults,
    bool* transport_failed) {
  *transport_failed = true;
  FaultInjector* injector =
      inject_faults ? options_.fault_injector.get() : nullptr;
  if (injector != nullptr) {
    Status injected = injector->Inject(FaultSite::kConnect);
    if (!injected.ok()) return injected;
  }
  Result<Socket> acquired = AcquireConnection(replica);
  if (!acquired.ok()) return acquired.status();
  Socket socket = std::move(acquired).value();
  if (injector != nullptr) {
    Status injected = injector->Inject(FaultSite::kSend);
    if (!injected.ok()) {
      socket.Close();
      return injected;
    }
  }
  Status sent =
      socket.SendFrame(request_type, payload, options_.send_timeout_seconds);
  if (!sent.ok()) {
    socket.Close();
    return sent;
  }
  if (injector != nullptr) {
    Status injected = injector->Inject(FaultSite::kRecv);
    if (!injected.ok()) {
      // The request IS in flight; dropping the connection here is what
      // makes an injected recv fault equivalent to a lost response.
      socket.Close();
      return injected;
    }
  }
  bool reusable = false;
  Result<NetFrame> frame = socket.RecvFrame(recv_budget);
  Result<std::string> out =
      frame.ok() ? InterpretFrame(std::move(frame).value(), response_type,
                                  transport_failed, &reusable)
                 : Result<std::string>(frame.status());
  if (reusable && out.ok()) {
    ReleaseConnection(replica, std::move(socket));
  } else {
    socket.Close();
  }
  return out;
}

Result<std::string> RpcShardBackend::CallHedged(uint16_t request_type,
                                                uint16_t response_type,
                                                const std::string& payload,
                                                double recv_budget,
                                                bool* transport_failed) {
  *transport_failed = true;
  Result<Socket> first = AcquireConnection(0);
  Result<Socket> second = AcquireConnection(1);
  if (!first.ok() && !second.ok()) return first.status();
  if (!first.ok() || !second.ok()) {
    // Only one replica reachable: degrade to a plain exchange on it.
    size_t replica = first.ok() ? 0 : 1;
    Socket socket =
        first.ok() ? std::move(first).value() : std::move(second).value();
    bool reusable = false;
    Result<std::string> out =
        Exchange(socket, request_type, response_type, payload,
                 options_.send_timeout_seconds, recv_budget, transport_failed,
                 &reusable);
    if (reusable && out.ok()) {
      ReleaseConnection(replica, std::move(socket));
    } else {
      socket.Close();
    }
    return out;
  }

  hedged_selects_.fetch_add(1, std::memory_order_relaxed);
  Socket sockets[2] = {std::move(first).value(), std::move(second).value()};
  bool alive[2] = {false, false};
  Status last = Status::Unavailable("hedged request never sent");
  for (int leg = 0; leg < 2; ++leg) {
    Status sent = sockets[leg].SendFrame(request_type, payload,
                                         options_.send_timeout_seconds);
    if (sent.ok()) {
      alive[leg] = true;
    } else {
      last = sent;
      sockets[leg].Close();
    }
  }

  Timer timer;
  while (alive[0] || alive[1]) {
    struct pollfd fds[2];
    int legs[2];
    int nfds = 0;
    for (int leg = 0; leg < 2; ++leg) {
      if (!alive[leg]) continue;
      fds[nfds].fd = sockets[leg].fd();
      fds[nfds].events = POLLIN;
      fds[nfds].revents = 0;
      legs[nfds] = leg;
      ++nfds;
    }
    int wait_ms = -1;
    if (recv_budget > 0.0) {
      double remaining = recv_budget - timer.ElapsedSeconds();
      if (remaining <= 0.0) {
        last = Status::Timeout("hedged recv timed out");
        break;
      }
      wait_ms = static_cast<int>(remaining * 1000.0) + 1;
    }
    int ready = ::poll(fds, static_cast<nfds_t>(nfds), wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      last = Status::IOError("poll failed on hedged request");
      break;
    }
    if (ready == 0) {
      last = Status::Timeout("hedged recv timed out");
      break;
    }
    for (int i = 0; i < nfds; ++i) {
      if (fds[i].revents == 0) continue;
      int leg = legs[i];
      double remaining = recv_budget > 0.0
                             ? std::max(recv_budget - timer.ElapsedSeconds(),
                                        kDeadlineFloorSeconds)
                             : 0.0;
      bool reusable = false;
      Result<NetFrame> frame = sockets[leg].RecvFrame(remaining);
      Result<std::string> out =
          frame.ok() ? InterpretFrame(std::move(frame).value(), response_type,
                                      transport_failed, &reusable)
                     : Result<std::string>(frame.status());
      if (out.ok() || !*transport_failed) {
        // First answer wins. The loser is shut down and NEVER pooled:
        // its (late, duplicate) response must not be readable as the
        // answer to any future request.
        int other = 1 - leg;
        if (alive[other]) {
          sockets[other].ShutdownBoth();
          sockets[other].Close();
        }
        if (reusable && out.ok()) {
          ReleaseConnection(static_cast<size_t>(leg), std::move(sockets[leg]));
        } else {
          sockets[leg].Close();
        }
        return out;
      }
      last = out.status();
      sockets[leg].Close();
      alive[leg] = false;
    }
  }
  for (int leg = 0; leg < 2; ++leg) {
    if (alive[leg]) sockets[leg].Close();
  }
  return last;
}

Result<std::string> RpcShardBackend::Call(uint16_t request_type,
                                          uint16_t response_type,
                                          const EncodeFn& encode,
                                          const BudgetFn& budget,
                                          bool inject_faults, bool hedge) {
  Timer timer;
  const size_t replicas = options_.replicas.size();
  const int attempts = options_.max_transport_attempts > 0
                           ? options_.max_transport_attempts
                           : static_cast<int>(replicas) + 1;
  Status last = Status::Unavailable("no transport attempts configured");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      transport_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    const double elapsed = timer.ElapsedSeconds();
    Result<std::string> payload = encode(elapsed);
    if (!payload.ok()) return payload.status();
    bool transport_failed = true;
    Result<std::string> out =
        (hedge && replicas >= 2 && attempt == 0)
            ? CallHedged(request_type, response_type, payload.value(),
                         budget(elapsed), &transport_failed)
            : CallOnce(attempt % replicas, request_type, response_type,
                       payload.value(), budget(elapsed), inject_faults,
                       &transport_failed);
    // Application answers — OK payloads AND decoded server errors — are
    // final; only transport failures rotate to the next replica.
    if (out.ok() || !transport_failed) return out;
    last = out.status();
  }
  return last;
}

Result<SelectResponse> RpcShardBackend::Select(const SelectRequest& request) {
  EncodeFn encode = [&request](double elapsed) -> Result<std::string> {
    SelectRequest adjusted = request;
    adjusted.deadline_seconds =
        AdjustDeadline(adjusted.deadline_seconds, elapsed);
    return EncodeSelectRequest(adjusted);
  };
  BudgetFn budget = [this, &request](double elapsed) {
    if (request.deadline_seconds <= 0.0) return options_.recv_timeout_seconds;
    return AdjustDeadline(request.deadline_seconds, elapsed) +
           options_.deadline_grace_seconds;
  };
  Result<std::string> payload = Call(
      static_cast<uint16_t>(MessageType::kSelectRequest),
      static_cast<uint16_t>(MessageType::kSelectResponse), encode, budget,
      /*inject_faults=*/true, options_.hedge_selects);
  if (!payload.ok()) return payload.status();
  COMPARESETS_ASSIGN_OR_RETURN(Result<SelectResponse> result,
                               DecodeSelectResult(payload.value()));
  return result;
}

std::vector<Result<SelectResponse>> RpcShardBackend::SelectBatch(
    const std::vector<SelectRequest>& requests) {
  if (requests.empty()) return {};
  EncodeFn encode = [&requests](double elapsed) -> Result<std::string> {
    std::vector<SelectRequest> adjusted = requests;
    for (SelectRequest& r : adjusted) {
      r.deadline_seconds = AdjustDeadline(r.deadline_seconds, elapsed);
    }
    return EncodeBatchRequest(adjusted);
  };
  BudgetFn budget = [this, &requests](double elapsed) {
    double max_deadline = 0.0;
    for (const SelectRequest& r : requests) {
      if (r.deadline_seconds <= 0.0) return options_.recv_timeout_seconds;
      max_deadline = std::max(max_deadline, r.deadline_seconds);
    }
    return AdjustDeadline(max_deadline, elapsed) +
           options_.deadline_grace_seconds;
  };
  Result<std::string> payload = Call(
      static_cast<uint16_t>(MessageType::kBatchRequest),
      static_cast<uint16_t>(MessageType::kBatchResponse), encode, budget,
      /*inject_faults=*/true, /*hedge=*/false);
  if (!payload.ok()) {
    return std::vector<Result<SelectResponse>>(requests.size(),
                                               payload.status());
  }
  Result<std::vector<Result<SelectResponse>>> decoded =
      DecodeBatchResponse(payload.value());
  if (!decoded.ok()) {
    return std::vector<Result<SelectResponse>>(requests.size(),
                                               decoded.status());
  }
  std::vector<Result<SelectResponse>> results = std::move(decoded).value();
  if (results.size() != requests.size()) {
    return std::vector<Result<SelectResponse>>(
        requests.size(),
        Status::IOError("batch response size mismatch: sent " +
                        std::to_string(requests.size()) + ", got " +
                        std::to_string(results.size())));
  }
  return results;
}

Result<ShardStatus> RpcShardBackend::Probe() {
  EncodeFn encode = [](double) -> Result<std::string> {
    return std::string();
  };
  BudgetFn budget = [this](double) { return options_.probe_timeout_seconds; };
  Result<std::string> payload = Call(
      static_cast<uint16_t>(MessageType::kHealthRequest),
      static_cast<uint16_t>(MessageType::kHealthResponse), encode, budget,
      /*inject_faults=*/false, /*hedge=*/false);
  if (!payload.ok()) return payload.status();
  return DecodeShardHealth(payload.value());
}

std::string RpcShardBackend::name() const {
  std::string name = "rpc:";
  name += options_.replicas[0];
  if (options_.replicas.size() > 1) {
    name += "+";
    name += std::to_string(options_.replicas.size() - 1);
    name += "r";
  }
  return name;
}

Result<ShardStatus> ProbeServer(const std::string& address,
                                double timeout_seconds) {
  COMPARESETS_ASSIGN_OR_RETURN(Socket socket,
                               Socket::Connect(address, timeout_seconds));
  Status sent =
      socket.SendFrame(static_cast<uint16_t>(MessageType::kHealthRequest),
                       std::string(), timeout_seconds);
  COMPARESETS_RETURN_NOT_OK(sent);
  COMPARESETS_ASSIGN_OR_RETURN(NetFrame frame,
                               socket.RecvFrame(timeout_seconds));
  bool transport_failed = true;
  bool reusable = false;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::string payload,
      InterpretFrame(std::move(frame),
                     static_cast<uint16_t>(MessageType::kHealthResponse),
                     &transport_failed, &reusable));
  return DecodeShardHealth(payload);
}

Status WaitForServerReady(const std::string& address,
                          double timeout_seconds) {
  Timer timer;
  Status last = Status::Unavailable("server never probed");
  for (;;) {
    Result<ShardStatus> health = ProbeServer(address, /*timeout_seconds=*/1.0);
    if (health.ok() && health.value().ready) return Status::OK();
    last = health.ok()
               ? Status::Unavailable(std::string("shard not ready, state=") +
                                     ShardStateName(health.value().state))
               : health.status();
    if (timer.ElapsedSeconds() >= timeout_seconds) {
      return Status::Timeout("shard at " + address + " not ready: " +
                             last.ToString());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status RequestServerShutdown(const std::string& address,
                             double timeout_seconds) {
  COMPARESETS_ASSIGN_OR_RETURN(Socket socket,
                               Socket::Connect(address, timeout_seconds));
  Status sent =
      socket.SendFrame(static_cast<uint16_t>(MessageType::kShutdownRequest),
                       std::string(), timeout_seconds);
  COMPARESETS_RETURN_NOT_OK(sent);
  COMPARESETS_ASSIGN_OR_RETURN(NetFrame frame,
                               socket.RecvFrame(timeout_seconds));
  if (frame.type != static_cast<uint16_t>(MessageType::kShutdownResponse)) {
    return Status::IOError("unexpected frame type " +
                           std::to_string(frame.type) +
                           " in shutdown handshake");
  }
  return Status::OK();
}

}  // namespace comparesets
