#include "net/server.h"

#include <sys/socket.h>

#include <utility>

#include "net/messages.h"

namespace comparesets {

ShardServer::ShardServer(std::unique_ptr<ShardBackend> backend,
                         ShardServerOptions options)
    : backend_(std::move(backend)), options_(std::move(options)) {}

Result<std::unique_ptr<ShardServer>> ShardServer::Start(
    std::unique_ptr<ShardBackend> backend, ShardServerOptions options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("ShardServer requires a backend");
  }
  COMPARESETS_ASSIGN_OR_RETURN(
      ListenSocket listener,
      ListenSocket::Listen(options.address, options.backlog));
  std::unique_ptr<ShardServer> server(
      new ShardServer(std::move(backend), std::move(options)));
  server->listener_ = std::move(listener);
  server->bound_address_ = server->listener_.bound_address();
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

ShardServer::~ShardServer() { Shutdown(); }

void ShardServer::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Interrupt()/Close() surfaces as an error here — the exit signal.
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    Socket socket = std::move(accepted).value();
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t id = next_connection_id_++;
    live_fds_.emplace(id, socket.fd());
    connection_threads_.emplace_back(
        [this, id](Socket sock) { HandleConnection(std::move(sock), id); },
        std::move(socket));
  }
}

void ShardServer::HandleConnection(Socket socket, uint64_t connection_id) {
  for (;;) {
    // Wait forever for the next frame: an idle connection parks in
    // poll(2) until the peer writes or Shutdown shuts the fd down.
    Result<NetFrame> frame = socket.RecvFrame(/*timeout_seconds=*/0.0);
    if (!frame.ok()) {
      const Status& status = frame.status();
      if (status.code() == StatusCode::kParseError ||
          status.code() == StatusCode::kInvalidArgument) {
        // Malformed bytes (bad magic, oversized length, version skew):
        // tell the peer what was wrong, then drop the connection — the
        // stream is unframeable from here on.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(socket, status);
      }
      break;
    }
    if (!Dispatch(socket, frame.value())) break;
  }
  {
    // Deregister BEFORE closing: once the fd is closed the kernel may
    // recycle its number, and a concurrent Shutdown sweep must never
    // shutdown(2) a descriptor that now belongs to someone else.
    std::lock_guard<std::mutex> lock(mutex_);
    live_fds_.erase(connection_id);
  }
  socket.Close();
}

bool ShardServer::Dispatch(Socket& socket, const NetFrame& frame) {
  const double send_timeout = options_.send_timeout_seconds;
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kSelectRequest: {
      Result<SelectRequest> request = DecodeSelectRequest(frame.payload);
      if (!request.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(socket, request.status());
        return false;
      }
      Result<SelectResponse> result = backend_->Select(request.value());
      return socket
          .SendFrame(static_cast<uint16_t>(MessageType::kSelectResponse),
                     EncodeSelectResult(result), send_timeout)
          .ok();
    }
    case MessageType::kBatchRequest: {
      Result<std::vector<SelectRequest>> requests =
          DecodeBatchRequest(frame.payload);
      if (!requests.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(socket, requests.status());
        return false;
      }
      std::vector<Result<SelectResponse>> results =
          backend_->SelectBatch(requests.value());
      return socket
          .SendFrame(static_cast<uint16_t>(MessageType::kBatchResponse),
                     EncodeBatchResponse(results), send_timeout)
          .ok();
    }
    case MessageType::kHealthRequest: {
      Result<ShardStatus> health = backend_->Probe();
      if (!health.ok()) {
        SendError(socket, health.status());
        return false;
      }
      return socket
          .SendFrame(static_cast<uint16_t>(MessageType::kHealthResponse),
                     EncodeShardHealth(health.value()), send_timeout)
          .ok();
    }
    case MessageType::kShutdownRequest: {
      // Acknowledge first so the peer's RecvFrame completes, then ask
      // the waiter thread to tear the server down (a handler must never
      // join itself).
      (void)socket.SendFrame(
          static_cast<uint16_t>(MessageType::kShutdownResponse),
          std::string(), send_timeout);
      RequestShutdown();
      return false;
    }
    default: {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(socket,
                Status::InvalidArgument(
                    "unsupported message type " + std::to_string(frame.type)));
      return false;
    }
  }
}

void ShardServer::SendError(Socket& socket, const Status& status) {
  (void)socket.SendFrame(static_cast<uint16_t>(MessageType::kError),
                         EncodeErrorPayload(status),
                         options_.send_timeout_seconds);
}

void ShardServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void ShardServer::WaitForShutdown() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  Shutdown();
}

void ShardServer::Shutdown() {
  RequestShutdown();
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Another thread is (or was) tearing down; wait for it to finish
    // by serializing on shutdown_mutex_-guarded torn_down_.
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] { return torn_down_; });
    return;
  }
  // Unblock the accept thread without closing its fd (no descriptor
  // race), then unblock every connection handler the same way.
  listener_.Interrupt();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, fd] : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Second pass: a connection accepted between the first pass and the
    // accept thread's exit registered after we swept live_fds_. With
    // the accept thread joined the registry is final — interrupt any
    // stragglers so every handler unblocks.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, fd] : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // Single-threaded again: safe to close the listener and unlink the
  // Unix socket path.
  listener_.Close();
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  torn_down_ = true;
  shutdown_cv_.notify_all();
}

}  // namespace comparesets
