// Message-level (de)serialization for the shard RPC protocol: the
// typed payloads that travel inside net/wire_format.h frames.
//
// The vocabulary is deliberately small — the shard_server hosts ONE
// SelectionEngine, so the protocol is the engine's surface and nothing
// more: single selects, sub-batches (a router ships each shard its
// whole sub-batch in one frame so the engine's in-order memo
// semantics are preserved verbatim), health/readiness probes, and
// a clean shutdown handshake. Errors travel as a serialized Status with
// full code + message fidelity: the transport oracle requires the RPC
// path to surface *exactly* the Status the engine produced.
//
// Not on the wire, by design:
//   * SelectRequest::cancel — a CancelToken is a process-local pointer.
//     Cancellation crosses the socket as a deadline only; the client
//     stops waiting, the server finishes or expires on its own
//     (docs/execution-model.md).
//   * SelectorOptions::parallel — a runtime control the serving engine
//     overwrites anyway (every request fans out on the engine's pool).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire_format.h"
#include "service/backend.h"
#include "service/engine.h"
#include "service/indexed_corpus.h"
#include "util/status.h"

namespace comparesets {

/// Frame types. Values are wire contract — append only.
enum class MessageType : uint16_t {
  kSelectRequest = 1,
  kSelectResponse = 2,
  kBatchRequest = 3,
  kBatchResponse = 4,
  kHealthRequest = 5,
  kHealthResponse = 6,
  kShutdownRequest = 7,
  kShutdownResponse = 8,
  /// Server-side protocol failure (unparseable frame, unsupported
  /// type): carries a serialized Status; the connection closes after.
  kError = 9,
};

/// Stable lowercase name ("select_request", ...) for logs and errors.
const char* MessageTypeName(MessageType type);

// ShardStatus itself lives in service/backend.h — it is the probe
// surface of every ShardBackend, not just the RPC one.

// --- Status ----------------------------------------------------------------

// Out-parameter instead of Result<Status>: the decoded status is the
// PAYLOAD here (often an error), distinct from the parse outcome.
void EncodeStatusTo(const Status& status, WireWriter* writer);
Status DecodeStatusFrom(WireReader* reader, Status* out);

// --- SelectRequest ---------------------------------------------------------

std::string EncodeSelectRequest(const SelectRequest& request);
Result<SelectRequest> DecodeSelectRequest(std::string_view payload);

// --- Result<SelectResponse> ------------------------------------------------

std::string EncodeSelectResult(const Result<SelectResponse>& result);
Result<Result<SelectResponse>> DecodeSelectResult(std::string_view payload);

// --- Batches ---------------------------------------------------------------

std::string EncodeBatchRequest(const std::vector<SelectRequest>& requests);
Result<std::vector<SelectRequest>> DecodeBatchRequest(
    std::string_view payload);

std::string EncodeBatchResponse(
    const std::vector<Result<SelectResponse>>& results);
Result<std::vector<Result<SelectResponse>>> DecodeBatchResponse(
    std::string_view payload);

// --- Health ----------------------------------------------------------------

std::string EncodeShardHealth(const ShardStatus& health);
Result<ShardStatus> DecodeShardHealth(std::string_view payload);

// --- Error frame -----------------------------------------------------------

std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload, Status* out);

}  // namespace comparesets
