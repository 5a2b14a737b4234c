// Protocol-hardening tests for the net/ layer: the decode surface is
// fed a deterministic corpus of mutated frames — truncations at every
// prefix length, oversized length prefixes, garbage bytes mid-stream,
// version-mismatch headers — and must always answer with a clean typed
// Status: no crash, no hang, no unbounded read. A live ShardServer gets
// the same corpus over a real socket and must answer kError (or close)
// and keep serving fresh connections afterwards.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "service/backend.h"
#include "util/rng.h"

namespace comparesets {
namespace {

// --- Wire primitives -------------------------------------------------------

TEST(WireFormatTest, ScalarRoundTrip) {
  WireWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU16(0xbeef);
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(0x0123456789abcdefull);
  writer.WriteI32(-42);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteDouble(-0.0);
  writer.WriteDouble(1.0 / 3.0);
  writer.WriteString(std::string("hello \0 world", 13));

  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8().ValueOrDie(), 0xab);
  EXPECT_EQ(reader.ReadU16().ValueOrDie(), 0xbeef);
  EXPECT_EQ(reader.ReadU32().ValueOrDie(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().ValueOrDie(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.ReadI32().ValueOrDie(), -42);
  EXPECT_TRUE(reader.ReadBool().ValueOrDie());
  EXPECT_FALSE(reader.ReadBool().ValueOrDie());
  double negative_zero = reader.ReadDouble().ValueOrDie();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(reader.ReadDouble().ValueOrDie(), 1.0 / 3.0);
  EXPECT_EQ(reader.ReadString().ValueOrDie(), std::string("hello \0 world", 13));
  EXPECT_TRUE(reader.ExpectFullyConsumed("scalars").ok());
}

TEST(WireFormatTest, ReadPastEndIsParseError) {
  WireReader reader(std::string_view("\x01\x02", 2));
  EXPECT_TRUE(reader.ReadU8().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), StatusCode::kParseError);
}

TEST(WireFormatTest, StringLengthBeyondPayloadIsParseError) {
  WireWriter writer;
  writer.WriteU32(1000);  // Claims 1000 bytes; none follow.
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadString().status().code(), StatusCode::kParseError);
}

TEST(WireFormatTest, BadBoolByteIsParseError) {
  WireWriter writer;
  writer.WriteU8(7);
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadBool().status().code(), StatusCode::kParseError);
}

TEST(WireFormatTest, TrailingBytesFailExpectFullyConsumed) {
  WireWriter writer;
  writer.WriteU8(1);
  WireReader reader(writer.bytes());
  Status status = reader.ExpectFullyConsumed("thing");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("thing"), std::string::npos);
}

TEST(FrameHeaderTest, RoundTrip) {
  std::string frame = EncodeFrame(7, "payload");
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  auto header = DecodeFrameHeader(frame);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header.value().version, kWireVersion);
  EXPECT_EQ(header.value().type, 7);
  EXPECT_EQ(header.value().payload_bytes, 7u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "payload");
}

TEST(FrameHeaderTest, TruncatedHeaderIsParseError) {
  std::string frame = EncodeFrame(1, "x");
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    auto header = DecodeFrameHeader(std::string_view(frame.data(), len));
    EXPECT_EQ(header.status().code(), StatusCode::kParseError)
        << "prefix length " << len;
  }
}

TEST(FrameHeaderTest, BadMagicIsParseError) {
  std::string frame = EncodeFrame(1, "x");
  frame[0] = 'X';
  auto header = DecodeFrameHeader(frame);
  EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  EXPECT_NE(header.status().message().find("magic"), std::string::npos);
}

TEST(FrameHeaderTest, VersionMismatchIsInvalidArgument) {
  std::string frame = EncodeFrame(1, "x");
  frame[4] = static_cast<char>(kWireVersion + 1);
  auto header = DecodeFrameHeader(frame);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(header.status().message().find("version"), std::string::npos);
}

TEST(FrameHeaderTest, VersionMismatchNamesBothVersions) {
  // Negotiation contract: the refusal names the peer's version AND ours,
  // so an old client's log says exactly which build to upgrade to. A v1
  // frame is what a pre-tier binary actually sends; a v4 frame is the
  // previous protocol, whose SelectorOptions carried one more field.
  ASSERT_EQ(kWireVersion, 5);
  for (int version : {1, 4}) {
    std::string frame = EncodeFrame(1, "x");
    frame[4] = static_cast<char>(version);
    frame[5] = 0;
    auto header = DecodeFrameHeader(frame);
    ASSERT_EQ(header.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(header.status().message().find("peer speaks v" +
                                             std::to_string(version)),
              std::string::npos)
        << header.status();
    EXPECT_NE(header.status().message().find(
                  "this build speaks v" + std::to_string(kWireVersion)),
              std::string::npos)
        << header.status();
  }
}

TEST(FrameHeaderTest, OversizedLengthPrefixIsParseError) {
  std::string frame = EncodeFrame(1, "x");
  uint32_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(&frame[8], &huge, sizeof(huge));
  auto header = DecodeFrameHeader(frame);
  EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  EXPECT_NE(header.status().message().find("oversized"), std::string::npos);
}

// --- Message codecs --------------------------------------------------------

SelectRequest SampleRequest() {
  SelectRequest request;
  request.target_id = "cellphone-P00007";
  request.comparative_ids = {"cellphone-P00001", "cellphone-P00002"};
  request.selector = "CompaReSetS+";
  request.options.m = 4;
  request.options.lambda = 0.75;
  request.options.mu = 0.125;
  request.options.seed = 99;
  request.options.extra_sync_rounds = 2;
  request.options.min_tier = QualityTier::kAnytime;
  request.options.sample_threshold = 500;
  request.options.sample_size = 128;
  request.deadline_seconds = 1.5;
  return request;
}

TEST(MessageCodecTest, SelectRequestRoundTrip) {
  SelectRequest request = SampleRequest();
  auto decoded = DecodeSelectRequest(EncodeSelectRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const SelectRequest& got = decoded.value();
  EXPECT_EQ(got.target_id, request.target_id);
  EXPECT_EQ(got.comparative_ids, request.comparative_ids);
  EXPECT_EQ(got.selector, request.selector);
  EXPECT_EQ(got.options.m, request.options.m);
  EXPECT_EQ(got.options.lambda, request.options.lambda);
  EXPECT_EQ(got.options.mu, request.options.mu);
  EXPECT_EQ(got.options.seed, request.options.seed);
  EXPECT_EQ(got.options.extra_sync_rounds, request.options.extra_sync_rounds);
  EXPECT_EQ(got.options.min_tier, request.options.min_tier);
  EXPECT_EQ(got.options.sample_threshold, request.options.sample_threshold);
  EXPECT_EQ(got.options.sample_size, request.options.sample_size);
  EXPECT_EQ(got.deadline_seconds, request.deadline_seconds);
  EXPECT_EQ(got.priority, request.priority);
  // CancelTokens are process-local and never travel.
  EXPECT_EQ(got.cancel, nullptr);
}

TEST(MessageCodecTest, BatchPriorityRoundTrips) {
  SelectRequest request = SampleRequest();
  request.priority = RequestPriority::kBatch;
  auto decoded = DecodeSelectRequest(EncodeSelectRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().priority, RequestPriority::kBatch);
}

TEST(MessageCodecTest, UnknownPriorityByteInRequestIsParseError) {
  // v4 appends the priority class as the payload's final byte.
  std::string payload = EncodeSelectRequest(SampleRequest());
  payload[payload.size() - 1] = 7;
  auto decoded = DecodeSelectRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("priority"), std::string::npos)
      << decoded.status();
}

TEST(MessageCodecTest, UnknownTierByteInRequestIsParseError) {
  // The min_tier byte sits a fixed distance from the payload's end:
  // u8 tier, u64 sample_threshold, u64 sample_size, double deadline,
  // u8 priority.
  std::string payload = EncodeSelectRequest(SampleRequest());
  size_t tier_at = payload.size() - 1 - 8 - 8 - 8 - 1;
  payload[tier_at] = 7;
  auto decoded = DecodeSelectRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("quality tier"),
            std::string::npos)
      << decoded.status();
}

TEST(MessageCodecTest, UnknownTierByteInResponseIsParseError) {
  // Locate the response's tier byte by differencing two encodings that
  // differ only in the tier — immune to layout drift elsewhere.
  SelectResponse response;
  response.target_id = "cellphone-P00001";
  response.tier = QualityTier::kExact;
  std::string exact =
      EncodeSelectResult(Result<SelectResponse>(response));
  response.tier = QualityTier::kSampled;
  std::string sampled =
      EncodeSelectResult(Result<SelectResponse>(response));
  ASSERT_EQ(exact.size(), sampled.size());
  size_t tier_at = exact.size();
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] != sampled[i]) {
      tier_at = i;
      break;
    }
  }
  ASSERT_LT(tier_at, exact.size());
  exact[tier_at] = 7;
  auto decoded = DecodeSelectResult(exact);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("quality tier"),
            std::string::npos)
      << decoded.status();
}

TEST(MessageCodecTest, StatusFullFidelityThroughSelectResult) {
  Result<SelectResponse> error(
      Status::DeadlineExceeded("deadline exceeded in solve stage"));
  auto decoded = DecodeSelectResult(EncodeSelectResult(error));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_FALSE(decoded.value().ok());
  EXPECT_TRUE(decoded.value().status() == error.status())
      << decoded.value().status();
}

TEST(MessageCodecTest, SelectResponseRoundTripIsBitExact) {
  SelectResponse response;
  response.target_id = "cellphone-P00001";
  response.item_ids = {"cellphone-P00001", "cellphone-P00002"};
  response.selections = {{0, 2, 5}, {1}};
  response.objective = 66.0300000000000011;  // exercises bit-level fidelity
  response.alignment.target_vs_comparative.rougeL.f1 = 0.18159999999999998;
  response.alignment.among_items.rouge1.precision = 1.0 / 3.0;
  response.alignment.target_pairs = 25;
  response.alignment.among_pairs = 300;
  response.cache_hit = true;
  response.result_cache_hit = false;
  response.prepare_seconds = 0.25;
  response.solve_seconds = 1e-5;
  response.tier = QualityTier::kSampled;
  response.objective_gap = 0.03125;
  response.trace.request_id = 17;
  response.trace.shard_id = 3;
  response.trace.target_id = response.target_id;
  response.trace.tier = "sampled";
  response.trace.objective_gap = 0.03125;
  response.trace.spans.push_back({"crs.items", 0.001});

  auto decoded =
      DecodeSelectResult(EncodeSelectResult(Result<SelectResponse>(response)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded.value().ok());
  const SelectResponse& got = decoded.value().value();
  EXPECT_EQ(got.target_id, response.target_id);
  EXPECT_EQ(got.item_ids, response.item_ids);
  EXPECT_EQ(got.selections, response.selections);
  EXPECT_EQ(got.objective, response.objective);
  EXPECT_EQ(got.alignment.target_vs_comparative.rougeL.f1,
            response.alignment.target_vs_comparative.rougeL.f1);
  EXPECT_EQ(got.alignment.among_items.rouge1.precision,
            response.alignment.among_items.rouge1.precision);
  EXPECT_EQ(got.alignment.target_pairs, response.alignment.target_pairs);
  EXPECT_EQ(got.cache_hit, response.cache_hit);
  EXPECT_EQ(got.result_cache_hit, response.result_cache_hit);
  EXPECT_EQ(got.prepare_seconds, response.prepare_seconds);
  EXPECT_EQ(got.solve_seconds, response.solve_seconds);
  EXPECT_EQ(got.tier, response.tier);
  EXPECT_EQ(got.objective_gap, response.objective_gap);
  EXPECT_EQ(got.trace.request_id, response.trace.request_id);
  EXPECT_EQ(got.trace.shard_id, response.trace.shard_id);
  EXPECT_EQ(got.trace.tier, response.trace.tier);
  EXPECT_EQ(got.trace.objective_gap, response.trace.objective_gap);
  ASSERT_EQ(got.trace.spans.size(), 1u);
  EXPECT_EQ(got.trace.spans[0].name, "crs.items");
  EXPECT_EQ(got.trace.spans[0].seconds, 0.001);
}

TEST(MessageCodecTest, BatchRoundTripPreservesOrder) {
  std::vector<SelectRequest> requests(3, SampleRequest());
  requests[1].target_id = "cellphone-P00002";
  requests[2].selector = "CompaReSetSGreedy";
  auto decoded = DecodeBatchRequest(EncodeBatchRequest(requests));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value()[1].target_id, "cellphone-P00002");
  EXPECT_EQ(decoded.value()[2].selector, "CompaReSetSGreedy");

  std::vector<Result<SelectResponse>> results;
  SelectResponse ok_response;
  ok_response.target_id = "cellphone-P00002";
  results.emplace_back(ok_response);
  results.emplace_back(Status::NotFound("no such target"));
  auto batch = DecodeBatchResponse(EncodeBatchResponse(results));
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_TRUE(batch.value()[0].ok());
  EXPECT_EQ(batch.value()[0].value().target_id, "cellphone-P00002");
  EXPECT_EQ(batch.value()[1].status().code(), StatusCode::kNotFound);
}

TEST(MessageCodecTest, ShardHealthRoundTrip) {
  ShardStatus health;
  health.ready = true;
  health.shard_id = 2;
  health.state = ShardState::kServing;
  health.range.begin = "cellphone-P00030";
  health.range.end = "cellphone-P00045";
  health.corpus_epoch = 4;
  health.num_instances = 15;
  health.num_products = 60;
  auto decoded = DecodeShardHealth(EncodeShardHealth(health));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded.value().ready);
  EXPECT_EQ(decoded.value().shard_id, 2u);
  EXPECT_EQ(decoded.value().state, ShardState::kServing);
  EXPECT_EQ(decoded.value().range.begin, "cellphone-P00030");
  EXPECT_EQ(decoded.value().range.end, "cellphone-P00045");
  EXPECT_EQ(decoded.value().corpus_epoch, 4u);
  EXPECT_EQ(decoded.value().num_instances, 15u);
  EXPECT_EQ(decoded.value().num_products, 60u);
}

TEST(MessageCodecTest, ShardHealthWithAnUnknownStateIsAParseError) {
  std::string payload = EncodeShardHealth(ShardStatus{});
  // Swap the "serving" state string for an equal-length unknown one.
  size_t at = payload.find("serving");
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, 7, "resting");
  auto decoded = DecodeShardHealth(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

// --- Mutated-frame corpus over the decoders --------------------------------

// Deterministic corpus: a valid kSelectRequest frame plus systematic
// truncations, byte flips, length-prefix corruption, and pure garbage.
std::vector<std::string> MutatedFrameCorpus() {
  std::string valid = EncodeFrame(
      static_cast<uint16_t>(MessageType::kSelectRequest),
      EncodeSelectRequest(SampleRequest()));
  std::vector<std::string> corpus;

  // Every strict prefix (truncated header AND truncated payload).
  for (size_t len = 0; len < valid.size(); len += 3) {
    corpus.push_back(valid.substr(0, len));
  }
  // Single-byte flips sweeping the whole frame, seeded and reproducible.
  Rng rng(20260809, 1);
  for (int i = 0; i < 64; ++i) {
    std::string mutated = valid;
    size_t pos = static_cast<size_t>(rng.NextU32() % mutated.size());
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 + rng.NextU32() % 255));
    corpus.push_back(std::move(mutated));
  }
  // Oversized length prefix.
  {
    std::string mutated = valid;
    uint32_t huge = 0xffffffffu;
    std::memcpy(&mutated[8], &huge, sizeof(huge));
    corpus.push_back(std::move(mutated));
  }
  // Version from the future.
  {
    std::string mutated = valid;
    mutated[4] = 9;
    corpus.push_back(std::move(mutated));
  }
  // Garbage bytes with no structure at all.
  {
    std::string garbage;
    for (int i = 0; i < 256; ++i) {
      garbage.push_back(static_cast<char>(rng.NextU32() & 0xff));
    }
    corpus.push_back(std::move(garbage));
  }
  return corpus;
}

TEST(MutatedFrameTest, DecodersNeverCrashAndFailTyped) {
  for (const std::string& frame : MutatedFrameCorpus()) {
    auto header = DecodeFrameHeader(frame);
    if (!header.ok()) {
      EXPECT_TRUE(header.status().code() == StatusCode::kParseError ||
                  header.status().code() == StatusCode::kInvalidArgument)
          << header.status();
      continue;
    }
    // Header happened to survive mutation; the payload decoder must
    // still fail cleanly or produce a well-formed request.
    std::string_view payload(frame);
    payload.remove_prefix(std::min(frame.size(), kFrameHeaderBytes));
    auto request = DecodeSelectRequest(payload);
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), StatusCode::kParseError)
          << request.status();
    }
  }
}

TEST(MutatedFrameTest, ResponsePayloadDecoderNeverCrashesAndFailsTyped) {
  // Same discipline over the response decoder, with the v2 tier + gap
  // fields in the encoded bytes: truncations at every prefix and seeded
  // byte flips must decode to a typed error or a well-formed response.
  SelectResponse response;
  response.target_id = "cellphone-P00001";
  response.item_ids = {"cellphone-P00001", "cellphone-P00002"};
  response.selections = {{0, 2, 5}, {1}};
  response.objective = 42.5;
  response.tier = QualityTier::kSampled;
  response.objective_gap = 0.25;
  response.trace.tier = "sampled";
  response.trace.objective_gap = 0.25;
  std::string valid = EncodeSelectResult(Result<SelectResponse>(response));

  for (size_t len = 0; len < valid.size(); len += 3) {
    auto decoded = DecodeSelectResult(valid.substr(0, len));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
          << "prefix " << len << ": " << decoded.status();
    }
  }
  Rng rng(20260809, 2);
  for (int i = 0; i < 64; ++i) {
    std::string mutated = valid;
    size_t pos = static_cast<size_t>(rng.NextU32() % mutated.size());
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 + rng.NextU32() % 255));
    auto decoded = DecodeSelectResult(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
          << "flip at " << pos << ": " << decoded.status();
    }
  }
}

// --- Mutated frames against a live server ----------------------------------

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    auto defaults = DefaultConfig("Cellphone", 12);
    ASSERT_TRUE(defaults.ok());
    config = defaults.value();
    config.seed = 42;
    auto corpus = GenerateCorpus(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    auto indexed = IndexedCorpus::Build(std::move(corpus).value());
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    EngineOptions engine_options;
    engine_options.threads = 1;
    auto backends = CreateLocalBackends(indexed.value(), 1, engine_options);
    ASSERT_TRUE(backends.ok()) << backends.status();
    ShardServerOptions server_options;
    server_options.address =
        "unix:" + ::testing::TempDir() + "/net_protocol_live.sock";
    auto server = ShardServer::Start(
        std::move(backends.value().backends[0]), server_options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
  }

  std::unique_ptr<ShardServer> server_;
};

TEST_F(LiveServerTest, MutatedFramesGetTypedErrorsAndServerSurvives) {
  for (const std::string& frame : MutatedFrameCorpus()) {
    // A byte flip can leave the frame VALID — a well-formed request
    // (possibly with hostile options the server would dutifully burn
    // CPU on) or a different legitimate message type. Serving those is
    // correct behaviour, not a protocol error: this test only sends
    // frames that are actually broken.
    auto header = DecodeFrameHeader(frame);
    if (header.ok()) {
      if (header.value().type !=
          static_cast<uint16_t>(MessageType::kSelectRequest)) {
        continue;
      }
      if (frame.size() >= kFrameHeaderBytes + header.value().payload_bytes) {
        std::string_view payload(frame);
        payload.remove_prefix(kFrameHeaderBytes);
        payload = payload.substr(0, header.value().payload_bytes);
        if (DecodeSelectRequest(payload).ok()) continue;
      }
    }
    auto socket = Socket::Connect(server_->bound_address(), 5.0);
    ASSERT_TRUE(socket.ok()) << socket.status();
    Socket connection = std::move(socket).value();
    Status sent = connection.SendAll(frame.data(), frame.size(), 5.0);
    if (!sent.ok()) continue;  // Server already slammed the door: fine.
    // Half-close: signal end-of-input so a truncated frame cannot park
    // the server waiting for bytes that will never come, while keeping
    // our read side open for the server's verdict.
    connection.ShutdownWrite();
    // Whatever comes back — a kError frame or a straight close — must
    // arrive promptly. A hang here fails the test timeout.
    (void)connection.RecvFrame(5.0);
    connection.Close();
  }
  // The server must still answer a well-formed probe afterwards.
  auto health = ProbeServer(server_->bound_address(), 5.0);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health.value().ready);
  EXPECT_GT(server_->protocol_errors(), 0u);
}

TEST_F(LiveServerTest, UnsupportedMessageTypeAnswersKError) {
  auto socket = Socket::Connect(server_->bound_address(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  Socket connection = std::move(socket).value();
  ASSERT_TRUE(connection.SendFrame(999, "", 5.0).ok());
  auto frame = connection.RecvFrame(5.0);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame.value().type, static_cast<uint16_t>(MessageType::kError));
  Status server_error;
  ASSERT_TRUE(DecodeErrorPayload(frame.value().payload, &server_error).ok());
  EXPECT_EQ(server_error.code(), StatusCode::kInvalidArgument);
  connection.Close();
}

TEST_F(LiveServerTest, VersionMismatchAnswersKErrorWithInvalidArgument) {
  auto socket = Socket::Connect(server_->bound_address(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  Socket connection = std::move(socket).value();
  std::string frame = EncodeFrame(
      static_cast<uint16_t>(MessageType::kHealthRequest), "");
  frame[4] = 9;  // A version this build does not speak.
  ASSERT_TRUE(connection.SendAll(frame.data(), frame.size(), 5.0).ok());
  auto reply = connection.RecvFrame(5.0);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply.value().type, static_cast<uint16_t>(MessageType::kError));
  Status server_error;
  ASSERT_TRUE(DecodeErrorPayload(reply.value().payload, &server_error).ok());
  EXPECT_EQ(server_error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(server_error.message().find("version"), std::string::npos);
  // The refusal must name the version THIS server speaks, so the old
  // peer's operator knows what to upgrade to.
  EXPECT_NE(server_error.message().find(
                "this build speaks v" + std::to_string(kWireVersion)),
            std::string::npos)
      << server_error;
  connection.Close();
}

TEST_F(LiveServerTest, OldWireVersionFrameGetsTypedRefusal) {
  // A v1 peer (pre-tier build) sends a structurally valid health probe
  // under its own version; this v2 server must refuse with a typed
  // error naming both versions instead of misparsing the payload.
  auto socket = Socket::Connect(server_->bound_address(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  Socket connection = std::move(socket).value();
  std::string frame = EncodeFrame(
      static_cast<uint16_t>(MessageType::kHealthRequest), "");
  frame[4] = 1;  // Wire version 1.
  frame[5] = 0;
  ASSERT_TRUE(connection.SendAll(frame.data(), frame.size(), 5.0).ok());
  auto reply = connection.RecvFrame(5.0);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply.value().type, static_cast<uint16_t>(MessageType::kError));
  Status server_error;
  ASSERT_TRUE(DecodeErrorPayload(reply.value().payload, &server_error).ok());
  EXPECT_EQ(server_error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(server_error.message().find("peer speaks v1"), std::string::npos)
      << server_error;
  EXPECT_NE(server_error.message().find(
                "this build speaks v" + std::to_string(kWireVersion)),
            std::string::npos)
      << server_error;
  connection.Close();
}

}  // namespace
}  // namespace comparesets
