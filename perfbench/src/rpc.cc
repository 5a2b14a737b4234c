// The net layer, measured inside the interactive workload's traced run.
// A fixed sequence of RpcShardRouter::SelectBatch frames of 32 Zipf(1.0)
// targets goes to 4 in-process ShardServers on unix sockets, one
// connection each, over the interactive catalog (240 products, cap 10,
// alignment on) with every shard's memo warmed first. Nearly every
// request is a memo hit, so the net codecs, sockets and the RPC scatter
// / gather dominate and the solver does almost nothing.
//
// It is not a workload of its own: a call is ~0.6 ms of thread
// hand-offs, and its per-call tail swings with host scheduling far more
// than any workload's, so it could not be gated.

#include "harness.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "service/backend.h"
#include "service/router.h"
#include "service/rpc_router.h"

namespace perfbench {
namespace {

using namespace comparesets;

constexpr size_t kShards = 4;
constexpr size_t kFrame = 32;
constexpr size_t kItemCap = 10;

class Rpc {
 public:
  Rpc(const Args& args, size_t calls)
      : args_(args), products_(args.tiny ? 40 : 240), calls_(calls) {}
  ~Rpc() { Teardown(); }

  /// Generates and indexes the catalog, starts the servers (reached
  /// through WaitReady) and warms every shard's memo.
  Status Setup() {
    COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(products_));
    InstanceOptions instances;
    instances.max_comparative_items = kItemCap;
    COMPARESETS_ASSIGN_OR_RETURN(
        corpus_, IndexedCorpus::Build(std::move(corpus), instances));
    COMPARESETS_ASSIGN_OR_RETURN(
        LocalBackendSet local,
        CreateLocalBackends(corpus_, kShards, EngineOptions{}));
    std::vector<std::unique_ptr<ShardBackend>> clients;
    for (size_t s = 0; s < kShards; ++s) {
      ShardServerOptions server_options;
      server_options.address =
          "unix:" + args_.workdir + "/rpc-" + std::to_string(s) + ".sock";
      COMPARESETS_ASSIGN_OR_RETURN(
          auto server,
          ShardServer::Start(std::move(local.backends[s]), server_options));
      RpcBackendOptions client_options;
      client_options.replicas = {server->bound_address()};
      client_options.shard_id = s;
      COMPARESETS_ASSIGN_OR_RETURN(auto client,
                                   RpcShardBackend::Create(client_options));
      clients.push_back(std::move(client));
      servers_.push_back(std::move(server));
    }
    COMPARESETS_ASSIGN_OR_RETURN(
        router_, RpcShardRouter::Create(std::move(local.bounds),
                                        std::move(clients)));
    COMPARESETS_RETURN_NOT_OK(router_->WaitReady(30.0));
    BuildSequence();
    return Warm([this](const std::vector<SelectRequest>& frame) {
      return router_->SelectBatch(frame);
    });
  }

  Status Run(Window* window) {
    return ReplayFrames(frames_, /*traced=*/true, window,
                        [this](const std::vector<SelectRequest>& frame) {
                          return router_->SelectBatch(frame);
                        });
  }

  Status Verify(const Window& window, Verdict* verdict) {
    std::vector<SelectRequest> all;
    for (const auto& frame : frames_) {
      all.insert(all.end(), frame.begin(), frame.end());
    }
    std::map<std::string, uint64_t> reference;
    COMPARESETS_RETURN_NOT_OK(ReferenceDigests(corpus_, all, &reference));
    CheckAgainst(window.outcomes, reference, verdict);
    return Status::OK();
  }

  /// Replays every frame on a warmed local router (rpc ≡ local, and the
  /// wire's share of the call) and through the response codecs.
  Status Layers(const Window& traced, LayerValues* layers,
                Verdict* verdict) {
    COMPARESETS_ASSIGN_OR_RETURN(std::unique_ptr<ShardRouter> local,
                                 ShardRouter::Create(corpus_, kShards, {}));
    COMPARESETS_RETURN_NOT_OK(
        Warm([&local](const std::vector<SelectRequest>& frame) {
          return local->SelectBatch(frame);
        }));
    std::vector<double> wire_ms, encode_us, decode_us, frame_kb;
    size_t offset = 0;
    for (size_t call = 0; call < frames_.size(); ++call) {
      const std::vector<SelectRequest>& frame = frames_[call];
      double start = NowSeconds();
      std::vector<Result<SelectResponse>> answers = local->SelectBatch(frame);
      wire_ms.push_back((traced.call_s[call] - (NowSeconds() - start)) * 1e3);
      std::vector<std::vector<Result<SelectResponse>>> served(kShards);
      for (size_t i = 0; i < frame.size(); ++i) {
        const Outcome& o = traced.outcomes[offset + i];
        ++verdict->checked;
        if (!answers[i].ok() || !o.ok ||
            PayloadDigest(answers[i].value()) != o.digest) {
          verdict->Mismatch("rpc answer differs from the local router: " +
                            RequestKey(frame[i]));
        }
        if (o.response != nullptr) {
          served[router_->ShardForTarget(frame[i].target_id)].emplace_back(
              *o.response);
        }
      }
      offset += frame.size();
      // The codecs on the frames the shards sent back for this call.
      for (const auto& shard_answers : served) {
        if (shard_answers.empty()) continue;
        double e0 = NowSeconds();
        std::string bytes = EncodeBatchResponse(shard_answers);
        double e1 = NowSeconds();
        auto decoded = DecodeBatchResponse(bytes);
        double e2 = NowSeconds();
        if (!decoded.ok()) {
          verdict->Mismatch("response frame does not decode: " +
                            decoded.status().ToString());
        }
        encode_us.push_back((e1 - e0) * 1e6);
        decode_us.push_back((e2 - e1) * 1e6);
        frame_kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
      }
    }
    LayerValues& l = *layers;
    l["net.wire_overhead_ms"] = Median(wire_ms);
    l["net.encode_us"] = Median(encode_us);
    l["net.decode_us"] = Median(decode_us);
    l["net.frame_kb"] = Mean(frame_kb);
    double connections = 0.0, protocol_errors = 0.0;
    for (const auto& server : servers_) {
      connections += static_cast<double>(server->connections_accepted());
      protocol_errors += static_cast<double>(server->protocol_errors());
    }
    l["net.connections"] = connections;
    l["net.protocol_errors"] = protocol_errors;
    return Status::OK();
  }

  void Teardown() {
    router_.reset();  // Drops pooled connections before the servers stop.
    for (auto& server : servers_) server->Shutdown();
    servers_.clear();
    corpus_.reset();
  }

 private:
  /// One request per catalog instance, in frames: fills every shard's
  /// memo with the answers the sequence asks for.
  template <typename Send>
  Status Warm(Send send) {
    for (size_t begin = 0; begin < warm_.size(); begin += kFrame) {
      std::vector<SelectRequest> frame(
          warm_.begin() + begin,
          warm_.begin() + std::min(begin + kFrame, warm_.size()));
      for (const auto& answer : send(frame)) {
        COMPARESETS_RETURN_NOT_OK(answer.status());
      }
    }
    return Status::OK();
  }

  void BuildSequence() {
    const auto& instances = corpus_->instances();
    for (const ProblemInstance& instance : instances) {
      warm_.push_back(DefaultRequest(instance.target().id));
    }
    Rng rng(args_.seed, /*stream=*/13);
    std::vector<size_t> rank_to_instance = Permutation(instances.size(), &rng);
    Zipf zipf(instances.size(), 1.0);
    for (size_t call = 0; call < calls_; ++call) {
      std::vector<SelectRequest> frame;
      for (size_t k = 0; k < kFrame; ++k) {
        frame.push_back(DefaultRequest(
            instances[rank_to_instance[zipf.Sample(&rng)]].target().id));
      }
      frames_.push_back(std::move(frame));
    }
  }

  Args args_;
  size_t products_;
  size_t calls_;
  std::vector<SelectRequest> warm_;
  std::vector<std::vector<SelectRequest>> frames_;
  std::shared_ptr<const IndexedCorpus> corpus_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::unique_ptr<RpcShardRouter> router_;
};

}  // namespace

Status NetLayers(const Args& args, LayerValues* layers, Verdict* verdict) {
  Rpc probe(args, args.tiny ? 24 : 1010);
  COMPARESETS_RETURN_NOT_OK(probe.Setup());
  Window window;
  COMPARESETS_RETURN_NOT_OK(probe.Run(&window));
  COMPARESETS_RETURN_NOT_OK(probe.Verify(window, verdict));
  return probe.Layers(window, layers, verdict);
}

}  // namespace perfbench
