#include "service/backend.h"

#include <utility>

#include "service/partitioner.h"
#include "service/request_pipeline.h"

namespace comparesets {

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kServing:
      return "serving";
    case ShardState::kSwapping:
      return "swapping";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

bool ParseShardState(const std::string& name, ShardState* out) {
  for (ShardState state :
       {ShardState::kServing, ShardState::kSwapping, ShardState::kDown}) {
    if (name == ShardStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

LocalShardBackend::LocalShardBackend(std::shared_ptr<SelectionEngine> engine,
                                     ShardKeyRange range)
    : engine_(std::move(engine)), range_(std::move(range)) {}

Result<SelectResponse> LocalShardBackend::Select(const SelectRequest& request) {
  return engine_->Select(request);
}

std::vector<Result<SelectResponse>> LocalShardBackend::SelectBatch(
    const std::vector<SelectRequest>& requests) {
  return engine_->SelectBatch(requests);
}

Result<ShardStatus> LocalShardBackend::Probe() {
  ShardStatus status;
  status.ready = true;
  status.shard_id = engine_->options().shard_id;
  status.range = range_;
  status.corpus_epoch = engine_->corpus_epoch();
  std::shared_ptr<const IndexedCorpus> snapshot = engine_->corpus();
  status.num_instances = snapshot->num_instances();
  status.num_products = snapshot->corpus().num_products();
  return status;
}

std::string LocalShardBackend::name() const {
  return "local:" + std::to_string(engine_->options().shard_id);
}

Result<LocalBackendSet> CreateLocalBackends(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    EngineOptions engine_options) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("CreateLocalBackends requires a corpus");
  }
  COMPARESETS_ASSIGN_OR_RETURN(
      std::vector<std::string> bounds,
      CorpusPartitioner::ComputeBounds(*corpus, num_shards));

  std::vector<std::shared_ptr<const IndexedCorpus>> shards;
  shards.reserve(num_shards);
  if (num_shards == 1) {
    // The unsharded snapshot IS the one-shard partition: serve it
    // as-is so the single-shard set shares every byte with a plain
    // engine.
    shards.push_back(std::move(corpus));
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      COMPARESETS_ASSIGN_OR_RETURN(
          auto shard, CorpusPartitioner::ExtractShard(*corpus, bounds, s));
      shards.push_back(std::move(shard));
    }
  }

  // ONE admission pipeline across all shard engines: max_in_flight is
  // a statement about the machine, not about any single shard.
  auto pipeline =
      std::make_shared<RequestPipeline>(engine_options.pipeline_options());
  // ONE worker pool likewise: the shards' fan-outs share the machine's
  // cores instead of each spawning a pool of its own.
  if (engine_options.pool == nullptr) {
    engine_options.pool = std::make_shared<ThreadPool>(engine_options.threads);
  }

  LocalBackendSet set;
  set.bounds = bounds;
  set.backends.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    EngineOptions shard_options = engine_options;
    shard_options.shard_id = s;
    shard_options.pipeline = pipeline;
    auto engine = std::make_shared<SelectionEngine>(std::move(shards[s]),
                                                    std::move(shard_options));
    ShardKeyRange range;
    range.begin = bounds[s];
    if (s + 1 < bounds.size()) range.end = bounds[s + 1];
    set.backends.push_back(
        std::make_unique<LocalShardBackend>(std::move(engine), range));
  }
  return set;
}

}  // namespace comparesets
