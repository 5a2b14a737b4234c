// ingest: writes beside reads. One closed-loop caller over a 4-shard
// ShardRouter (240 products, cap 10, alignment off) repeats rounds of
// three steps: append 8 reviews for Zipf(1.0)-popular known products to
// the WAL with WalWriter, IngestDriver::DrainOnce(), then 16 lone
// Selects of uniformly drawn targets. Ingest invalidates the engine
// caches the interactive workload reads warm, so a read-path gain that
// costs freshness shows here; it is the only workload that exercises
// service/ingest and cold opinion vectorization. The WAL never fsyncs
// (fsync_every = 0): disk flush latency belongs to the host, not the
// program. Its traced run also runs the batch probe (batch.cc), which
// measures the router layer.

#include <unistd.h>

#include <mutex>
#include <set>
#include <thread>

#include "harness.h"
#include "service/ingest/delta.h"
#include "service/ingest/driver.h"
#include "service/ingest/wal.h"
#include "service/router.h"

namespace perfbench {
namespace {

using namespace comparesets;

constexpr size_t kShards = 4;
constexpr size_t kItemCap = 10;
constexpr size_t kAppends = 8;
constexpr size_t kSelects = 16;

struct Round {
  std::vector<WalRecord> records;
  std::vector<SelectRequest> selects;
};

class Ingest : public Workload {
 public:
  explicit Ingest(const Args& args)
      : args_(args),
        products_(args.tiny ? 80 : 240),
        wal_path_(args.workdir + "/ingest.wal") {
    instances_.max_comparative_items = kItemCap;
  }
  ~Ingest() override { Teardown(); }

  std::string SpecJson() const override {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"ingest\", \"seed\": %llu, "
                  "\"catalog\": \"Cellphone\", \"catalog_seed\": %llu, "
                  "\"products\": %zu, "
                  "\"item_cap\": %zu, \"callers\": 1, \"rounds\": %zu, "
                  "\"appends_per_round\": %zu, \"selects_per_round\": %zu, "
                  "\"shards\": %zu, \"selector\": \"CompaReSetS+\", "
                  "\"grid\": \"m=3 lambda=1 mu=0.1\", \"alignment\": false, "
                  "\"wal_fsync_every\": 0}",
                  static_cast<unsigned long long>(args_.seed),
                  static_cast<unsigned long long>(kCatalogSeed), products_,
                  kItemCap, rounds_.size(), kAppends, kSelects, kShards);
    return buf;
  }

  Status Setup(SetupTimes* times) override {
    Teardown();
    double t0 = NowSeconds();
    COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(products_));
    double t1 = NowSeconds();
    base_ = corpus;  // The reference replays from here; not set-up work.
    double t1b = NowSeconds();
    COMPARESETS_ASSIGN_OR_RETURN(auto indexed,
                                 IndexedCorpus::Build(std::move(corpus),
                                                      instances_));
    double t2 = NowSeconds();
    RouterOptions options;
    options.engine.measure_alignment = false;
    COMPARESETS_ASSIGN_OR_RETURN(
        router_, ShardRouter::Create(indexed, kShards, options));
    double t3 = NowSeconds();
    ::unlink(wal_path_.c_str());
    WalWriterOptions wal_options;
    wal_options.fsync_every = 0;
    COMPARESETS_ASSIGN_OR_RETURN(writer_, WalWriter::Open(wal_path_,
                                                          wal_options));
    IngestDriverOptions driver_options;
    driver_options.wal_path = wal_path_;
    DeltaCorpusBuilder::Options builder_options;
    builder_options.instances = instances_;
    COMPARESETS_ASSIGN_OR_RETURN(
        driver_, IngestDriver::Create(Corpus(base_), router_.get(),
                                      driver_options, builder_options));
    double t4 = NowSeconds();
    times->generate_s = t1 - t0;
    times->index_s = t2 - t1b;
    times->partition_s = t3 - t2;
    times->start_s = t4 - t3;
    if (rounds_.empty()) BuildSequence(*indexed);
    return Status::OK();
  }

  Status Run(bool traced, Window* window) override {
    std::unique_ptr<DeltaCorpusBuilder> builder;
    if (traced) {
      // The traced run performs IngestDriver's drain steps itself, so
      // each step is timed around its own public call.
      DeltaCorpusBuilder::Options builder_options;
      builder_options.instances = instances_;
      COMPARESETS_ASSIGN_OR_RETURN(
          builder, DeltaCorpusBuilder::Create(Corpus(base_), router_->bounds(),
                                              builder_options));
    }
    uint64_t offset = 0;
    window->call_s.reserve(rounds_.size() * kSelects);
    window->outcomes.reserve(rounds_.size() * kSelects);
    window->freshness_s.reserve(rounds_.size());
    Status status = TimeWindow(window, [&]() -> Status {
      for (const Round& round : rounds_) {
        double first_append = NowSeconds();
        for (const WalRecord& record : round.records) {
          double a0 = NowSeconds();
          COMPARESETS_RETURN_NOT_OK(writer_.Append(record));
          if (traced) append_us_.push_back((NowSeconds() - a0) * 1e6);
        }
        if (traced) {
          COMPARESETS_RETURN_NOT_OK(DrainTraced(builder.get(), &offset));
        } else {
          COMPARESETS_ASSIGN_OR_RETURN(IngestDrainStats stats,
                                       driver_->DrainOnce());
          if (stats.records_applied != round.records.size()) {
            return Status::Internal("drain applied " +
                                    std::to_string(stats.records_applied) +
                                    " of " +
                                    std::to_string(round.records.size()));
          }
        }
        window->freshness_s.push_back(NowSeconds() - first_append);
        for (const SelectRequest& request : round.selects) {
          double start = NowSeconds();
          Result<SelectResponse> answer = router_->Select(request);
          window->call_s.push_back(NowSeconds() - start);
          window->outcomes.push_back(Summarize(request, answer, traced));
        }
      }
      return Status::OK();
    });
    COMPARESETS_RETURN_NOT_OK(status);
    if (traced) final_corpus_ = Corpus(builder->corpus());
    return Status::OK();
  }

  Status Verify(const Window& window, Verdict* verdict) override {
    // Every round's answers against a single engine over a full rebuild
    // of the corpus as of that round, rounds split over a few threads.
    const size_t threads = std::min<size_t>(4, rounds_.size());
    std::mutex mutex;
    Status failure = Status::OK();
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        size_t lo = rounds_.size() * w / threads;
        size_t hi = rounds_.size() * (w + 1) / threads;
        Verdict local;
        Status status = VerifyRounds(window, lo, hi, &local);
        std::lock_guard<std::mutex> lock(mutex);
        if (!status.ok()) failure = status;
        verdict->checked += local.checked;
        for (size_t i = 0; i < local.mismatches; ++i) {
          verdict->Mismatch(local.first_mismatch);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    COMPARESETS_RETURN_NOT_OK(failure);
    return VerifyFinalState(verdict);
  }

  Status Layers(const Window& traced, LayerValues* layers,
                Verdict* verdict) override {
    COMPARESETS_ASSIGN_OR_RETURN(
        auto final_index, IndexedCorpus::Build(final_corpus_, instances_));
    KernelLayers(*final_index, traced, layers);
    LayerValues& l = *layers;
    l["ingest.append_us"] = Median(append_us_);
    l["ingest.delta_build_ms"] = Median(delta_ms_);
    l["ingest.publish_ms"] = Median(publish_ms_);
    l["ingest.shards_touched_per_batch"] = Mean(shards_touched_);
    l["ingest.records_dropped"] = records_dropped_;
    double cache_mb = 0.0;
    for (size_t s = 0; s < kShards; ++s) {
      cache_mb += EngineCacheMb(router_->shard_engine(s));
    }
    l["engine.cache_mb"] = cache_mb;
    l["unattributed_ms"] = LoneSelectUnattributedMs(traced, {});
    // Catalog-wide precompute over a sharded router: the router layer.
    return BatchLayers(args_, layers, verdict);
  }

  void Teardown() override {
    driver_.reset();
    router_.reset();
    (void)writer_.Close();
    ::unlink(wal_path_.c_str());
  }

 private:
  /// IngestDriver::DrainOnce's steps, each timed: replay the WAL tail,
  /// build the delta, publish every touched shard.
  Status DrainTraced(DeltaCorpusBuilder* builder, uint64_t* offset) {
    COMPARESETS_ASSIGN_OR_RETURN(WalReplayResult tail,
                                 ReplayWal(wal_path_, *offset));
    *offset = tail.valid_bytes;
    double d0 = NowSeconds();
    COMPARESETS_ASSIGN_OR_RETURN(CorpusDelta delta,
                                 builder->ApplyBatch(tail.records));
    double d1 = NowSeconds();
    for (ShardDelta& shard : delta.shards) {
      COMPARESETS_RETURN_NOT_OK(router_->ApplyShardDelta(
          shard.shard_id, std::move(shard.snapshot), shard.reviews_added));
    }
    double d2 = NowSeconds();
    delta_ms_.push_back((d1 - d0) * 1e3);
    publish_ms_.push_back((d2 - d1) * 1e3);
    shards_touched_.push_back(static_cast<double>(delta.shards.size()));
    records_dropped_ += static_cast<double>(delta.records_dropped);
    return Status::OK();
  }

  Status VerifyRounds(const Window& window, size_t lo, size_t hi,
                      Verdict* verdict) const {
    Corpus corpus = base_;
    for (size_t r = 0; r < hi; ++r) {
      for (const WalRecord& record : rounds_[r].records) {
        COMPARESETS_RETURN_NOT_OK(ApplyWalRecordToCorpus(record, &corpus));
      }
      if (r < lo) continue;
      COMPARESETS_ASSIGN_OR_RETURN(auto snapshot,
                                   IndexedCorpus::Build(corpus, instances_));
      SelectionEngine engine(snapshot, SerialReferenceOptions());
      for (size_t j = 0; j < rounds_[r].selects.size(); ++j) {
        const Outcome& served = window.outcomes[r * kSelects + j];
        Result<SelectResponse> want = engine.Select(rounds_[r].selects[j]);
        ++verdict->checked;
        if (!want.ok() || !served.ok || !served.exact ||
            PayloadDigest(want.value()) != served.digest) {
          verdict->Mismatch("round " + std::to_string(r) +
                            " differs from a full rebuild: " +
                            RequestKey(rounds_[r].selects[j]));
        }
      }
    }
    return Status::OK();
  }

  /// The served state after the last round against a full rebuild, on
  /// every target whose instance holds a product that got reviews.
  Status VerifyFinalState(Verdict* verdict) {
    Corpus corpus = base_;
    std::set<std::string> touched;
    for (const Round& round : rounds_) {
      for (const WalRecord& record : round.records) {
        COMPARESETS_RETURN_NOT_OK(ApplyWalRecordToCorpus(record, &corpus));
        touched.insert(record.product_id);
      }
    }
    COMPARESETS_ASSIGN_OR_RETURN(auto rebuilt,
                                 IndexedCorpus::Build(std::move(corpus),
                                                      instances_));
    std::vector<SelectRequest> requests;
    for (const ProblemInstance& instance : rebuilt->instances()) {
      for (const Product* item : instance.items) {
        if (touched.count(item->id) != 0) {
          requests.push_back(DefaultRequest(instance.target().id));
          break;
        }
      }
    }
    std::map<std::string, uint64_t> reference;
    COMPARESETS_RETURN_NOT_OK(ReferenceDigests(rebuilt, requests, &reference));
    std::vector<Outcome> served;
    for (size_t begin = 0; begin < requests.size(); begin += 64) {
      std::vector<SelectRequest> chunk(
          requests.begin() + begin,
          requests.begin() + std::min(begin + 64, requests.size()));
      std::vector<Result<SelectResponse>> answers = router_->SelectBatch(chunk);
      for (size_t i = 0; i < chunk.size(); ++i) {
        served.push_back(Summarize(requests[begin + i], answers[i], false));
      }
    }
    CheckAgainst(served, reference, verdict);
    return Status::OK();
  }

  static EngineOptions SerialReferenceOptions() {
    EngineOptions options;
    options.threads = 1;
    options.measure_alignment = false;
    options.result_capacity = 0;
    options.trace_capacity = 0;
    return options;
  }

  void BuildSequence(const IndexedCorpus& indexed) {
    const size_t rounds = args_.tiny ? 12 : SequenceCalls(args_, 30.0, 200);
    const auto& products = base_.products();
    const auto& instances = indexed.instances();
    Rng rng(args_.seed, /*stream=*/14);
    std::vector<size_t> product_rank = Permutation(products.size(), &rng);
    Zipf product_zipf(products.size(), 1.0);
    for (size_t r = 0; r < rounds; ++r) {
      Round round;
      for (size_t k = 0; k < kAppends; ++k) {
        const Product& product = products[product_rank[
            product_zipf.Sample(&rng)]];
        // The new review reuses the text and opinions of a random
        // existing one, under a fresh id.
        const Product* source = nullptr;
        while (source == nullptr || source->reviews.empty()) {
          source = &products[rng.UniformU32(
              static_cast<uint32_t>(products.size()))];
        }
        const Review& review = source->reviews[rng.UniformU32(
            static_cast<uint32_t>(source->reviews.size()))];
        WalRecord record = MakeWalRecord(product.id, review, base_.catalog());
        record.review_id =
            "perfbench-r" + std::to_string(r) + "-" + std::to_string(k);
        record.reviewer_id = "perfbench-u" + std::to_string(k);
        round.records.push_back(std::move(record));
      }
      // Reads spread uniformly over the catalog: the cold-read cost after
      // each drain then averages over many instances, not a few hot ones.
      for (size_t k = 0; k < kSelects; ++k) {
        round.selects.push_back(DefaultRequest(
            instances[rng.UniformU32(static_cast<uint32_t>(instances.size()))]
                .target()
                .id));
      }
      rounds_.push_back(std::move(round));
    }
  }

  Args args_;
  size_t products_;
  std::string wal_path_;
  InstanceOptions instances_;
  std::vector<Round> rounds_;
  Corpus base_;
  Corpus final_corpus_;
  std::unique_ptr<ShardRouter> router_;
  WalWriter writer_;
  std::unique_ptr<IngestDriver> driver_;
  std::vector<double> append_us_, delta_ms_, publish_ms_, shards_touched_;
  double records_dropped_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const Args& args) {
  return std::make_unique<Ingest>(args);
}

}  // namespace perfbench
