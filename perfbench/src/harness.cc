#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "core/design_matrix.h"
#include "data/synthetic.h"
#include "eval/alignment.h"
#include "linalg/nnls.h"
#include "linalg/nomp.h"
#include "opinion/vectors.h"

namespace perfbench {

using namespace comparesets;

const std::vector<MetricDef>& EndToEndMetricTable() {
  static const std::vector<MetricDef> kTable = {
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"throughput_rps", "1/s"},
      {"cpu_ms_per_request", "ms"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
      {"ok_frac", "frac"},
  };
  return kTable;
}

const std::vector<MetricDef>& LayerMetricTable() {
  static const std::vector<MetricDef> kTable = {
      {"util.threads", "count"},
      {"util.cpu_util", "frac"},
      {"util.intra_fanouts_per_request", "count"},
      {"pipeline.queue_wait_p50_ms", "ms"},
      {"pipeline.queue_wait_p99_ms", "ms"},
      {"engine.memo_hit_frac", "frac"},
      {"engine.vector_hit_frac", "frac"},
      {"engine.memo_hit_us", "us"},
      {"engine.prepare_p50_ms", "ms"},
      {"engine.solve_p50_ms", "ms"},
      {"engine.solve_p99_ms", "ms"},
      {"engine.cache_mb", "MB"},
      {"core.crs_ms", "ms"},
      {"core.compare_sets_ms", "ms"},
      {"core.compare_sets_plus_ms", "ms"},
      {"core.plus_rounds", "count"},
      {"core.nnls_nonconverged", "count"},
      {"linalg.gram_build_us", "us"},
      {"linalg.nomp_us", "us"},
      {"linalg.nnls_us", "us"},
      {"opinion.vectorize_ms", "ms"},
      {"eval.alignment_ms", "ms"},
      {"eval.alignment_pairs", "count"},
      {"router.slowest_shard_ms", "ms"},
      {"router.shard_skew", "ratio"},
      {"router.overhead_ms", "ms"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.frame_kb", "KB"},
      {"net.wire_overhead_ms", "ms"},
      {"net.connections", "count"},
      {"net.protocol_errors", "count"},
      {"ingest.append_us", "us"},
      {"ingest.delta_build_ms", "ms"},
      {"ingest.publish_ms", "ms"},
      {"ingest.shards_touched_per_batch", "count"},
      {"ingest.records_dropped", "count"},
      {"ingest.freshness_p50_ms", "ms"},
      {"ingest.freshness_p95_ms", "ms"},
      {"setup.generate_s", "s"},
      {"setup.index_s", "s"},
      {"setup.partition_s", "s"},
      {"setup.start_s", "s"},
      {"setup.warm_s", "s"},
      {"unattributed_ms", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  return kTable;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/// A "Key:   <number> ..." field of /proc/self/status, or 0.
double ProcStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atof(line.c_str() + len + 1);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return ProcStatusField("VmHWM") / 1024.0; }

int ThreadCount() { return static_cast<int>(ProcStatusField("Threads")); }

int Nproc() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double EngineCacheMb(const SelectionEngine& engine) {
  for (const auto& [name, value] : engine.SnapshotMetrics().gauges) {
    if (name == "cache.approx_bytes") return value / (1024.0 * 1024.0);
  }
  return 0.0;
}

Result<Corpus> GenerateCatalog(size_t products) {
  COMPARESETS_ASSIGN_OR_RETURN(SyntheticConfig config,
                               DefaultConfig("Cellphone", products));
  config.seed = kCatalogSeed;
  return GenerateCorpus(config);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SequenceCalls(const Args& args, double calls_per_second,
                     size_t min_calls) {
  if (args.tiny) return 24;
  size_t calls = static_cast<size_t>(std::llround(args.seconds *
                                                  calls_per_second));
  return std::max(calls, min_calls);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  double u = rng->UniformDouble();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::vector<size_t> Permutation(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = rng->UniformU32(static_cast<uint32_t>(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::string RequestKey(const SelectRequest& request) {
  std::string key = request.target_id;
  for (const std::string& id : request.comparative_ids) key += "," + id;
  char options[160];
  std::snprintf(options, sizeof(options), "|%zu|%.17g|%.17g|%llu|%d",
                request.options.m, request.options.lambda,
                request.options.mu,
                static_cast<unsigned long long>(request.options.seed),
                request.options.extra_sync_rounds);
  return key + "|" + request.selector + options;
}

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
};

}  // namespace

uint64_t PayloadDigest(const SelectResponse& response) {
  Fnv fnv;
  fnv.Str(response.target_id);
  fnv.U64(response.item_ids.size());
  for (const std::string& id : response.item_ids) fnv.Str(id);
  fnv.U64(response.selections.size());
  for (const Selection& selection : response.selections) {
    fnv.U64(selection.size());
    for (size_t index : selection) fnv.U64(index);
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &response.objective, sizeof(bits));
  fnv.U64(bits);
  fnv.U64(static_cast<uint64_t>(response.tier));
  return fnv.h;
}

SelectRequest DefaultRequest(const std::string& target_id) {
  SelectRequest request;
  request.target_id = target_id;
  request.selector = "CompaReSetS+";
  return request;
}

Outcome Summarize(const SelectRequest& request,
                  const Result<SelectResponse>& result, bool keep_response) {
  Outcome out;
  out.request = &request;
  out.ok = result.ok();
  if (!result.ok()) return out;
  const SelectResponse& response = result.value();
  out.exact = response.tier == QualityTier::kExact;
  out.digest = PayloadDigest(response);
  out.memo_hit = response.result_cache_hit;
  out.vector_hit = response.cache_hit;
  const RequestTrace& trace = response.trace;
  out.queue_s = static_cast<float>(trace.queue_seconds);
  out.prepare_s = static_cast<float>(trace.prepare_seconds);
  out.solve_s = static_cast<float>(trace.solve_seconds);
  out.total_s = static_cast<float>(trace.total_seconds);
  out.fanouts = static_cast<uint32_t>(trace.intra_parallel_fanouts);
  out.nnls_nonconverged = static_cast<uint32_t>(trace.nnls_nonconverged);
  double core_s = 0.0;
  for (const TraceSpan& span : trace.spans) {
    core_s += span.seconds;
    if (span.name == "compare_sets_plus.round") ++out.plus_rounds;
  }
  out.core_span_s = static_cast<float>(core_s);
  if (keep_response) {
    out.response = std::make_shared<const SelectResponse>(response);
  }
  return out;
}

void CheckAgainst(const std::vector<Outcome>& outcomes,
                  const std::map<std::string, uint64_t>& reference,
                  Verdict* verdict) {
  for (const Outcome& outcome : outcomes) {
    ++verdict->checked;
    const std::string key = RequestKey(*outcome.request);
    auto it = reference.find(key);
    if (!outcome.ok) {
      verdict->Mismatch("request failed: " + key);
    } else if (!outcome.exact) {
      verdict->Mismatch("answer below the exact tier: " + key);
    } else if (it == reference.end()) {
      verdict->Mismatch("no reference answer: " + key);
    } else if (it->second != outcome.digest) {
      verdict->Mismatch("payload differs from the reference: " + key);
    }
  }
}

Status ReferenceDigests(std::shared_ptr<const IndexedCorpus> corpus,
                        const std::vector<SelectRequest>& requests,
                        std::map<std::string, uint64_t>* reference) {
  // Distinct keys sorted by target, so one target's requests reuse its
  // prepared instance from a tiny vector cache.
  std::map<std::string, const SelectRequest*> distinct;
  for (const SelectRequest& request : requests) {
    distinct.emplace(RequestKey(request), &request);
  }
  std::vector<std::pair<std::string, const SelectRequest*>> work(
      distinct.begin(), distinct.end());
  const size_t lanes = std::min<size_t>(static_cast<size_t>(Nproc()),
                                        std::max<size_t>(1, work.size()));
  std::vector<Status> failures(lanes, Status::OK());
  std::vector<uint64_t> digests(work.size(), 0);
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      EngineOptions options;
      options.threads = 1;
      options.cache_capacity = 4;
      options.result_capacity = 0;
      options.measure_alignment = false;
      options.trace_capacity = 0;
      SelectionEngine engine(corpus, options);
      size_t begin = work.size() * lane / lanes;
      size_t end = work.size() * (lane + 1) / lanes;
      for (size_t i = begin; i < end; ++i) {
        Result<SelectResponse> answer = engine.Select(*work[i].second);
        if (!answer.ok()) {
          failures[lane] = Status::Internal("reference failed on " +
                                            work[i].first + ": " +
                                            answer.status().ToString());
          return;
        }
        digests[i] = PayloadDigest(answer.value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& failure : failures) COMPARESETS_RETURN_NOT_OK(failure);
  for (size_t i = 0; i < work.size(); ++i) {
    (*reference)[work[i].first] = digests[i];
  }
  return Status::OK();
}

void EngineLayers(const Window& traced, LayerValues* layers) {
  std::vector<double> queue, prepare, solve, memo_us;
  std::map<std::string, std::vector<double>> core;
  std::vector<double> plus_rounds;
  double fanouts = 0.0, nonconverged = 0.0;
  size_t memo = 0, cold_lookups = 0, vector_hits = 0;
  for (const Outcome& o : traced.outcomes) {
    if (!o.ok) continue;
    fanouts += static_cast<double>(o.fanouts);
    nonconverged += static_cast<double>(o.nnls_nonconverged);
    queue.push_back(o.queue_s * 1e3);
    if (o.memo_hit) {
      ++memo;
      memo_us.push_back(o.total_s * 1e6);
      continue;
    }
    ++cold_lookups;
    if (o.vector_hit) ++vector_hits;
    prepare.push_back(o.prepare_s * 1e3);
    solve.push_back(o.solve_s * 1e3);
    core[o.request->selector].push_back(o.core_span_s * 1e3);
    if (o.request->selector == "CompaReSetS+") {
      plus_rounds.push_back(static_cast<double>(o.plus_rounds));
    }
  }
  const double n = static_cast<double>(traced.outcomes.size());
  LayerValues& l = *layers;
  l["util.intra_fanouts_per_request"] = n > 0 ? fanouts / n : 0.0;
  l["pipeline.queue_wait_p50_ms"] = Percentile(queue, 0.50);
  l["pipeline.queue_wait_p99_ms"] = Percentile(queue, 0.99);
  l["engine.memo_hit_frac"] = n > 0 ? static_cast<double>(memo) / n : 0.0;
  l["engine.vector_hit_frac"] =
      cold_lookups > 0 ? static_cast<double>(vector_hits) /
                             static_cast<double>(cold_lookups)
                       : 0.0;
  l["engine.memo_hit_us"] = Median(memo_us);
  l["engine.prepare_p50_ms"] = Median(prepare);
  l["engine.solve_p50_ms"] = Median(solve);
  l["engine.solve_p99_ms"] = Percentile(solve, 0.99);
  l["core.crs_ms"] = Median(core["Crs"]);
  l["core.compare_sets_ms"] = Median(core["CompaReSetS"]);
  l["core.compare_sets_plus_ms"] = Median(core["CompaReSetS+"]);
  l["core.plus_rounds"] = Mean(plus_rounds);
  l["core.nnls_nonconverged"] = nonconverged;
}

namespace {

/// Distinct target ids whose traced answer passed `keep`, in first-seen
/// order, at most `limit`.
template <typename Keep>
std::vector<std::string> TracedTargets(const Window& traced, size_t limit,
                                       Keep keep) {
  std::vector<std::string> targets;
  std::set<std::string> seen;
  for (const Outcome& o : traced.outcomes) {
    if (targets.size() >= limit) break;
    const std::string& target = o.request->target_id;
    if (o.ok && keep(o) && seen.insert(target).second) {
      targets.push_back(target);
    }
  }
  return targets;
}

}  // namespace

void KernelLayers(const IndexedCorpus& corpus, const Window& traced,
                  LayerValues* layers) {
  const size_t kMaxInstances = 24;
  OpinionModel model(OpinionDefinition::kBinary, corpus.num_aspects());
  std::vector<double> vectorize_ms, gram_us, nomp_us, nnls_us;
  for (const std::string& target :
       TracedTargets(traced, kMaxInstances,
                     [](const Outcome& o) {
                       return !o.memo_hit && !o.vector_hit;
                     })) {
    const ProblemInstance* instance = corpus.FindInstance(target);
    if (instance == nullptr) continue;
    double t0 = NowSeconds();
    InstanceVectors vectors = BuildInstanceVectors(model, *instance);
    vectorize_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  for (const std::string& target :
       TracedTargets(traced, kMaxInstances,
                     [](const Outcome& o) { return !o.memo_hit; })) {
    const ProblemInstance* instance = corpus.FindInstance(target);
    if (instance == nullptr) continue;
    InstanceVectors vectors = BuildInstanceVectors(model, *instance);
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      double t0 = NowSeconds();
      DesignSystem system = BuildCompareSetsSystem(vectors, item, 1.0);
      double t1 = NowSeconds();
      auto nomp = SolveNompGram(system.gram, 3);
      double t2 = NowSeconds();
      auto nnls = SolveNnlsGram(system.gram.gram, system.gram.vty,
                                system.gram.target_norm2);
      double t3 = NowSeconds();
      if (!nomp.ok() || !nnls.ok()) continue;
      gram_us.push_back((t1 - t0) * 1e6);
      nomp_us.push_back((t2 - t1) * 1e6);
      nnls_us.push_back((t3 - t2) * 1e6);
    }
  }
  (*layers)["opinion.vectorize_ms"] = Median(vectorize_ms);
  (*layers)["linalg.gram_build_us"] = Median(gram_us);
  (*layers)["linalg.nomp_us"] = Median(nomp_us);
  (*layers)["linalg.nnls_us"] = Median(nnls_us);
}

std::vector<double> AlignmentLayers(const IndexedCorpus& corpus,
                                    const Window& traced,
                                    LayerValues* layers) {
  std::vector<double> per_outcome(traced.outcomes.size(), 0.0);
  std::vector<double> ms, pairs;
  for (size_t i = 0; i < traced.outcomes.size(); ++i) {
    const Outcome& o = traced.outcomes[i];
    if (!o.ok || o.memo_hit || o.response == nullptr) continue;
    const AlignmentScores& served = o.response->alignment;
    if (served.target_pairs + served.among_pairs == 0) continue;
    const ProblemInstance* instance = corpus.FindInstance(o.request->target_id);
    if (instance == nullptr) continue;
    double t0 = NowSeconds();
    AlignmentScores scores =
        MeasureAlignment(*instance, o.response->selections);
    per_outcome[i] = NowSeconds() - t0;
    ms.push_back(per_outcome[i] * 1e3);
    pairs.push_back(static_cast<double>(scores.target_pairs +
                                        scores.among_pairs));
  }
  (*layers)["eval.alignment_ms"] = Median(ms);
  (*layers)["eval.alignment_pairs"] = Mean(pairs);
  return per_outcome;
}

double LoneSelectUnattributedMs(const Window& traced,
                                const std::vector<double>& extra_s) {
  std::vector<double> residual_ms;
  for (size_t i = 0; i < traced.outcomes.size() && i < traced.call_s.size();
       ++i) {
    const Outcome& o = traced.outcomes[i];
    double attributed =
        o.memo_hit ? o.total_s
                   : o.queue_s + o.prepare_s + o.solve_s +
                         (i < extra_s.size() ? extra_s[i] : 0.0);
    residual_ms.push_back((traced.call_s[i] - attributed) * 1e3);
  }
  return Median(residual_ms);
}

}  // namespace perfbench
