// perfbench: the repository's serving benchmark.
//
//   perfbench --workload interactive|ingest --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--tiny 1]
//
// Sets the workload up many times, half before and half after the timed
// window (reporting the median set-up), replays its fixed seeded request
// sequence once with tracing off, and checks every answer against a
// reference computed outside the timed window. With --trace 1 it
// replays the same sequence again on the last set-up's fresh state,
// with the benchmark's own spans, and reports the per-layer metrics
// instead of the end-to-end ones. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any answer
// mismatch makes the exit code 1.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload interactive|ingest "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--tiny 0|1]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--tiny") {
      args->tiny = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

std::string Num(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<MetricDef>& table,
                        const LayerValues& values) {
  std::string out = "{";
  for (size_t i = 0; i < table.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(table[i].name).append("\": {\"value\": ");
    out.append(Num(values.at(table[i].name)));
    out.append(", \"unit\": \"").append(table[i].unit).append("\"}");
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<MetricDef>& table,
                const LayerValues& values) {
  std::printf("%s\n", title);
  for (const MetricDef& def : table) {
    std::printf("  %-34s %14.6g %s\n", def.name, values.at(def.name),
                def.unit);
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "interactive") workload = MakeInteractive(args);
  if (args.workload == "ingest") workload = MakeIngest(args);
  if (workload == nullptr) {
    Usage();
    return 2;
  }
  ::mkdir(args.workdir.c_str(), 0755);  // An existing directory is fine.

  // Set-up, many times: the median is steadier than any one of them.
  // The set-ups run in two halves, before and after the timed window, so
  // a stretch of host noise moves only the samples taken during it. Each
  // half runs at least three set-ups and about 1.5 s of them: identical
  // set-ups of a few milliseconds drift by ±20% from one second to the
  // next, so fewer samples leave the median to the noise of the moment.
  // The window serves the state the first half's last set-up left.
  std::vector<SetupTimes> setups;
  auto set_up = [&]() -> Status {
    const size_t min_setups = args.tiny ? 1 : 3;
    const double min_seconds = args.tiny ? 0.0 : 1.5;
    double seconds = 0.0;
    for (size_t n = 0; n < min_setups || (seconds < min_seconds && n < 100);
         ++n) {
      SetupTimes times;
      COMPARESETS_RETURN_NOT_OK(workload->Setup(&times));
      setups.push_back(times);
      seconds += times.total();
    }
    return Status::OK();
  };
  Status status = set_up();
  if (!status.ok()) return Fail(status);

  Window window;
  status = workload->Run(/*traced=*/false, &window);
  if (!status.ok()) return Fail(status);

  Verdict verdict;
  status = workload->Verify(window, &verdict);
  if (!status.ok()) return Fail(status);
  const size_t untraced_mismatches = verdict.mismatches;

  status = set_up();
  if (!status.ok()) return Fail(status);
  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total() < b.total();
            });
  const SetupTimes setup = setups[setups.size() / 2];

  std::vector<double> call_ms;
  for (double s : window.call_s) call_ms.push_back(s * 1e3);
  const double p50_ms = Percentile(call_ms, 0.50);
  size_t sent = window.outcomes.size();
  size_t ok = 0, memo = 0, vector_hits = 0;
  for (const Outcome& o : window.outcomes) {
    if (o.ok) ++ok;
    if (o.memo_hit) ++memo;
    if (o.vector_hit && !o.memo_hit) ++vector_hits;
  }
  const double n = std::max<double>(1.0, static_cast<double>(sent));

  LayerValues e2e;
  e2e["p50_ms"] = p50_ms;
  e2e["p99_ms"] = Percentile(call_ms, 0.99);
  e2e["throughput_rps"] = static_cast<double>(ok) / window.wall_s;
  e2e["cpu_ms_per_request"] = window.cpu_s * 1e3 / n;
  e2e["peak_rss_mb"] = window.peak_rss_mb;
  e2e["setup_s"] = setup.total();
  e2e["ok_frac"] = static_cast<double>(sent - untraced_mismatches) / n;

  LayerValues layers;
  if (args.trace) {
    for (const MetricDef& def : LayerMetricTable()) layers[def.name] = 0.0;
    // The traced replay serves the fresh state the last set-up left.
    Window traced;
    status = workload->Run(/*traced=*/true, &traced);
    if (!status.ok()) return Fail(status);
    // Engine layers first: a workload's layer probes may fill in what its
    // own traffic does not exercise.
    EngineLayers(traced, &layers);
    status = workload->Layers(traced, &layers, &verdict);
    if (!status.ok()) return Fail(status);
    layers["util.threads"] = traced.threads;
    layers["util.cpu_util"] =
        traced.cpu_s / (traced.wall_s * static_cast<double>(Nproc()));
    std::vector<double> freshness_ms;
    for (double s : traced.freshness_s) freshness_ms.push_back(s * 1e3);
    layers["ingest.freshness_p50_ms"] = Percentile(freshness_ms, 0.50);
    layers["ingest.freshness_p95_ms"] = Percentile(freshness_ms, 0.95);
    layers["setup.generate_s"] = setup.generate_s;
    layers["setup.index_s"] = setup.index_s;
    layers["setup.partition_s"] = setup.partition_s;
    layers["setup.start_s"] = setup.start_s;
    layers["setup.warm_s"] = setup.warm_s;
    std::vector<double> traced_ms;
    for (double s : traced.call_s) traced_ms.push_back(s * 1e3);
    layers["trace.overhead_frac"] = Percentile(traced_ms, 0.50) / p50_ms - 1.0;
  }
  workload->Teardown();

  std::vector<double> freshness_ms;
  for (double s : window.freshness_s) freshness_ms.push_back(s * 1e3);
  std::printf(
      "{\"spec\": %s, \"achieved\": {\"calls\": %zu, \"requests_sent\": "
      "%zu, \"requests_ok\": %zu, \"requests_failed\": %zu, "
      "\"memo_hit_frac\": %s, \"vector_hit_frac\": %s, \"nproc\": %d, "
      "\"timed_s\": %s, \"freshness_p50_ms\": %s, \"freshness_p95_ms\": "
      "%s}}\n",
      workload->SpecJson().c_str(), window.call_s.size(), sent, ok,
      sent - ok, Num(static_cast<double>(memo) / n).c_str(),
      Num(sent > memo ? static_cast<double>(vector_hits) /
                            static_cast<double>(sent - memo)
                      : 0.0)
          .c_str(),
      Nproc(), Num(window.wall_s).c_str(),
      Num(Percentile(freshness_ms, 0.50)).c_str(),
      Num(Percentile(freshness_ms, 0.95)).c_str());
  PrintTable(("end-to-end (" + args.workload + ")").c_str(),
             EndToEndMetricTable(), e2e);
  if (!freshness_ms.empty()) {
    std::printf("  %-34s %14.6g ms\n  %-34s %14.6g ms\n", "freshness_p50_ms",
                Percentile(freshness_ms, 0.50), "freshness_p95_ms",
                Percentile(freshness_ms, 0.95));
  }
  if (args.trace) PrintTable("per-layer (traced)", LayerMetricTable(), layers);
  if (verdict.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %zu of %zu answers wrong; first: %s\n",
                 verdict.mismatches, verdict.checked,
                 verdict.first_mismatch.c_str());
  }
  const bool correct = verdict.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", sent,
              std::min(verdict.mismatches, sent),
              args.trace ? MetricsJson(LayerMetricTable(), layers).c_str()
                         : MetricsJson(EndToEndMetricTable(), e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
