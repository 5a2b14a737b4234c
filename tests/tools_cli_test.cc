// Integration tests for the comparesets CLI binary: each subcommand is
// executed as a child process and its output checked. The binary path
// is injected by CMake (COMPARESETS_CLI_PATH).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace comparesets {
namespace {

#ifndef COMPARESETS_CLI_PATH
#error "COMPARESETS_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& arguments) {
  std::string command =
      std::string(COMPARESETS_CLI_PATH) + " " + arguments + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t read_bytes;
  while ((read_bytes = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read_bytes);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("Usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsageAndFails) {
  CommandResult result = RunCli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("Usage:"), std::string::npos);
}

TEST(CliTest, StatsPrintsTable2Rows) {
  CommandResult result = RunCli("stats --category Toy --products 40");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("Dataset: Toy"), std::string::npos);
  EXPECT_NE(result.output.find("#Product:"), std::string::npos);
  EXPECT_NE(result.output.find("Avg. #Comparison Product:"),
            std::string::npos);
}

TEST(CliTest, SelectPrintsSelections) {
  CommandResult result =
      RunCli("select --products 40 --m 2 --algorithm CompaReSetS");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("[target]"), std::string::npos);
  EXPECT_NE(result.output.find("[compare]"), std::string::npos);
  EXPECT_NE(result.output.find("Alignment:"), std::string::npos);
}

TEST(CliTest, NarrowReportsCoreList) {
  CommandResult result = RunCli("narrow --products 40 --k 3 --m 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("Core list: 3 of"), std::string::npos);
}

TEST(CliTest, BadFlagFails) {
  CommandResult result = RunCli("select --bogus 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos);
}

TEST(CliTest, ExportWritesFilesReadableBySelect) {
  std::string prefix = ::testing::TempDir() + "/comparesets_cli_export";
  CommandResult exported =
      RunCli("export --products 30 --prefix " + prefix);
  EXPECT_EQ(exported.exit_code, 0);

  CommandResult selected = RunCli("select --m 2 --reviews " + prefix +
                               ".reviews.jsonl --metadata " + prefix +
                               ".metadata.jsonl");
  EXPECT_EQ(selected.exit_code, 0);
  EXPECT_NE(selected.output.find("[target]"), std::string::npos);
  for (const char* suffix :
       {".reviews.jsonl", ".metadata.jsonl", ".annotations.jsonl"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(CliTest, ServeAnswersBatchFromQueriesFile) {
  // Synthetic ids are deterministic for a fixed seed, so the query file
  // can name them directly. Mixed selectors + a repeated target, so the
  // warm path (cache hit) is exercised end to end.
  std::string path = ::testing::TempDir() + "/comparesets_cli_queries.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# comment line\n"
          "cellphone-P00000\n"
          "cellphone-P00000 CompaReSetS 2\n"
          "cellphone-P00001 Crs 2\n",
          f);
    fclose(f);
  }
  // --threads 1 keeps the batch serial: with a concurrent pool the two
  // P00000 queries could both miss the (not yet populated) vector cache,
  // making the cache=hit assertion racy.
  CommandResult result = RunCli(
      "serve --products 40 --metrics --cache_capacity 8 --threads 1 "
      "--queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Answered 3 queries (0 failed)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("cache=hit"), std::string::npos);
  // No deadline, no overload, no sampling knobs: every answer is
  // full-quality and says so.
  EXPECT_NE(result.output.find("tier=exact gap=0.0000"), std::string::npos);
  EXPECT_NE(result.output.find("counter engine.requests 3"),
            std::string::npos);
}

TEST(CliTest, ServeExportsPrometheusOverHttp) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_promq.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\n", f);
    fclose(f);
  }
  // Port 0 binds an ephemeral port (announced on stdout); after the
  // batch the CLI scrapes its own exporter over a real TCP socket and
  // prints the HTTP response, so this asserts the full network path.
  CommandResult result = RunCli(
      "serve --products 40 --threads 1 --metrics_port 0 --queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("METRICS LISTENING tcp:127.0.0.1:"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("HTTP/1.0 200 OK"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("engine_requests_total"), std::string::npos)
      << result.output;
}

TEST(CliTest, ServeDegradeAndTierFlags) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_tierq.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\n", f);
    fclose(f);
  }
  // --degrade loosens the floor, but an unloaded engine still answers
  // exactly — the floor widens what is acceptable, not what happens.
  CommandResult result = RunCli(
      "serve --products 40 --threads 1 --degrade --queries " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tier=exact"), std::string::npos)
      << result.output;

  CommandResult bad = RunCli("serve --products 40 --min_tier bogus");
  std::remove(path.c_str());
  EXPECT_NE(bad.exit_code, 0);
}

TEST(CliTest, ServeShardedAnswersTheSameQueries) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_shardq.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\n"
          "cellphone-P00000 CompaReSetS 2\n"
          "cellphone-P00001 Crs 2\n",
          f);
    fclose(f);
  }
  CommandResult result = RunCli(
      "serve --products 40 --metrics --prometheus --threads 1 --shards 2 "
      "--queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // The shard map is printed before serving starts.
  EXPECT_NE(result.output.find("shard 0 [-inf,"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("shard 1 ["), std::string::npos);
  EXPECT_NE(result.output.find("Answered 3 queries (0 failed) across 2 "
                               "shards."),
            std::string::npos)
      << result.output;
  // Rollup keeps the single-engine dump format; Prometheus samples
  // carry per-shard labels.
  EXPECT_NE(result.output.find("counter engine.requests 3"),
            std::string::npos);
  EXPECT_NE(result.output.find("engine_requests_total{shard=\"0\"}"),
            std::string::npos)
      << result.output;

  CommandResult bad = RunCli("serve --products 40 --shards 0");
  EXPECT_EQ(bad.exit_code, 2);
}

TEST(CliTest, ServeWindowedBatchPrefetchesColdQueries) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_windowq.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\n"
          "cellphone-P00001 CompaReSetS 2\n"
          "cellphone-P00002 Crs 2\n",
          f);
    fclose(f);
  }
  // --window stages the batch in kernel windows whose design systems are
  // prefetched via one batched Gram build before the requests execute,
  // so even cold queries report a warm vector cache. Payloads are
  // bit-identical with the window on or off (the engine determinism
  // tests pin that); this exercises the CLI plumbing end to end.
  CommandResult result = RunCli(
      "serve --products 40 --threads 1 --window 4 --queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Answered 3 queries (0 failed)"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("cache=miss"), std::string::npos)
      << result.output;
}

TEST(CliTest, ServeReportsUnknownTargetsWithoutPoisoningBatch) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_badquery.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\nno-such-product\n", f);
    fclose(f);
  }
  CommandResult result =
      RunCli("serve --products 40 --queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ERROR"), std::string::npos);
  EXPECT_NE(result.output.find("Answered 2 queries (1 failed)"),
            std::string::npos)
      << result.output;
}

TEST(CliTest, ServeRejectsMalformedQueryLineCleanly) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_malformed.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000 Crs abc\n", f);
    fclose(f);
  }
  CommandResult result = RunCli("serve --products 40 --queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad m 'abc'"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("line 1"), std::string::npos);
}

TEST(CliTest, ServeRefusesIngestLogOverRpcAtStartup) {
  // The delta builder lives in the serving process: combining the two
  // flags must be a startup error (exit 2, kInvalidArgument), never a
  // silently stale serve. Fails before any shard server is spawned, so
  // no fleet is needed here.
  std::string wal = ::testing::TempDir() + "/comparesets_cli_ingest.wal";
  {
    FILE* f = fopen(wal.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fclose(f);
  }
  CommandResult result = RunCli(
      "serve --products 40 --transport rpc --ingest_log " + wal);
  std::remove(wal.c_str());
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("invalid argument"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("--ingest_log is not available over "
                               "--transport rpc"),
            std::string::npos)
      << result.output;
  // Refused up front: nothing was served.
  EXPECT_EQ(result.output.find("Answered"), std::string::npos)
      << result.output;
}

TEST(CliTest, ServeRejectsBadBatchPriority) {
  CommandResult result =
      RunCli("serve --products 40 --batch_priority urgent --queries "
             "/dev/null");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("--batch_priority"), std::string::npos)
      << result.output;
}

TEST(CliTest, ServeSloFlagPrintsControllerSummary) {
  std::string path = ::testing::TempDir() + "/comparesets_cli_slo.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\ncellphone-P00001\n", f);
    fclose(f);
  }
  CommandResult result = RunCli(
      "serve --products 40 --threads 1 --max_in_flight 1 --slo_ms 5000 "
      "--queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Answered 2 queries (0 failed)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("SLO p99="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("target=5000.00ms"), std::string::npos)
      << result.output;
}

TEST(CliTest, NonFiniteWeightIsAUsageErrorNotANanAnswer) {
  CommandResult select = RunCli("select --products 40 --lambda nan");
  EXPECT_EQ(select.exit_code, 2) << select.output;
  EXPECT_NE(select.output.find("lambda must be finite"), std::string::npos)
      << select.output;
  EXPECT_EQ(select.output.find("objective nan"), std::string::npos)
      << select.output;

  std::string path = ::testing::TempDir() + "/comparesets_cli_nonfinite.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("cellphone-P00000\n", f);
    fclose(f);
  }
  CommandResult serve =
      RunCli("serve --products 40 --threads 1 --mu inf --queries " + path);
  std::remove(path.c_str());
  EXPECT_EQ(serve.exit_code, 1) << serve.output;
  EXPECT_NE(serve.output.find("mu must be finite"), std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("(1 failed)"), std::string::npos) << serve.output;
}

TEST(CliTest, HelpListsFlags) {
  CommandResult result = RunCli("select --help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--algorithm"), std::string::npos);
  EXPECT_NE(result.output.find("--lambda"), std::string::npos);
}

}  // namespace
}  // namespace comparesets
