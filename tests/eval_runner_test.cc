#include "eval/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

namespace comparesets {
namespace {

RunnerConfig SmallConfig() {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 80;
  config.max_instances = 8;
  config.seed = 42;
  return config;
}

TEST(WorkloadTest, BuildSyntheticPreparesVectors) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload.value().num_instances(), 8u);
  EXPECT_EQ(workload.value().vectors().size(), 8u);
  for (size_t i = 0; i < workload.value().num_instances(); ++i) {
    const InstanceVectors& vectors = workload.value().vectors()[i];
    EXPECT_EQ(vectors.instance, &workload.value().instances()[i]);
    EXPECT_EQ(vectors.items.size(), vectors.num_items());
    EXPECT_EQ(vectors.gamma.size(),
              workload.value().corpus().num_aspects());
  }
}

TEST(WorkloadTest, MaxComparativeItemsCapApplies) {
  RunnerConfig config = SmallConfig();
  config.max_comparative_items = 3;
  auto workload = Workload::BuildSynthetic(config);
  ASSERT_TRUE(workload.ok());
  for (const ProblemInstance& instance : workload.value().instances()) {
    EXPECT_LE(instance.num_items(), 4u);
  }
}

TEST(WorkloadTest, OpinionDefinitionPropagates) {
  RunnerConfig config = SmallConfig();
  config.opinion = OpinionDefinition::kUnaryScale;
  auto workload = Workload::BuildSynthetic(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload.value().vectors()[0].model.definition(),
            OpinionDefinition::kUnaryScale);
  EXPECT_EQ(workload.value().vectors()[0].tau(0).size(),
            workload.value().corpus().num_aspects());
}

TEST(RunSelectorTest, ProducesPerInstanceResults) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  auto selector = MakeSelector("CompaReSetS");
  ASSERT_TRUE(selector.ok());
  SelectorOptions options;
  options.m = 3;
  auto run = RunSelector(*selector.value(), workload.value(), options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run.value().results.size(), 8u);
  EXPECT_EQ(run.value().alignment.size(), 8u);
  EXPECT_GT(run.value().total_seconds, 0.0);
  EXPECT_EQ(run.value().selector_name, "CompaReSetS");
}

TEST(RunSelectorTest, MeansAndSeriesConsistent) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  auto selector = MakeSelector("Random");
  ASSERT_TRUE(selector.ok());
  SelectorOptions options;
  options.m = 3;
  auto run = RunSelector(*selector.value(), workload.value(), options);
  ASSERT_TRUE(run.ok());

  std::vector<double> series = run.value().TargetRougeLSeries();
  EXPECT_EQ(series.size(), 8u);
  double manual_mean = 0.0;
  for (double v : series) manual_mean += v;
  manual_mean /= series.size();
  EXPECT_NEAR(run.value().MeanTarget().rougeL.f1, manual_mean, 1e-12);

  RougeTriple among = run.value().MeanAmong();
  EXPECT_GT(among.rouge1.f1, 0.0);  // Template text always shares words.
  EXPECT_LE(among.rouge1.f1, 1.0);
}

TEST(RunSelectorTest, CompareSetsPlusBeatsRandomOnAlignment) {
  // The headline hypothesis of the paper at miniature scale: joint
  // selection aligns reviews better than random selection.
  RunnerConfig config = SmallConfig();
  config.max_instances = 12;
  auto workload = Workload::BuildSynthetic(config);
  ASSERT_TRUE(workload.ok());
  SelectorOptions options;
  options.m = 3;
  auto random = RunSelector(*MakeSelector("Random").ValueOrDie(),
                            workload.value(), options);
  auto plus = RunSelector(*MakeSelector("CompaReSetS+").ValueOrDie(),
                          workload.value(), options);
  ASSERT_TRUE(random.ok());
  ASSERT_TRUE(plus.ok());
  EXPECT_GT(plus.value().MeanAmong().rougeL.f1,
            random.value().MeanAmong().rougeL.f1);
}

TEST(RunSelectorParallelTest, MatchesSerialResults) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  SelectorOptions options;
  options.m = 3;
  for (const char* name : {"CompaReSetS", "Random"}) {
    auto selector = MakeSelector(name).ValueOrDie();
    auto serial = RunSelector(*selector, workload.value(), options);
    auto parallel =
        RunSelectorParallel(*selector, workload.value(), options, 4);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel.value().results.size(),
              serial.value().results.size());
    for (size_t i = 0; i < serial.value().results.size(); ++i) {
      EXPECT_EQ(parallel.value().results[i].selections,
                serial.value().results[i].selections)
          << name << " instance " << i;
    }
    EXPECT_NEAR(parallel.value().MeanAmong().rougeL.f1,
                serial.value().MeanAmong().rougeL.f1, 1e-12);
    EXPECT_GT(parallel.value().total_seconds, 0.0);
  }
}

TEST(RunSelectorParallelTest, BitIdenticalToSerialForAllSelectors) {
  // Determinism contract: for every selector and thread count, the
  // parallel runner must reproduce RunSelector bit for bit — same
  // selections, same objective doubles, same alignment scores.
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  SelectorOptions options;
  options.m = 3;
  size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  for (const std::string& name : AllSelectorNames()) {
    auto selector = MakeSelector(name).ValueOrDie();
    auto serial = RunSelector(*selector, workload.value(), options);
    ASSERT_TRUE(serial.ok()) << name << ": " << serial.status();
    for (size_t threads : {size_t{1}, size_t{2}, hardware}) {
      auto parallel =
          RunSelectorParallel(*selector, workload.value(), options, threads);
      ASSERT_TRUE(parallel.ok()) << name << " threads=" << threads;
      ASSERT_EQ(parallel.value().results.size(),
                serial.value().results.size());
      for (size_t i = 0; i < serial.value().results.size(); ++i) {
        EXPECT_EQ(parallel.value().results[i].selections,
                  serial.value().results[i].selections)
            << name << " threads=" << threads << " instance " << i;
        EXPECT_EQ(parallel.value().results[i].objective,
                  serial.value().results[i].objective)
            << name << " threads=" << threads << " instance " << i;
        EXPECT_EQ(
            parallel.value().alignment[i].among_items.rougeL.f1,
            serial.value().alignment[i].among_items.rougeL.f1)
            << name << " threads=" << threads << " instance " << i;
      }
    }
  }
}

TEST(RunSelectorParallelTest, SingleThreadFallsBackToSerial) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  SelectorOptions options;
  options.m = 2;
  auto selector = MakeSelector("Crs").ValueOrDie();
  auto run = RunSelectorParallel(*selector, workload.value(), options, 1);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().results.size(), workload.value().num_instances());
}

TEST(RunSelectorParallelTest, PropagatesErrors) {
  auto workload = Workload::BuildSynthetic(SmallConfig());
  ASSERT_TRUE(workload.ok());
  SelectorOptions options;
  options.m = 0;  // Invalid: every instance fails.
  auto selector = MakeSelector("CompaReSetS").ValueOrDie();
  auto run = RunSelectorParallel(*selector, workload.value(), options, 4);
  EXPECT_FALSE(run.ok());
}

TEST(WorkloadTest, FromCorpusRejectsLinklessCorpus) {
  Corpus corpus("lonely");
  Product p;
  p.id = "only";
  for (int r = 0; r < 3; ++r) {
    Review review;
    review.id = "r" + std::to_string(r);
    review.opinions.push_back({0, Polarity::kPositive, 1.0});
    p.reviews.push_back(review);
  }
  corpus.catalog().Intern("battery");
  corpus.AddProduct(std::move(p)).CheckOK();
  corpus.Finalize();
  auto workload = Workload::FromCorpus(std::move(corpus), RunnerConfig());
  EXPECT_FALSE(workload.ok());
}

}  // namespace
}  // namespace comparesets
