#include "eval/runner.h"

#include <utility>

#include "service/engine.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace comparesets {

Result<Workload> Workload::BuildSynthetic(const RunnerConfig& config) {
  COMPARESETS_ASSIGN_OR_RETURN(
      SyntheticConfig synth,
      DefaultConfig(config.category, config.num_products));
  synth.seed = config.seed;
  COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCorpus(synth));
  return FromCorpus(std::move(corpus), config);
}

Result<Workload> Workload::FromCorpus(Corpus corpus,
                                      const RunnerConfig& config) {
  Workload workload;
  COMPARESETS_RETURN_NOT_OK(workload.Prepare(std::move(corpus), config));
  return workload;
}

Status Workload::Prepare(Corpus corpus, const RunnerConfig& config) {
  InstanceOptions instance_options;
  instance_options.max_comparative_items = config.max_comparative_items;
  COMPARESETS_ASSIGN_OR_RETURN(
      indexed_, IndexedCorpus::Build(std::move(corpus), instance_options));

  // The evaluated slice: instance copies are cheap (item pointers into
  // the snapshot, which indexed_ keeps alive).
  instances_ = indexed_->instances();
  if (config.max_instances > 0 && instances_.size() > config.max_instances) {
    instances_.resize(config.max_instances);
  }

  if (config.opinion == OpinionDefinition::kLearnedPreference) {
    // Learned-preference vectors need an external table; build those
    // workloads directly via BuildInstanceVectors with
    // OpinionModel::LearnedPreference (see bench/ablation_learned).
    return Status::InvalidArgument(
        "learned-preference workloads require an explicit review table");
  }
  OpinionModel model(config.opinion, indexed_->num_aspects());
  vectors_.reserve(instances_.size());
  for (const ProblemInstance& instance : instances_) {
    vectors_.push_back(BuildInstanceVectors(model, instance));
  }
  return Status::OK();
}

namespace {

RougeTriple MeanOver(const std::vector<AlignmentScores>& alignment,
                     bool target_view) {
  RougeTriple mean;
  size_t counted = 0;
  for (const AlignmentScores& scores : alignment) {
    size_t pairs = target_view ? scores.target_pairs : scores.among_pairs;
    if (pairs == 0) continue;
    mean += target_view ? scores.target_vs_comparative : scores.among_items;
    ++counted;
  }
  if (counted > 0) mean /= static_cast<double>(counted);
  return mean;
}

std::vector<double> SeriesOver(const std::vector<AlignmentScores>& alignment,
                               bool target_view) {
  std::vector<double> out;
  out.reserve(alignment.size());
  for (const AlignmentScores& scores : alignment) {
    out.push_back(target_view ? scores.target_vs_comparative.rougeL.f1
                              : scores.among_items.rougeL.f1);
  }
  return out;
}

/// Folds per-instance solves + alignment into the aggregate run.
SelectorRun AssembleRun(const ReviewSelector& selector,
                        const Workload& workload,
                        std::vector<InstanceSolve> solves) {
  SelectorRun run;
  run.selector_name = selector.name();
  run.results.reserve(solves.size());
  run.alignment.reserve(solves.size());
  for (size_t i = 0; i < solves.size(); ++i) {
    run.total_seconds += solves[i].seconds;
    run.alignment.push_back(MeasureAlignment(workload.instances()[i],
                                             solves[i].result.selections));
    run.results.push_back(std::move(solves[i].result));
  }
  return run;
}

}  // namespace

RougeTriple SelectorRun::MeanTarget() const { return MeanOver(alignment, true); }
RougeTriple SelectorRun::MeanAmong() const { return MeanOver(alignment, false); }
std::vector<double> SelectorRun::TargetRougeLSeries() const {
  return SeriesOver(alignment, true);
}
std::vector<double> SelectorRun::AmongRougeLSeries() const {
  return SeriesOver(alignment, false);
}

Result<SelectorRun> RunSelector(const ReviewSelector& selector,
                                const Workload& workload,
                                const SelectorOptions& options,
                                const ExecControl* control) {
  COMPARESETS_ASSIGN_OR_RETURN(
      std::vector<InstanceSolve> solves,
      SelectionEngine::SolveInstances(selector, workload.vectors(), options,
                                      ParallelContext{}, control));
  return AssembleRun(selector, workload, std::move(solves));
}

Result<SelectorRun> RunSelectorParallel(const ReviewSelector& selector,
                                        const Workload& workload,
                                        const SelectorOptions& options,
                                        size_t threads,
                                        const ExecControl* control) {
  size_t n = workload.num_instances();
  threads = ThreadPool::ResolveThreads(threads, n);
  if (threads <= 1) return RunSelector(selector, workload, options, control);

  ThreadPool pool(threads);
  COMPARESETS_ASSIGN_OR_RETURN(
      std::vector<InstanceSolve> solves,
      SelectionEngine::SolveInstances(selector, workload.vectors(), options,
                                      ParallelContext{&pool}, control));
  return AssembleRun(selector, workload, std::move(solves));
}

}  // namespace comparesets
