// Determinism regression suite guarding the event-core rewrite: the same
// consensus grid must produce byte-identical CSV/JSON artifacts when run
// twice, and when executed on 1 vs 4 worker threads (the bench/sweep path:
// ParallelExecutor + report emitters is exactly what the sweep CLI renders).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/runner.h"
#include "exp/executor.h"
#include "exp/report.h"
#include "exp/spec.h"
#include "scenario/scenario.h"
#include "workload/failure_patterns.h"

namespace hyco {
namespace {

/// A small but representative grid: both hybrid algorithms, two layouts,
/// crash-free and mid-broadcast-crash cells (the latter exercises the
/// partial-Fisher–Yates scripted-crash path inside SimNetwork::broadcast),
/// and a faulty scenario axis (loss, duplication, a healing cut — every
/// fault draw must come from the run's seeded Rng).
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.name = "determinism-grid";
  spec.algorithms = {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin};
  spec.layouts = {ClusterLayout::even(8, 4), ClusterLayout::even(12, 3)};
  spec.crashes = {CrashAxis::none(),
                  CrashAxis::of("mid-broadcast",
                                [](const ClusterLayout& l) {
                                  Rng rng(0xD5);
                                  return failure_patterns::mid_broadcast(
                                             l, 2, 1, rng)
                                      .plan;
                                })};
  ScenarioConfig faulty;
  faulty.link.loss = 0.05;
  faulty.link.dup = 0.05;
  faulty.partitions.push_back(parse_partition_spec("cluster:0@100..800"));
  spec.scenarios = {ScenarioAxis::none(), ScenarioAxis::of(faulty)};
  spec.runs_per_cell = 6;
  spec.max_rounds = 500;  // lossy cells may park instead of terminating
  spec.base_seed = 0xDE7;
  return spec;
}

/// Renders the sweep CLI's artifacts (CSV + JSON) for a finished grid.
std::string render(const std::vector<CellResult>& results) {
  std::ostringstream csv, json;
  write_cell_csv(csv, results);
  write_cell_json(json, "determinism-grid", results);
  return csv.str() + "\n---\n" + json.str();
}

std::string run_grid(std::int64_t threads) {
  ParallelExecutor::Options opts;
  opts.threads = threads;
  const ParallelExecutor exec(opts);
  return render(exec.run(small_grid()));
}

TEST(Determinism, GridTwiceIsByteIdentical) {
  const std::string first = run_grid(2);
  const std::string second = run_grid(2);
  EXPECT_EQ(first, second);
}

TEST(Determinism, ThreadCountDoesNotChangeArtifacts) {
  const std::string one = run_grid(1);
  const std::string four = run_grid(4);
  EXPECT_EQ(one, four);
}

TEST(Determinism, SingleRunReplaysBitForBit) {
  RunConfig cfg(ClusterLayout::even(8, 4));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 0xFEED;
  cfg.enable_trace = true;
  const RunResult a = run_consensus(cfg);
  const RunResult b = run_consensus(cfg);
  ASSERT_FALSE(a.trace_dump.empty());
  EXPECT_EQ(a.trace_dump, b.trace_dump);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.net.unicasts_sent, b.net.unicasts_sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
}

TEST(Determinism, ScriptedMidBroadcastCrashReplaysBitForBit) {
  const auto layout = ClusterLayout::even(8, 4);
  Rng rng(0xC4A5);
  const CrashPlan plan =
      failure_patterns::mid_broadcast(layout, 3, 0, rng).plan;

  RunConfig cfg(layout);
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.seed = 0xAB;
  cfg.crashes = plan;
  cfg.enable_trace = true;
  const RunResult a = run_consensus(cfg);
  const RunResult b = run_consensus(cfg);
  EXPECT_EQ(a.trace_dump, b.trace_dump);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_TRUE(a.safe());
}

}  // namespace
}  // namespace hyco
