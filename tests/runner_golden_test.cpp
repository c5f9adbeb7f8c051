// Golden pins for the four minor runners (total-order broadcast,
// multivalued consensus, the m&m comparator and the hybrid register
// workload). One seeded run each, with one timed crash, is pinned to its
// event count, end time, delivered-message count and a hash of what the
// processes produced. The runners have no byte-level artifact of their
// own, so these constants are what catches a reordering of scheduled
// events (crashes, starts, submissions) in the shared world set-up.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline/mm_runner.h"
#include "core/multivalued_runner.h"
#include "core/total_order_runner.h"
#include "util/rng.h"
#include "workload/register_harness.h"

namespace hyco {
namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) { return mix64(h, v); }

CrashPlan one_crash(ProcId n, ProcId p, SimTime at) {
  CrashPlan plan = CrashPlan::none(static_cast<std::size_t>(n));
  plan.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(at);
  return plan;
}

TEST(RunnerGolden, TotalOrder) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.submissions = {{0, 0, 11}, {3, 0, 22}, {6, 0, 33},
                     {1, 5, 44}, {4, 5, 55}};
  cfg.seed = 3;
  cfg.crashes = one_crash(7, 6, 400);
  const TobRunResult r = run_tob(cfg);
  ASSERT_TRUE(r.success()) << r.violations.front();
  EXPECT_EQ(r.crashed, 1u);
  std::uint64_t h = 0;
  for (const auto& log : r.logs) {
    h = fold(h, log.size());
    for (const std::uint64_t v : log) h = fold(h, v);
  }
  EXPECT_EQ(r.events, 49874u);
  EXPECT_EQ(r.end_time, 60868);
  EXPECT_EQ(r.net.delivered, 42866u);
  EXPECT_EQ(h, 4330774541871291624u);
}

TEST(RunnerGolden, Multivalued) {
  MultiRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.width = 8;
  cfg.seed = 5;
  cfg.crashes = one_crash(7, 1, 250);
  const MultiRunResult r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 1u);
  std::uint64_t h = 0;
  for (const auto& d : r.decisions) h = fold(h, d.has_value() ? *d + 1 : 0);
  EXPECT_EQ(r.events, 1352u);
  EXPECT_EQ(r.end_time, 1281);
  EXPECT_EQ(r.net.delivered, 1197u);
  EXPECT_EQ(h, 15470916939549685742u);
}

TEST(RunnerGolden, MmComparator) {
  MmRunConfig cfg(MmDomain::fig2());
  cfg.seed = 7;
  cfg.crashes = one_crash(5, 4, 200);
  const RunResult r = run_mm(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 1u);
  std::uint64_t h = 0;
  for (std::size_t p = 0; p < r.decisions.size(); ++p) {
    const auto& d = r.decisions[p];
    h = fold(h, d.has_value() ? static_cast<std::uint64_t>(*d) + 1 : 0);
    h = fold(h, static_cast<std::uint64_t>(r.decision_rounds[p]));
  }
  h = fold(h, static_cast<std::uint64_t>(r.last_decision_time));
  EXPECT_EQ(r.events, 81u);
  EXPECT_EQ(r.end_time, 395);
  EXPECT_EQ(r.net.delivered, 68u);
  EXPECT_EQ(h, 10301324884728772760u);
}

TEST(RunnerGolden, RegisterWorkload) {
  RegisterRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.ops_per_process = 4;
  cfg.seed = 9;
  cfg.crashes = one_crash(7, 2, 300);
  const RegisterRunResult r = run_register_workload(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.crashed, 1u);
  std::uint64_t h = 0;
  for (const RegOpRecord& op : r.history) {
    h = fold(h, static_cast<std::uint64_t>(op.proc));
    h = fold(h, op.is_write ? 1 : 0);
    h = fold(h, op.value);
    h = fold(h, static_cast<std::uint64_t>(op.ts.seq));
    h = fold(h, static_cast<std::uint64_t>(op.ts.writer));
    h = fold(h, static_cast<std::uint64_t>(op.invoked));
    h = fold(h, static_cast<std::uint64_t>(op.responded));
  }
  // The register result carries no event count; messages sent stand in.
  EXPECT_EQ(r.net.unicasts_sent + r.net.broadcasts, 713u);
  EXPECT_EQ(r.end_time, 1672);
  EXPECT_EQ(r.net.delivered, 619u);
  EXPECT_EQ(h, 10007956385354209290u);
}

}  // namespace
}  // namespace hyco
