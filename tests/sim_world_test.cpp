// Tests of SimWorld, the one world builder every runner shares: the
// up-front resource check (process count bound, crash-plan size) and the
// fault schedule (timed crashes, scenario crash/rejoin cycles and the
// per-rejoin callback). Every runner gets a short-crash-plan case, since
// each one indexes the plan by process id.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/mm_runner.h"
#include "core/multivalued_runner.h"
#include "core/runner.h"
#include "core/sim_world.h"
#include "core/total_order_runner.h"
#include "service/service_runner.h"
#include "util/assert.h"
#include "workload/register_harness.h"

namespace hyco {
namespace {

const ClusterLayout kLayout = ClusterLayout::from_sizes({2, 3, 2});

/// One spec short of a plan for the 7-process layout.
CrashPlan short_plan() { return CrashPlan::none(6); }

std::string check_message(ProcId n) {
  try {
    SimWorld::check(n, CrashPlan{});
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(SimWorld, OversizedProcessCountIsRejectedBeforeAllocating) {
  // check() allocates nothing, and the constructors run it before any
  // member is built, so an n whose n^2 reservation could never fit fails
  // cleanly instead of with std::bad_alloc.
  const std::string msg = check_message(100000);
  EXPECT_NE(msg.find("16384"), std::string::npos) << msg;
  EXPECT_NE(msg.find("kMaxProcs"), std::string::npos) << msg;
  EXPECT_THROW(SimWorld(SimWorld::kMaxProcs + 1, 1, DelayConfig{}, CrashPlan{}),
               ContractViolation);
  EXPECT_FALSE(check_message(0).empty());
}

TEST(SimWorld, LargestPaperScaleStaysValid) {
  static_assert(SimWorld::kMaxProcs >= 4096);
  EXPECT_NO_THROW(SimWorld::check(4096, CrashPlan{}));
  EXPECT_NO_THROW(SimWorld::check(SimWorld::kMaxProcs, CrashPlan{}));
}

TEST(SimWorld, CrashPlanMustBeEmptyOrOnePerProcess) {
  EXPECT_NO_THROW(SimWorld::check(7, CrashPlan{}));
  EXPECT_NO_THROW(SimWorld::check(7, CrashPlan::none(7)));
  EXPECT_THROW(SimWorld::check(7, short_plan()), ContractViolation);
  EXPECT_THROW(SimWorld::check(7, CrashPlan::none(8)), ContractViolation);
}

TEST(SimWorld, TimedCrashesFireAtTheirTime) {
  CrashPlan plan = CrashPlan::none(4);
  plan.specs[1] = CrashSpec::at_time(0);    // down from the start
  plan.specs[2] = CrashSpec::at_time(500);  // down at t=500
  SimWorld world(4, 1, DelayConfig{}, plan);
  world.schedule_faults();
  EXPECT_TRUE(world.tracker().is_crashed(1));
  EXPECT_FALSE(world.tracker().is_crashed(2));
  world.sim().run();
  EXPECT_TRUE(world.tracker().is_crashed(2));
  EXPECT_EQ(world.tracker().crash_time(2), 500);
  EXPECT_FALSE(world.tracker().is_crashed(0));
}

TEST(SimWorld, RejoinCallbackRunsRightAfterRecovery) {
  ScenarioConfig scenario;
  scenario.recoveries.push_back(parse_recovery_spec("3@100..900"));
  SimWorld world(kLayout, 1, DelayConfig{}, SimWorld::DelayFactory{},
                 CrashPlan{}, scenario, nullptr);
  std::vector<SimTime> rejoined_at;
  world.schedule_faults([&](ProcId p) {
    EXPECT_EQ(p, 3);
    EXPECT_FALSE(world.tracker().is_crashed(p));  // recovered already
    rejoined_at.push_back(world.sim().now());
  });
  world.sim().run();
  EXPECT_EQ(rejoined_at, std::vector<SimTime>{900});
  EXPECT_EQ(world.tracker().recovered_count(), 1u);
}

TEST(SimWorld, ShortCrashPlanRejectedByConsensus) {
  RunConfig cfg(kLayout);
  cfg.crashes = short_plan();
  EXPECT_THROW(run_consensus(cfg), ContractViolation);
}

TEST(SimWorld, ShortCrashPlanRejectedByService) {
  ServiceRunConfig cfg(kLayout);
  cfg.clients = 4;
  cfg.crashes = short_plan();
  EXPECT_THROW(run_service(cfg), ContractViolation);
}

TEST(SimWorld, ShortCrashPlanRejectedByTotalOrder) {
  TobRunConfig cfg(kLayout);
  cfg.submissions = {{0, 0, 11}};
  cfg.crashes = short_plan();
  EXPECT_THROW(run_tob(cfg), ContractViolation);
}

TEST(SimWorld, ShortCrashPlanRejectedByMultivalued) {
  MultiRunConfig cfg(kLayout);
  cfg.crashes = short_plan();
  EXPECT_THROW(run_multivalued(cfg), ContractViolation);
}

TEST(SimWorld, ShortCrashPlanRejectedByMm) {
  MmRunConfig cfg(MmDomain::fig2());  // n = 5
  cfg.crashes = CrashPlan::none(4);
  EXPECT_THROW(run_mm(cfg), ContractViolation);
}

TEST(SimWorld, ShortCrashPlanRejectedByRegisterWorkload) {
  RegisterRunConfig cfg(kLayout);
  cfg.crashes = short_plan();
  EXPECT_THROW(run_register_workload(cfg), ContractViolation);
}

}  // namespace
}  // namespace hyco
