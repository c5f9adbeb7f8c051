// Edge cases of the round/phase message plumbing: heavily reordered
// deliveries, processes running many rounds ahead of a laggard, DECIDE
// arriving before any phase message, and messages for long-past phases.
// These paths are where round-based algorithm implementations classically
// go wrong; the scenarios force them deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "core/runner.h"

namespace hyco {
namespace {

/// All traffic TO p0 is delayed 400x: the rest of the system runs ahead
/// through many rounds.
RunConfig laggard_config(std::uint64_t seed) {
  RunConfig cfg(ClusterLayout::singletons(5));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(5);
  cfg.seed = seed;
  cfg.delay_factory = [] {
    return std::make_unique<AdversarialDelay>(
        [](ProcId, ProcId to, const Message&, SimTime, Rng& rng) {
          const SimTime base = rng.uniform(5, 30);
          return to == 0 ? base * 400 : base;
        });
  };
  return cfg;
}

/// Per-message delays spanning three orders of magnitude: phase-2 traffic
/// of round r regularly overtakes phase-1 traffic of round r.
RunConfig reordering_config(std::uint64_t seed) {
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(7);
  cfg.seed = seed;
  cfg.delay_factory = [] {
    return std::make_unique<AdversarialDelay>(
        [](ProcId, ProcId, const Message&, SimTime, Rng& rng) {
          return rng.bernoulli(0.3) ? rng.uniform(1, 10)
                                    : rng.uniform(500, 5000);
        });
  };
  return cfg;
}

TEST(Backlog, OneProcessLagsManyRounds) {
  // p0 must replay its backlog and terminate with the same value.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto r = run_consensus(laggard_config(seed));
    ASSERT_TRUE(r.success()) << "seed " << seed;
  }
}

TEST(Backlog, ExtremeReorderingAcrossPhases) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto r = run_consensus(reordering_config(seed));
    ASSERT_TRUE(r.success()) << "seed " << seed;
  }
}

/// Sums, over seeds 1..15, the PHASE messages every process credited (live
/// or replayed from its backlog) and the messages the network delivered.
std::pair<std::uint64_t, std::uint64_t> credited_and_delivered(
    RunConfig (*config)(std::uint64_t)) {
  std::uint64_t credited = 0;
  std::uint64_t delivered = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto r = run_consensus(config(seed));
    for (const ProcessStats& s : r.proc_stats) {
      credited += s.phase_msgs_handled;
    }
    delivered += r.net.delivered;
  }
  return {credited, delivered};
}

TEST(Backlog, GoldenCreditCountsOfTheReorderedRuns) {
  // Pinned counts of the two runs above where the backlog matters most (a
  // laggard replaying many rounds, phases overtaking each other): the
  // backlog must credit exactly the messages it always did — no message
  // replayed twice, none for a phase already left, none lost.
  EXPECT_EQ(credited_and_delivered(laggard_config),
            std::make_pair(std::uint64_t{1267}, std::uint64_t{2555}));
  EXPECT_EQ(credited_and_delivered(reordering_config),
            std::make_pair(std::uint64_t{687}, std::uint64_t{3066}));
}

TEST(Backlog, DecideCanArriveBeforeAnyPhaseMessage) {
  // p6 gets all PHASE traffic delayed enormously but DECIDE gossip fast:
  // it must short-circuit to the decision without processing any round.
  RunConfig cfg(ClusterLayout::from_sizes({3, 3, 1}));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.inputs = uniform_inputs(7, Estimate::One);
  cfg.seed = 3;
  cfg.delay_factory = [] {
    return std::make_unique<AdversarialDelay>(
        [](ProcId, ProcId to, const Message& m, SimTime, Rng& rng) {
          const SimTime base = rng.uniform(5, 30);
          if (to == 6 && m.kind == MsgKind::Phase) return base + 1'000'000;
          return base;
        });
  };
  const auto r = run_consensus(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(r.decisions[6], Estimate::One);
  // p6 decided via gossip in whatever round it was stuck in (round 1).
  EXPECT_EQ(r.decision_rounds[6], 1);
}

TEST(Backlog, CommonCoinLaggardConvergesAcrossManyRounds) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RunConfig cfg(ClusterLayout::even(8, 4));
    cfg.alg = Algorithm::HybridCommonCoin;
    cfg.inputs = split_inputs(8);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId from, ProcId, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(5, 30);
            return from == 7 ? base * 250 : base;
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
  }
}

TEST(Backlog, MaxRoundsParkingIsCleanNotCrash) {
  // Force non-termination structurally (no covering set) and verify parked
  // processes leave the run quiescent with bounded rounds.
  RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.alg = Algorithm::HybridLocalCoin;
  cfg.inputs = split_inputs(7);
  cfg.seed = 4;
  cfg.max_rounds = 10;
  cfg.crashes = CrashPlan::none(7);
  // kill clusters 1 and 2 entirely: coverage 2 of 7 remains
  for (const ProcId p : {2, 3, 4, 5, 6}) {
    cfg.crashes.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(0);
  }
  const auto r = run_consensus(cfg);
  EXPECT_TRUE(r.safe());
  EXPECT_LE(r.max_round, 10);
  EXPECT_EQ(r.stop, StopReason::Quiescent);
}

TEST(Backlog, SelfDeliveryIsNotAssumedInstant) {
  // Self messages get the worst delay of all: algorithms must not rely on
  // hearing themselves first.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
    cfg.alg = Algorithm::HybridLocalCoin;
    cfg.inputs = split_inputs(7);
    cfg.seed = seed;
    cfg.delay_factory = [] {
      return std::make_unique<AdversarialDelay>(
          [](ProcId from, ProcId to, const Message&, SimTime, Rng& rng) {
            const SimTime base = rng.uniform(5, 30);
            return from == to ? base * 300 : base;
          });
    };
    const auto r = run_consensus(cfg);
    ASSERT_TRUE(r.success()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hyco
