// Unit tests for delay models and the discrete-event network, including the
// crash semantics of Section II-A: reliable channels, unreliable broadcast
// under sender crash (arbitrary subset), no steps after a crash.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/cluster_layout.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace hyco {
namespace {

Message msg() { return Message::phase_msg(1, Phase::One, Estimate::Zero); }

TEST(DelayModels, ConstantAlwaysFixed) {
  ConstantDelay d(42);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.delay(0, 1, msg(), 0, rng), 42);
  }
}

TEST(DelayModels, UniformWithinRange) {
  UniformDelay d(10, 20);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(0, 1, msg(), 0, rng);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 20);
  }
}

TEST(DelayModels, UniformRejectsBadRange) {
  EXPECT_THROW(UniformDelay(20, 10), ContractViolation);
  EXPECT_THROW(UniformDelay(-5, 10), ContractViolation);
}

TEST(DelayModels, ExponentialRespectsFloor) {
  ExponentialDelay d(100.0, 7);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_GE(d.delay(0, 1, msg(), 0, rng), 7);
  }
}

TEST(DelayModels, AdversarialSeesMessage) {
  AdversarialDelay d([](ProcId, ProcId, const Message& m, SimTime, Rng&) {
    return m.est == Estimate::Zero ? SimTime{1000} : SimTime{1};
  });
  Rng rng(4);
  EXPECT_EQ(d.delay(0, 1, msg(), 0, rng), 1000);
  EXPECT_EQ(d.delay(0, 1, Message::phase_msg(1, Phase::One, Estimate::One), 0,
                    rng),
            1);
}

TEST(DelayModels, AdversarialNegativeDelayRejected) {
  AdversarialDelay d(
      [](ProcId, ProcId, const Message&, SimTime, Rng&) { return SimTime{-1}; });
  Rng rng(5);
  EXPECT_THROW(d.delay(0, 1, msg(), 0, rng), ContractViolation);
}

TEST(DelayModels, FactoryBuildsConfiguredKind) {
  Rng rng(6);
  auto c = make_delay_model(DelayConfig::constant_of(9));
  EXPECT_EQ(c->delay(0, 1, msg(), 0, rng), 9);
  auto u = make_delay_model(DelayConfig::uniform(1, 2));
  const auto v = u->delay(0, 1, msg(), 0, rng);
  EXPECT_TRUE(v == 1 || v == 2);
  auto e = make_delay_model(DelayConfig::exponential(50));
  EXPECT_GE(e->delay(0, 1, msg(), 0, rng), 1);
}

struct NetFixture {
  explicit NetFixture(ProcId n, const CrashPlan* plan = nullptr)
      : sim(7), delay(10), tracker(static_cast<std::size_t>(n)),
        net(sim, delay, tracker, n, plan) {
    net.set_deliver([this](ProcId to, ProcId from, const Message& m) {
      deliveries.push_back({to, from, m});
    });
  }
  struct Delivery {
    ProcId to;
    ProcId from;
    Message m;
  };
  Simulator sim;
  ConstantDelay delay;
  CrashTracker tracker;
  SimNetwork net;
  std::vector<Delivery> deliveries;
};

TEST(SimNetwork, DeliversPointToPoint) {
  NetFixture f(3);
  f.net.send(0, 2, msg());
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].to, 2);
  EXPECT_EQ(f.deliveries[0].from, 0);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(SimNetwork, BroadcastReachesEveryoneIncludingSelf) {
  NetFixture f(4);
  f.net.broadcast(1, msg());
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 4u);
  bool self_delivery = false;
  for (const auto& d : f.deliveries) self_delivery |= (d.to == 1);
  EXPECT_TRUE(self_delivery);
  EXPECT_EQ(f.net.stats().broadcasts, 1u);
}

TEST(SimNetwork, CrashedSenderDropsTraffic) {
  NetFixture f(3);
  f.tracker.crash(0, 0);
  f.net.send(0, 1, msg());
  f.net.broadcast(0, msg());
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.net.stats().dropped_sender_crashed, 2u);
}

TEST(SimNetwork, CrashedReceiverDropsAtDeliveryTime) {
  NetFixture f(2);
  f.net.send(0, 1, msg());
  // Crash the receiver before the (t=10) delivery fires.
  f.sim.schedule_at(5, [&] { f.tracker.crash(1, 5); });
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.net.stats().dropped_receiver_crashed, 1u);
}

TEST(SimNetwork, InFlightMessagesSurviveSenderCrash) {
  // A message sent BEFORE the crash is still delivered (crash stops future
  // steps, it does not retract messages in transit).
  NetFixture f(2);
  f.net.send(0, 1, msg());
  f.sim.schedule_at(1, [&] { f.tracker.crash(0, 1); });
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 1u);
}

TEST(SimNetwork, MidBroadcastCrashDeliversSubsetThenHalts) {
  CrashPlan plan = CrashPlan::none(5);
  plan.specs[2] = CrashSpec::on_broadcast(1, 2);  // 2nd broadcast, 2 receivers
  NetFixture f(5, &plan);
  f.net.broadcast(2, msg());  // broadcast #0: full
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 5u);
  f.deliveries.clear();

  f.net.broadcast(2, msg());  // broadcast #1: partial, then crash
  f.sim.run();
  // The arbitrary 2-element subset may include the (now crashed) sender
  // itself, whose self-delivery is then dropped — so 1 or 2 live deliveries.
  EXPECT_GE(f.deliveries.size(), 1u);
  EXPECT_LE(f.deliveries.size(), 2u);
  EXPECT_TRUE(f.tracker.is_crashed(2));

  const auto after_partial = f.deliveries.size();
  f.net.broadcast(2, msg());  // dead: nothing flows
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), after_partial);
}

TEST(SimNetwork, OutOfRangeIdsThrow) {
  NetFixture f(2);
  EXPECT_THROW(f.net.send(0, 5, msg()), ContractViolation);
  EXPECT_THROW(f.net.send(-1, 1, msg()), ContractViolation);
  EXPECT_THROW(f.net.broadcast(7, msg()), ContractViolation);
}

TEST(SimNetwork, StatsCountUnicasts) {
  NetFixture f(3);
  f.net.broadcast(0, msg());
  f.net.send(1, 2, msg());
  f.sim.run();
  EXPECT_EQ(f.net.stats().unicasts_sent, 4u);
  EXPECT_EQ(f.net.stats().delivered, 4u);
}

// ---- One payload slot per send or broadcast --------------------------------

/// A scenario over `n` singleton clusters with the given link faults.
std::unique_ptr<ScenarioEngine> link_faults(ProcId n, double loss,
                                            double dup) {
  ScenarioConfig cfg;
  cfg.link.loss = loss;
  cfg.link.dup = dup;
  return std::make_unique<ScenarioEngine>(cfg, ClusterLayout::singletons(n),
                                          std::make_unique<ConstantDelay>(10));
}

TEST(SimNetworkPayload, DrainedBroadcastReleasesItsOneSlot) {
  NetFixture f(64);
  f.net.broadcast(5, msg());
  EXPECT_EQ(f.sim.deliver_pool_capacity(), 1u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 1u);
  f.net.send(1, 2, msg());
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 2u);
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 65u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 0u);
  for (const auto& d : f.deliveries) {
    EXPECT_EQ(d.m, msg());
  }
}

TEST(SimNetworkPayload, BroadcastWithEveryCopyLostFreesItsSlot) {
  NetFixture f(16);
  const auto scenario = link_faults(16, 1.0, 0.0);
  f.net.set_scenario(scenario.get());
  f.net.broadcast(0, msg());
  EXPECT_EQ(f.net.stats().dropped_lost, 16u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 0u);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
}

TEST(SimNetworkPayload, MidBroadcastCrashToNoReceiverFreesItsSlot) {
  CrashPlan plan = CrashPlan::none(8);
  plan.specs[3] = CrashSpec::on_broadcast(0, 0);  // first broadcast, k = 0
  NetFixture f(8, &plan);
  f.net.broadcast(3, msg());
  EXPECT_TRUE(f.tracker.is_crashed(3));
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 0u);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
}

TEST(SimNetworkPayload, MidBroadcastCrashSubsetSharesOneSlot) {
  CrashPlan plan = CrashPlan::none(8);
  plan.specs[3] = CrashSpec::on_broadcast(0, 5);
  NetFixture f(8, &plan);
  f.net.broadcast(3, msg());
  EXPECT_EQ(f.sim.deliver_pool_capacity(), 1u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 1u);
  f.sim.run();
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 0u);
}

TEST(SimNetworkPayload, DuplicatedCopiesShareTheSlot) {
  NetFixture f(16);
  const auto scenario = link_faults(16, 0.0, 1.0);
  f.net.set_scenario(scenario.get());
  f.net.broadcast(2, msg());
  EXPECT_EQ(f.net.stats().duplicated, 16u);
  EXPECT_EQ(f.sim.deliver_pool_capacity(), 1u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 1u);
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 32u);
  EXPECT_EQ(f.sim.deliver_pool_in_use(), 0u);
}

}  // namespace
}  // namespace hyco
