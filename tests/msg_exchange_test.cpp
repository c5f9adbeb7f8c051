// Unit tests for the Algorithm 1 communication pattern: cluster-closure
// crediting ("one for all"), the majority-coverage wait predicate, and the
// phase-2 (value, ⊥) handling.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/msg_exchange.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {
namespace {

/// INetwork stub that records broadcasts instead of delivering them.
class RecordingNetwork final : public INetwork {
 public:
  explicit RecordingNetwork(ProcId n) : n_(n) {}
  void send(ProcId from, ProcId to, const Message& m) override {
    sends.push_back({from, to, m});
  }
  void broadcast(ProcId from, const Message& m) override {
    broadcasts.push_back({from, m});
  }
  [[nodiscard]] ProcId n() const override { return n_; }

  struct Send {
    ProcId from, to;
    Message m;
  };
  struct Broadcast {
    ProcId from;
    Message m;
  };
  std::vector<Send> sends;
  std::vector<Broadcast> broadcasts;

 private:
  ProcId n_;
};

TEST(MsgExchange, BeginBroadcastsThePhaseMessage) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::One);
  ASSERT_EQ(net.broadcasts.size(), 1u);
  EXPECT_EQ(net.broadcasts[0].from, 0);
  EXPECT_EQ(net.broadcasts[0].m,
            Message::phase_msg(1, Phase::One, Estimate::One));
  EXPECT_TRUE(ex.active());
  EXPECT_EQ(ex.round(), 1);
  EXPECT_EQ(ex.exchanges_started(), 1u);
}

TEST(MsgExchange, OneMessageFromMajorityClusterSatisfiesPredicate) {
  // Layout {0},{1..4},{5,6}: one message from p2 credits all of P[1]
  // (4 of 7 processes) — the "one for all" closure.
  const auto layout = ClusterLayout::fig1_right();
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.satisfied());
  EXPECT_TRUE(ex.credit(2, Estimate::One));
  EXPECT_EQ(ex.support(Estimate::One), 4);
  EXPECT_TRUE(ex.satisfied());
}

TEST(MsgExchange, SmallClustersMustAccumulate) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});  // n = 7
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.credit(0, Estimate::Zero));  // covers {0,1}: 2
  EXPECT_FALSE(ex.credit(1, Estimate::Zero));  // same cluster: still 2
  EXPECT_TRUE(ex.credit(6, Estimate::One));    // + {5,6}: 4 > 3.5
  EXPECT_EQ(ex.support(Estimate::Zero), 2);
  EXPECT_EQ(ex.support(Estimate::One), 2);
}

TEST(MsgExchange, SingletonLayoutIsPlainCounting) {
  const auto layout = ClusterLayout::singletons(5);
  RecordingNetwork net(5);
  MsgExchange ex(layout, net, 0);
  ex.begin(2, Phase::One, Estimate::One);
  EXPECT_FALSE(ex.credit(0, Estimate::One));
  EXPECT_FALSE(ex.credit(1, Estimate::Zero));
  EXPECT_TRUE(ex.credit(2, Estimate::One));  // 3 distinct > 2.5
  EXPECT_EQ(ex.support(Estimate::One), 2);
}

TEST(MsgExchange, PhaseTwoCountsBotTowardCoverage) {
  const auto layout = ClusterLayout::from_sizes({2, 3, 2});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 3);
  ex.begin(1, Phase::Two, Estimate::Bot);
  EXPECT_FALSE(ex.credit(0, Estimate::Bot));   // 2
  EXPECT_TRUE(ex.credit(2, Estimate::One));    // 2 + 3 = 5 > 3.5
  const auto vals = ex.values_received();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], Estimate::One);
  EXPECT_EQ(vals[1], Estimate::Bot);
}

TEST(MsgExchange, PhaseOneIgnoresBotForCoverage) {
  // In phase 1 (a,b) = (0,1): ⊥ should never be sent, and the predicate
  // only unions the 0/1 supporter sets.
  const auto layout = ClusterLayout::from_sizes({4, 3});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  EXPECT_FALSE(ex.credit(5, Estimate::Bot));  // credited to sup[⊥], no cover
  EXPECT_FALSE(ex.satisfied());
  EXPECT_TRUE(ex.credit(0, Estimate::Zero));  // {0..3}: 4 > 3.5
}

TEST(MsgExchange, DuplicateCreditsFromSameClusterAreIdempotent) {
  const auto layout = ClusterLayout::from_sizes({4, 3});
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  (void)ex.credit(1, Estimate::Zero);
  (void)ex.credit(2, Estimate::Zero);
  EXPECT_EQ(ex.support(Estimate::Zero), 4);  // cluster counted once
}

TEST(MsgExchange, BeginResetsState) {
  const auto layout = ClusterLayout::fig1_right();
  RecordingNetwork net(7);
  MsgExchange ex(layout, net, 0);
  ex.begin(1, Phase::One, Estimate::Zero);
  (void)ex.credit(2, Estimate::One);
  EXPECT_TRUE(ex.satisfied());
  ex.begin(1, Phase::Two, Estimate::Bot);
  EXPECT_FALSE(ex.satisfied());
  EXPECT_EQ(ex.support(Estimate::One), 0);
  EXPECT_EQ(ex.phase(), Phase::Two);
}

TEST(MsgExchange, CreditOutsideActiveExchangeThrows) {
  const auto layout = ClusterLayout::singletons(3);
  RecordingNetwork net(3);
  MsgExchange ex(layout, net, 0);
  EXPECT_THROW(ex.credit(1, Estimate::Zero), ContractViolation);
}

TEST(MsgExchange, RoundsStartAtOne) {
  const auto layout = ClusterLayout::singletons(3);
  RecordingNetwork net(3);
  MsgExchange ex(layout, net, 0);
  EXPECT_THROW(ex.begin(0, Phase::One, Estimate::Zero), ContractViolation);
}

TEST(MsgExchangeProperty, CountersMatchABruteForceRecount) {
  // The O(1) counters against the paper's definition, recounted from
  // scratch after every credit: supporters[v] is the union of the clusters
  // of every sender credited with v, support(v) its size, the phase-1
  // predicate |sup[0] ∪ sup[1]| > n/2, the phase-2 one adds sup[⊥].
  Rng rng(0xE7C4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ProcId> sizes(1 + rng.bounded(6));
    for (ProcId& size : sizes) size = static_cast<ProcId>(1 + rng.bounded(5));
    const auto layout = ClusterLayout::from_sizes(sizes);
    const ProcId n = layout.n();
    RecordingNetwork net(n);
    MsgExchange ex(layout, net, 0);
    for (int exchange = 0; exchange < 3; ++exchange) {
      const Phase ph = rng.bounded(2) == 0 ? Phase::One : Phase::Two;
      ex.begin(1 + exchange, ph, Estimate::Zero);
      std::array<std::vector<bool>, 3> sup;
      for (auto& s : sup) s.assign(static_cast<std::size_t>(n), false);
      const std::uint64_t credits = rng.bounded(3 * static_cast<std::uint64_t>(n));
      for (std::uint64_t c = 0; c < credits; ++c) {
        const auto from = static_cast<ProcId>(
            rng.bounded(static_cast<std::uint64_t>(n)));
        const Estimate v = kAllEstimates[rng.bounded(3)];
        for (const ProcId p : layout.members(layout.cluster_of(from))) {
          sup[estimate_index(v)][static_cast<std::size_t>(p)] = true;
        }
        const bool got = ex.credit(from, v);

        std::array<ProcId, 3> count{};
        ProcId covered01 = 0;
        ProcId covered = 0;
        for (std::size_t p = 0; p < sup[0].size(); ++p) {
          for (std::size_t i = 0; i < 3; ++i) count[i] += sup[i][p] ? 1 : 0;
          covered01 += (sup[0][p] || sup[1][p]) ? 1 : 0;
          covered += (sup[0][p] || sup[1][p] || sup[2][p]) ? 1 : 0;
        }
        const bool want =
            2 * (ph == Phase::Two ? covered : covered01) > n;
        ASSERT_EQ(got, want) << "trial " << trial << " credit " << c;
        ASSERT_EQ(ex.satisfied(), want);
        std::vector<Estimate> values;
        for (const Estimate e : kAllEstimates) {
          ASSERT_EQ(ex.support(e), count[estimate_index(e)]);
          if (count[estimate_index(e)] > 0) values.push_back(e);
        }
        const auto got_values = ex.values_received();
        ASSERT_EQ(std::vector<Estimate>(got_values.begin(), got_values.end()),
                  values);
      }
    }
  }
}

}  // namespace
}  // namespace hyco
