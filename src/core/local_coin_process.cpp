#include "core/local_coin_process.h"

#include <algorithm>

#include "util/assert.h"

namespace hyco {

LocalCoinProcess::LocalCoinProcess(ProcId self, const ClusterLayout& layout,
                                   INetwork& net, ClusterMemory& memory,
                                   std::uint64_t coin_seed,
                                   InvariantChecker* checker,
                                   Round max_rounds)
    : ProcessBase(self, layout, net, checker, max_rounds), memory_(memory),
      coin_(coin_seed) {
  HYCO_CHECK_MSG(memory.cluster() == layout.cluster_of(self),
                 "p" << self << " wired to MEM_" << memory.cluster()
                     << " but belongs to P[" << layout.cluster_of(self)
                     << ']');
  est1_ = Estimate::Bot;
}

void LocalCoinProcess::enter_round() {
  if (round_ == 0) est1_ = proposal_;  // line 1: est1 ← v_i
  if (maybe_park()) return;
  ++round_;
  ++stats_.rounds_entered;
  HYCO_CHECK_MSG(is_binary(est1_), "entering round with est1=⊥ on p" << self_);
  // Phase 1, line 4: locally agree on est1 inside the cluster.
  ++stats_.cons_invocations;
  est1_ = memory_.cons(round_, Phase::One).propose(self_, est1_);
  if (checker_ != nullptr) checker_->on_est1(self_, round_, est1_);
  // Line 5: exchange across all clusters.
  begin_exchange(round_, Phase::One, est1_);
}

void LocalCoinProcess::on_exchange_progress() {
  while (!decided() && !parked() && exch_.active() && exch_.satisfied()) {
    if (exch_.phase() == Phase::One) {
      complete_phase1();
    } else {
      complete_phase2();
    }
  }
}

void LocalCoinProcess::complete_phase1() {
  // Lines 6-7: champion a majority-supported value, or ⊥.
  est2_ = Estimate::Bot;
  for (const Estimate v : {Estimate::Zero, Estimate::One}) {
    if (2 * exch_.support(v) > layout_.n()) {
      est2_ = v;
      break;
    }
  }
  // Phase 2, line 8: locally agree on est2 inside the cluster.
  ++stats_.cons_invocations;
  est2_ = memory_.cons(round_, Phase::Two).propose(self_, est2_);
  if (checker_ != nullptr) checker_->on_est2(self_, round_, est2_);
  // Line 9: exchange the championed value.
  begin_exchange(round_, Phase::Two, est2_);
}

void LocalCoinProcess::complete_phase2() {
  // Line 10: rec = distinct est2 values credited during this phase.
  const auto rec = exch_.values_received();
  if (checker_ != nullptr) {
    checker_->on_rec(self_, round_,
                     std::vector<Estimate>(rec.begin(), rec.end()));
  }

  const bool has_bot =
      std::find(rec.begin(), rec.end(), Estimate::Bot) != rec.end();
  Estimate v = Estimate::Bot;
  for (const Estimate e : rec) {
    if (is_binary(e)) {
      v = e;
      break;
    }
  }

  if (is_binary(v) && !has_bot) {
    // Line 12: rec = {v} — decide (DECIDE gossip happens inside decide()).
    decide(v);
  } else if (is_binary(v) && has_bot) {
    // Line 13: rec = {v, ⊥} — adopt v so no other value can win later.
    est1_ = v;
    enter_round();
  } else {
    // Line 14: rec = {⊥} — break symmetry with the local coin.
    ++stats_.coin_flips;
    est1_ = estimate_from_bit(coin_.flip_counted());
    enter_round();
  }
}

}  // namespace hyco
