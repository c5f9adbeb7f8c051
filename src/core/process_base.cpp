#include "core/process_base.h"

#include "obs/observer.h"
#include "util/assert.h"
#include "util/log.h"

namespace hyco {

ProcessBase::ProcessBase(ProcId self, const ClusterLayout& layout,
                         INetwork& net, InvariantChecker* checker,
                         Round max_rounds)
    : self_(self),
      layout_(layout),
      net_(net),
      checker_(checker),
      max_rounds_(max_rounds),
      exch_(layout, net, self) {
  HYCO_CHECK_MSG(self >= 0 && self < layout.n(), "bad process id " << self);
  HYCO_CHECK_MSG(max_rounds >= 1, "max_rounds must be >= 1");
}

void ProcessBase::start(Estimate proposal) {
  HYCO_CHECK_MSG(!started_, "start() called twice on p" << self_);
  HYCO_CHECK_MSG(is_binary(proposal), "proposals must be 0 or 1");
  started_ = true;
  proposal_ = proposal;
  round_ = 0;
  enter_round();
  // Early messages may already satisfy the first wait (e.g. n == 1).
  on_exchange_progress();
}

void ProcessBase::on_message(ProcId from, const Message& m) {
  if (decided()) {
    // A decided process has returned from propose(). Under scenarios
    // (recovery, loss) the sender may have missed the DECIDE broadcast;
    // when scenario assist is on, answer stale traffic with a targeted
    // DECIDE. PHASE messages only come from undecided processes, so each
    // sender triggers finitely many replies.
    if (assist_ && m.kind != MsgKind::Decide) {
      net_.send(self_, from, Message::decide_msg(*decision_));
    }
    return;
  }

  if (m.kind == MsgKind::Decide) {
    // Algorithm 2 line 17 / Algorithm 3 line 13: forward, then return.
    decide(m.est);
    return;
  }

  // PHASE message: keep it if it is for a (round, phase) this process has
  // not reached yet (begin_exchange replays it), feed it to the active
  // exchange if it matches, and — under scenario assist — answer with our
  // own message of that (round, phase) in case the sender missed the
  // original (the reply happens before crediting, so a decision made by the
  // credit cannot swallow it; deciding broadcasts DECIDE anyway). Exchanges
  // begin in strictly increasing (round, phase) order and a parked process
  // begins none, so a message for the active or an earlier exchange would
  // never be replayed: it is not kept.
  const BacklogKey key{m.round, static_cast<int>(m.phase)};
  const bool live = started_ && exch_.active();
  if (!live ||
      (!parked_ && key > BacklogKey{exch_.round(),
                                    static_cast<int>(exch_.phase())})) {
    backlog_[key].emplace_back(from, m.est);
  }
  if (assist_ && !parked_ && started_) maybe_catchup_reply(from, m);
  if (!parked_ && live && m.round == exch_.round() &&
      m.phase == exch_.phase()) {
    ++stats_.phase_msgs_handled;
    const bool was_satisfied = obs_ != nullptr && exch_.satisfied();
    exch_.credit(from, m.est);
    if (obs_ != nullptr && !was_satisfied && exch_.satisfied()) {
      obs_->on_quorum_satisfied(self_, exch_.round(), exch_.phase());
    }
    on_exchange_progress();
  }
}

void ProcessBase::maybe_catchup_reply(ProcId from, const Message& m) {
  // The sender is exchanging in a (round, phase) this process has already
  // begun — under crash-recovery or loss it may have missed this process's
  // broadcast of that phase. Retransmit it to the sender (crediting is
  // idempotent). The once-per-(peer, round, phase) guard bounds the extra
  // traffic to one unicast per peer per phase and keeps two processes from
  // bouncing replies forever.
  const auto key = std::make_pair(m.round, static_cast<int>(m.phase));
  const auto it = sent_history_.find(key);
  if (it == sent_history_.end()) return;
  if (!catchup_sent_.emplace(from, m.round, static_cast<int>(m.phase))
           .second) {
    return;
  }
  net_.send(self_, from, Message::phase_msg(m.round, m.phase, it->second));
}

void ProcessBase::on_peer_recover(ProcId peer) {
  // std::tuple orders lexicographically, peer first: erase its whole range.
  const auto lo = catchup_sent_.lower_bound({peer, 0, 0});
  const auto hi = catchup_sent_.lower_bound({peer + 1, 0, 0});
  catchup_sent_.erase(lo, hi);
}

void ProcessBase::on_recover() {
  if (!started_ || parked_) return;
  if (decided()) {
    // Re-gossip the decision: the original DECIDE broadcast may have been
    // dropped while peers were down.
    net_.broadcast(self_, Message::decide_msg(*decision_));
    return;
  }
  if (exch_.active()) {
    // Retransmit the active PHASE message. Peers still in this (r, ph)
    // re-credit idempotently; decided peers answer with DECIDE when decide
    // replies are enabled, pulling this process back in.
    exch_.retransmit();
  }
}

void ProcessBase::begin_exchange(Round r, Phase ph, Estimate est) {
  if (obs_ != nullptr) obs_->on_phase_begin(self_, r, ph);
  if (assist_) sent_history_[{r, static_cast<int>(ph)}] = est;
  exch_.begin(r, ph, est);
  const BacklogKey key{r, static_cast<int>(ph)};
  const auto it = backlog_.find(key);
  if (it != backlog_.end()) {
    for (const auto& [from, v] : it->second) {
      ++stats_.phase_msgs_handled;
      exch_.credit(from, v);
    }
    // Backlogged credits may satisfy the quorum before any live message
    // arrives; report the milestone exactly once, here.
    if (obs_ != nullptr && exch_.satisfied()) {
      obs_->on_quorum_satisfied(self_, r, ph);
    }
  }
  // The replayed entry, and any for a (round, phase) this process skipped,
  // can never be replayed again.
  backlog_.erase(backlog_.begin(), backlog_.upper_bound(key));
}

void ProcessBase::decide(Estimate v) {
  if (decided()) return;
  HYCO_CHECK_MSG(is_binary(v), "cannot decide ⊥");
  if (checker_ != nullptr) checker_->on_decide(self_, round_, v);
  if (obs_ != nullptr) obs_->on_decide(self_, round_);
  HYCO_DEBUG("p" << self_ << " decides " << v << " at round " << round_);
  net_.broadcast(self_, Message::decide_msg(v));
  decision_ = v;
  decision_round_ = round_;
}

bool ProcessBase::maybe_park() {
  if (round_ >= max_rounds_) {
    parked_ = true;
    HYCO_DEBUG("p" << self_ << " parked at round cap " << max_rounds_);
    return true;
  }
  return false;
}

}  // namespace hyco
