// Common plumbing of the round-based consensus processes: message routing,
// buffering of early messages (asynchrony lets senders run ahead), DECIDE
// gossip, decision bookkeeping, and a max-round parking brake used by
// experiment harnesses (randomized termination is probability-1, not
// bounded).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cluster_layout.h"
#include "core/consensus_process.h"
#include "core/invariant_checker.h"
#include "core/msg_exchange.h"
#include "core/types.h"
#include "net/network.h"

namespace hyco {

/// Event-driven skeleton of a round-based binary consensus process for the
/// hybrid model. Concrete algorithms (Algorithms 2 and 3) implement
/// enter_round() and on_exchange_progress().
class ProcessBase : public IConsensusProcess {
 public:
  /// `checker` may be nullptr (no invariant recording). `max_rounds` parks
  /// the process (stops advancing, still accepts DECIDE) when exceeded.
  ProcessBase(ProcId self, const ClusterLayout& layout, INetwork& net,
              InvariantChecker* checker, Round max_rounds);

  ProcessBase(const ProcessBase&) = delete;
  ProcessBase& operator=(const ProcessBase&) = delete;

  /// The paper's propose(v): records the proposal and enters round 1.
  void start(Estimate proposal) override;

  /// Runtime delivery hook for every message addressed to this process.
  void on_message(ProcId from, const Message& m) override;

  /// Crash-recovery rejoin: retransmits the active exchange's PHASE message
  /// (or re-gossips DECIDE when already decided). Peers answer with decide
  /// or catch-up replies (scenario assist), letting this process replay the
  /// history it missed and climb back to the frontier.
  void on_recover() override;

  /// Forgets the once-per-(peer, round, phase) reply bookkeeping for a
  /// rejoined peer — its copies may have been dropped while it was down,
  /// so catch-up replies to it must be allowed again. Each recovery resets
  /// the guard once, keeping total reply traffic bounded.
  void on_peer_recover(ProcId peer) override;

  void set_scenario_assist(bool on) override { assist_ = on; }

  void set_observer(obs::IRunObserver* o) override { obs_ = o; }

  [[nodiscard]] bool decided() const override {
    return decision_.has_value();
  }
  [[nodiscard]] std::optional<Estimate> decision() const override {
    return decision_;
  }
  [[nodiscard]] Round decision_round() const override {
    return decision_round_;
  }
  [[nodiscard]] Round current_round() const override { return round_; }
  [[nodiscard]] bool parked() const override { return parked_; }
  [[nodiscard]] const ProcessStats& stats() const override { return stats_; }
  [[nodiscard]] ProcId id() const { return self_; }

 protected:
  /// Advances to the next round: run the round's first cluster consensus,
  /// begin the exchange. Implementations must honor the max-round brake via
  /// maybe_park().
  virtual void enter_round() = 0;

  /// Called whenever the active exchange may have progressed (a message was
  /// credited, or a new exchange just began with a non-empty backlog).
  /// Implementations loop while the wait predicate holds.
  virtual void on_exchange_progress() = 0;

  /// Starts msg_exchange(r, ph, est) and replays buffered messages for
  /// (r, ph).
  void begin_exchange(Round r, Phase ph, Estimate est);

  /// Decides v: notifies the checker, broadcasts DECIDE(v) (lines 12/17 of
  /// Algorithm 2), and marks this process decided.
  void decide(Estimate v);

  /// Returns true (and parks) if the next round would exceed max_rounds.
  bool maybe_park();

  ProcId self_;
  const ClusterLayout& layout_;
  INetwork& net_;
  InvariantChecker* checker_;
  Round max_rounds_;
  MsgExchange exch_;
  Round round_ = 0;
  Estimate proposal_ = Estimate::Bot;  ///< the value passed to start()
  ProcessStats stats_;
  obs::IRunObserver* obs_ = nullptr;  ///< optional, not owned

 private:
  /// Scenario assist: answer a PHASE message from `from` by retransmitting
  /// this process's own message of that (round, phase), if it ever sent
  /// one — at most once per (peer, round, phase), so the extra traffic is
  /// bounded and two processes can never bounce replies forever.
  void maybe_catchup_reply(ProcId from, const Message& m);

  using BacklogKey = std::pair<Round, int>;
  /// PHASE messages for (round, phase) keys after the active exchange (or
  /// any key before start()), in arrival order, as (sender, estimate).
  /// begin_exchange replays and erases its own key; messages for the active
  /// or an earlier key are credited or dropped on arrival, never kept, so
  /// the map usually holds 0-2 keys.
  std::map<BacklogKey, std::vector<std::pair<ProcId, Estimate>>> backlog_;
  std::optional<Estimate> decision_;
  Round decision_round_ = 0;
  bool parked_ = false;
  bool started_ = false;
  bool assist_ = false;
  /// What this process broadcast per (round, phase); recorded only when
  /// scenario assist is on (feeds catch-up replies).
  std::map<BacklogKey, Estimate> sent_history_;
  std::set<std::tuple<ProcId, Round, int>> catchup_sent_;
};

}  // namespace hyco
