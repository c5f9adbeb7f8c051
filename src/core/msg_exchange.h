// Algorithm 1 — the msg_exchange(r, ph, est) communication pattern.
//
// The heart of the "One for All and All for One" idea: when p_i receives a
// PHASE(r, ph, v) message from p_j in cluster P[x], it credits v to EVERY
// process of P[x] (supporters_i[v] ∪= cluster(j)), because the cluster-local
// consensus objects guarantee no two members of a cluster broadcast
// different values in the same (r, ph). The wait predicate is
//     |supporters_i[a] ∪ supporters_i[b]| > n/2,
// i.e. the clusters heard from must cover a majority of processes — crashed
// members included.
//
// Per the paper, (a, b) = (0, 1) in phase 1 (and in every round of
// Algorithm 3), and (a, b) = (0-or-1, ⊥) in phase 2, where the binary value
// is defined dynamically by the messages received. We track all three
// supporter sets; the phase-2 predicate counts the union over all values
// seen, which coincides with the paper's definition whenever the WA1
// invariant holds (the invariant checker verifies WA1 independently).
//
// Every delivered PHASE message is credited, so credit() and the wait
// predicate are the handler's hot path: both are O(1) and allocation-free.
// The supporter sets are kept as one value mask per cluster plus running
// process counts, updated only when a cluster first supports a value.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/cluster_layout.h"
#include "core/types.h"
#include "net/network.h"

namespace hyco {

/// The distinct values an exchange credited, in index order (0, 1, ⊥). At
/// most three, so the list lives inline and reading it never allocates.
class ReceivedValues {
 public:
  void push_back(Estimate e) { vals_[size_++] = e; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Estimate operator[](std::size_t i) const { return vals_[i]; }
  [[nodiscard]] const Estimate* begin() const { return vals_.data(); }
  [[nodiscard]] const Estimate* end() const { return vals_.data() + size_; }

 private:
  std::array<Estimate, 3> vals_{};
  std::size_t size_ = 0;
};

/// One process's reusable engine for the msg_exchange pattern. begin() both
/// broadcasts PHASE(r, ph, est) and resets the supporter sets; credit() folds
/// in one received message and reports whether the wait predicate holds.
class MsgExchange {
 public:
  MsgExchange(const ClusterLayout& layout, INetwork& net, ProcId self);

  /// Starts the pattern for (r, ph): broadcasts the PHASE message (line 3)
  /// and clears the supporter sets (line 2). The caller then feeds buffered
  /// and future messages through credit().
  void begin(Round r, Phase ph, Estimate est);

  /// Folds in a PHASE(round(), phase(), value) message from `from`
  /// (lines 5-6). Returns true if the wait predicate (line 7) now holds.
  /// Precondition: the message matches the active (r, ph).
  bool credit(ProcId from, Estimate value);

  /// The wait predicate of line 7: credited clusters cover > n/2 processes.
  [[nodiscard]] bool satisfied() const;

  /// |supporters[v]| — processes supporting v under cluster closure.
  [[nodiscard]] ProcId support(Estimate v) const;

  /// Distinct values with non-empty supporter sets, in index order.
  [[nodiscard]] ReceivedValues values_received() const;

  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool active() const { return active_; }

  /// The estimate this process broadcast in the active exchange (what a
  /// recovered process must retransmit).
  [[nodiscard]] Estimate value() const { return est_; }

  /// Rebroadcasts the active exchange's PHASE message (crash-recovery
  /// retransmission). Crediting is idempotent — supporter sets are unions
  /// of clusters — so peers that already saw the original are unaffected.
  void retransmit();

  /// Number of begin() calls (== phases entered); for instrumentation.
  [[nodiscard]] std::uint64_t exchanges_started() const { return begun_; }

 private:
  const ClusterLayout& layout_;
  INetwork& net_;
  ProcId self_;

  Round round_ = 0;
  Phase phase_ = Phase::One;
  Estimate est_ = Estimate::Bot;
  bool active_ = false;
  std::uint64_t begun_ = 0;

  // supporters[v], kept per *cluster* (they are always unions of whole
  // clusters; this is equivalent to the paper's process sets and cheaper):
  // bit estimate_index(v) of cluster_values_[x] is set once a v from
  // cluster x was credited. The counters are the sizes the predicates and
  // support() read; a cluster adds its size to each the first time it
  // enters the set.
  std::vector<std::uint8_t> cluster_values_;
  std::array<ProcId, 3> support_{};  ///< |supporters[v]|, index 2 is ⊥
  ProcId covered01_ = 0;  ///< |supporters[0] ∪ supporters[1]|
  ProcId covered_ = 0;    ///< |supporters[0] ∪ supporters[1] ∪ supporters[⊥]|
};

}  // namespace hyco
