#include "core/msg_exchange.h"

#include <algorithm>

#include "util/assert.h"

namespace hyco {

MsgExchange::MsgExchange(const ClusterLayout& layout, INetwork& net,
                         ProcId self)
    : layout_(layout),
      net_(net),
      self_(self),
      cluster_values_(static_cast<std::size_t>(layout_.m()), 0) {}

void MsgExchange::begin(Round r, Phase ph, Estimate est) {
  HYCO_CHECK_MSG(r >= 1, "rounds start at 1");
  round_ = r;
  phase_ = ph;
  est_ = est;
  active_ = true;
  ++begun_;
  std::fill(cluster_values_.begin(), cluster_values_.end(), 0);
  support_ = {};
  covered01_ = covered_ = 0;
  // Line 3: broadcast (r, ph, est) to everyone, self included.
  net_.broadcast(self_, Message::phase_msg(r, ph, est));
}

void MsgExchange::retransmit() {
  HYCO_CHECK_MSG(active_, "retransmit() outside an active exchange");
  net_.broadcast(self_, Message::phase_msg(round_, phase_, est_));
}

bool MsgExchange::credit(ProcId from, Estimate value) {
  HYCO_CHECK_MSG(active_, "credit() outside an active exchange");
  // Lines 5-6: supporters[v] ∪= cluster(j) — the one-for-all closure.
  const ClusterId x = layout_.cluster_of(from);
  std::uint8_t& values = cluster_values_[static_cast<std::size_t>(x)];
  const std::size_t v = estimate_index(value);
  const auto bit = static_cast<std::uint8_t>(1u << v);
  if ((values & bit) == 0) {
    const ProcId size = layout_.cluster_size(x);
    support_[v] += size;
    if (values == 0) covered_ += size;
    constexpr std::uint8_t kBinary =
        (1u << estimate_index(Estimate::Zero)) |
        (1u << estimate_index(Estimate::One));
    if ((bit & kBinary) != 0 && (values & kBinary) == 0) covered01_ += size;
    values |= bit;
  }
  return satisfied();
}

bool MsgExchange::satisfied() const {
  // Line 7. Phase 1 (and Algorithm 3): union of the 0- and 1-supporters.
  // Phase 2: union over the values actually seen ({0 or 1} and ⊥).
  const ProcId covered = phase_ == Phase::Two ? covered_ : covered01_;
  return 2 * covered > layout_.n();
}

ProcId MsgExchange::support(Estimate v) const {
  return support_[estimate_index(v)];
}

ReceivedValues MsgExchange::values_received() const {
  ReceivedValues vals;
  for (const Estimate e : kAllEstimates) {
    // Clusters are non-empty, so a credited value has positive support.
    if (support_[estimate_index(e)] > 0) vals.push_back(e);
  }
  return vals;
}

}  // namespace hyco
