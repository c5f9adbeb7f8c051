// ScenarioEngine — one run's live fault-injection machinery.
//
// Built by SimWorld from a run's ScenarioConfig: takes ownership of the
// run's base DelayModel, wraps it in a FaultyChannel (loss, duplication,
// bounded reordering, the coin attack), resolves the partition schedule and
// crash-recovery plan against the run's layout, and hands SimNetwork the
// two queries it needs on the send path (release_time, draw_copies). The
// engine is plain per-run state: every draw comes from the run's seeded
// Rng, so scenario runs keep the executor's thread-count-independence.
#pragma once

#include <memory>
#include <vector>

#include "core/cluster_layout.h"
#include "core/types.h"
#include "net/delay_model.h"
#include "scenario/faulty_channel.h"
#include "scenario/partition.h"
#include "scenario/scenario.h"

namespace hyco {

class ScenarioEngine {
 public:
  /// One resolved crash-recovery instruction (cluster specs are expanded to
  /// their members).
  struct Rejoin {
    ProcId proc = 0;
    SimTime down_at = 0;
    SimTime up_at = kSimTimeNever;  ///< kSimTimeNever = stays down
  };

  /// Takes ownership of the run's base delay model. Throws
  /// ContractViolation when the config names ids out of range for `layout`.
  ScenarioEngine(const ScenarioConfig& cfg, const ClusterLayout& layout,
                 std::unique_ptr<DelayModel> base_delays);

  // Not movable either: channel_ holds a pointer into speed_ (a
  // self-reference a move would dangle).
  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;
  ScenarioEngine(ScenarioEngine&&) = delete;
  ScenarioEngine& operator=(ScenarioEngine&&) = delete;

  /// The faulty channel the network should draw delays from.
  [[nodiscard]] DelayModel& channel() { return channel_; }

  /// Partition query — see PartitionSchedule::release_time.
  [[nodiscard]] SimTime release_time(ProcId from, ProcId to,
                                     SimTime now) const {
    return partitions_.release_time(from, to, now);
  }

  /// Loss/duplication draw for one send: 0 (lost), 1, or 2 copies.
  [[nodiscard]] int draw_copies(const Message& m, Rng& rng) const {
    return channel_.copies(m, rng);
  }

  [[nodiscard]] const std::vector<Rejoin>& rejoins() const {
    return rejoins_;
  }

  /// Step-speed multiplier of process p (clock skew; 1.0 = nominal). The
  /// runner scales p's propose() start time by this; the channel scales the
  /// latency of every delivery to p (see SkewSpec).
  [[nodiscard]] double speed_factor(ProcId p) const {
    return speed_.empty() ? 1.0 : speed_[static_cast<std::size_t>(p)];
  }

 private:
  std::unique_ptr<DelayModel> base_;
  std::vector<double> speed_;  ///< per-proc skew; empty = no skew anywhere
  FaultyChannel channel_;
  PartitionSchedule partitions_;
  std::vector<Rejoin> rejoins_;
};

/// Resolves skew specs against a layout (cluster specs expand to their
/// members; the last spec naming a process wins) into a per-process factor
/// vector — or an empty vector when no spec is given. Throws
/// ContractViolation on out-of-range ids or non-positive factors.
std::vector<double> resolve_skews(const std::vector<SkewSpec>& specs,
                                  const ClusterLayout& layout);

/// Resolves recovery specs against a layout (cluster specs expand to their
/// members) and validates them: ids in range, and windows for the same
/// process disjoint in spec order. Throws ContractViolation otherwise.
std::vector<ScenarioEngine::Rejoin> resolve_recoveries(
    const std::vector<RecoverySpec>& specs, const ClusterLayout& layout);

/// Validates a full scenario against a layout without running anything —
/// the same checks the per-run engine performs, surfaced early so CLIs can
/// reject bad flags on the main thread (a ContractViolation thrown inside
/// a ParallelExecutor worker would terminate the process instead).
void validate_scenario(const ScenarioConfig& cfg, const ClusterLayout& layout);

}  // namespace hyco
