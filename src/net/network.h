// Point-to-point network abstraction (Section II-A of the paper) and its
// discrete-event implementation.
//
// Channels are reliable (no corruption, duplication, or loss) but
// asynchronous (arbitrary finite transit). broadcast(m) is the paper's
// macro-operation "for each j in {1..n} do send(m) to p_j" — it is NOT
// reliable: a sender crashing mid-broadcast reaches an arbitrary subset.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "sim/crash.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace hyco {

class ScenarioEngine;

/// Transport counters, aggregated per run.
struct NetStats {
  std::uint64_t unicasts_sent = 0;      ///< individual send() deliveries scheduled
  std::uint64_t broadcasts = 0;         ///< broadcast() invocations
  std::uint64_t delivered = 0;          ///< messages handed to a live receiver
  std::uint64_t dropped_sender_crashed = 0;
  std::uint64_t dropped_receiver_crashed = 0;
  // Scenario faults (src/scenario/; all zero without a scenario):
  std::uint64_t dropped_partitioned = 0;  ///< blocked by a never-healing cut
  std::uint64_t dropped_lost = 0;         ///< per-link loss draws
  std::uint64_t duplicated = 0;           ///< extra copies scheduled
  std::uint64_t held_partitioned = 0;     ///< delayed by a healing cut
};

/// Abstract message-passing system shared by algorithms and substrates.
class INetwork {
 public:
  virtual ~INetwork() = default;

  /// Sends m from `from` to `to` over the reliable asynchronous channel.
  virtual void send(ProcId from, ProcId to, const Message& m) = 0;

  /// The paper's broadcast macro: sends m to every process (including the
  /// sender itself). Unreliable under sender crash.
  virtual void broadcast(ProcId from, const Message& m) = 0;

  /// Number of processes n.
  [[nodiscard]] virtual ProcId n() const = 0;
};

/// Discrete-event network: delays from a DelayModel, crash semantics from a
/// CrashTracker + CrashPlan (for scripted mid-broadcast crashes).
///
/// Deliveries ride the simulator's typed Deliver events (the network
/// registers itself as the DeliverSink), so sending a message allocates
/// nothing: a send or broadcast parks its payload once in the event queue's
/// slab, every copy (each receiver, each scenario duplicate) references it,
/// and it comes straight back through deliver_batch() when a copy fires.
class SimNetwork final : public INetwork, private DeliverSink {
 public:
  /// Called for each delivery to a live process.
  using DeliverFn = std::function<void(ProcId to, ProcId from, const Message&)>;

  /// All references must outlive the network. `plan` may be nullptr (no
  /// scripted broadcast crashes).
  SimNetwork(Simulator& sim, DelayModel& delays, CrashTracker& crashes,
             ProcId n, const CrashPlan* plan = nullptr,
             Trace* trace = nullptr);
  ~SimNetwork() override;

  /// Must be called before any traffic flows (the runner wires processes in
  /// after constructing the network).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Installs the run's fault-injection engine (nullptr = none). When set,
  /// every scheduled delivery consults the engine: partitioned messages are
  /// held until the cut heals (or dropped when it never does) and each send
  /// draws a copy count (loss/duplication). The engine must outlive the
  /// network. Delay shaping (reordering, coin attack) rides the engine's
  /// FaultyChannel, which the runner passes as this network's DelayModel.
  void set_scenario(ScenarioEngine* scenario) { scenario_ = scenario; }

  void send(ProcId from, ProcId to, const Message& m) override;
  void broadcast(ProcId from, const Message& m) override;
  [[nodiscard]] ProcId n() const override { return n_; }

  [[nodiscard]] const NetStats& stats() const { return stats_; }

 private:
  /// Schedules the copies of pinned payload `slot` (message `m` from
  /// `from`) that reach `to`: none if a scenario cut or loss drops it, more
  /// than one if the scenario duplicates it.
  void schedule_delivery(std::uint32_t slot, ProcId from, ProcId to,
                         const Message& m);

  /// DeliverSink: a Deliver event fired — apply receiver-crash semantics and
  /// hand the message to the wired-in deliver function. When tracing, the
  /// message id (seq + 1) is recorded and set as the trace's causal context
  /// for the duration of the handler, so records the handler makes (Sends,
  /// phase starts, decides) chain back to this delivery.
  void deliver_event(ProcId from, ProcId to, const Message& m,
                     std::uint64_t seq) override;

  /// DeliverSink: a same-tick run of deliveries in one call. Semantically
  /// identical to deliver_event per item — the crash check stays per item
  /// (a mid-broadcast crash fired from a handler can down a receiver midway
  /// through the run) — but hoists the trace branch and the deliver-fn load
  /// out of the n² loop. Falls back to the per-event path when tracing.
  std::size_t deliver_batch(const TickItem* items, std::size_t count,
                            const bool& halted) override;

  Simulator& sim_;
  DelayModel& delays_;
  CrashTracker& crashes_;
  ProcId n_;
  const CrashPlan* plan_;
  Trace* trace_;
  ScenarioEngine* scenario_ = nullptr;
  DeliverFn deliver_;
  std::vector<std::int32_t> broadcast_counts_;
  std::vector<ProcId> scratch_;  ///< reusable mid-broadcast target buffer
  NetStats stats_;
};

}  // namespace hyco
