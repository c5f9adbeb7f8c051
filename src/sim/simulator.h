// Deterministic discrete-event simulator.
//
// This is the executable stand-in for the paper's pencil-and-paper
// asynchronous model: processes take atomic steps, message transit times are
// arbitrary-but-finite (drawn from a pluggable delay model), and a crashed
// process executes no further steps. Given a seed, a run is bit-for-bit
// reproducible.
//
// Message deliveries — the O(n²)-per-round hot path — travel as typed
// Deliver events dispatched straight to the registered DeliverSink (the
// network), so no closure is allocated per message. The run loop consumes
// whole ticks: every event sharing the minimum virtual time is popped as
// one span (EventQueue::pop_tick) and contiguous runs of Deliver events go
// to the sink as a single deliver_batch() call, so a broadcast burst of n²
// messages pays one virtual dispatch instead of n². schedule_in/schedule_at
// keep their std::function signature for the sparse timer/bookkeeping call
// sites; those closures are pool-backed inside the EventQueue.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

#include "core/types.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace hyco {

/// Why Simulator::run returned.
enum class StopReason {
  Quiescent,   ///< event queue drained — nothing can ever happen again
  EventLimit,  ///< max_events executed
  TimeLimit,   ///< virtual clock passed the deadline
  Halted,      ///< halt() was called from inside an event
};

/// Receiver of typed Deliver events (implemented by the network). The
/// simulator calls deliver_batch() with same-tick runs of Deliver events;
/// the default implementation forwards to deliver_event() one at a time.
class DeliverSink {
 public:
  /// `seq` is the delivery event's insertion sequence — the stable identity
  /// assigned at schedule time (the trace layer derives message ids from it;
  /// non-tracing sinks may ignore it).
  virtual void deliver_event(ProcId from, ProcId to, const Message& m,
                             std::uint64_t seq) = 0;

  /// Delivers a contiguous same-tick run in span order. `halted` aliases
  /// the simulator's halt flag: implementations must stop after the event
  /// that sets it and return how many events they consumed (== count
  /// otherwise). Overrides must preserve per-event semantics exactly —
  /// receiver crash state may change mid-run.
  virtual std::size_t deliver_batch(const TickItem* items, std::size_t count,
                                    const bool& halted);

 protected:
  ~DeliverSink() = default;  // never deleted through this interface
};

/// Single-threaded discrete-event engine with a virtual clock and a seeded
/// random number generator.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Pre-sizes the event heap / callback pool (see EventQueue::reserve).
  void reserve(std::size_t events, std::size_t callbacks = 0) {
    queue_.reserve(events, callbacks);
  }

  /// Pre-sizing for an n-process all-to-all protocol: one phase keeps ~n²
  /// deliveries in flight, plus up to 2n start/crash timers. SimWorld
  /// calls this for every runner (after bounding n by SimWorld::kMaxProcs)
  /// so the hot path never reallocates mid-run.
  void reserve_all_to_all(ProcId n) {
    const auto nn = static_cast<std::size_t>(n);
    reserve(nn * nn + 2 * nn, 2 * nn);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  void schedule_in(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `at` (>= now()).
  void schedule_at(SimTime at, std::function<void()> fn);

  /// Parks message `m` from `from` once for any number of deliveries (see
  /// EventQueue::pin_payload): schedule each copy with
  /// schedule_deliver(delay, slot, to), then unpin_payload(slot).
  std::uint32_t pin_payload(ProcId from, const Message& m) {
    return queue_.pin_payload(from, m);
  }
  void unpin_payload(std::uint32_t slot) { queue_.unpin_payload(slot); }

  /// Schedules the delivery of pinned payload `slot` to `to`, `delay`
  /// nanoseconds from now — no allocation, no Message copy — dispatched to
  /// the deliver sink when it fires. Requires a sink by dispatch time.
  /// Returns the event's insertion sequence (assigned unconditionally, so
  /// observing it is free of side effects on the run).
  std::uint64_t schedule_deliver(SimTime delay, std::uint32_t slot,
                                 ProcId to);

  /// One-off delivery of `m` from `from` to `to`: pin, schedule, unpin.
  std::uint64_t schedule_deliver(SimTime delay, ProcId from, ProcId to,
                                 const Message& m);

  /// Registers the deliver sink (one per simulator; the network installs
  /// itself). Re-registering the same sink is a no-op; a different live sink
  /// is a contract violation.
  void set_deliver_sink(DeliverSink* sink);

  /// Deregisters `sink` if it is the current one (called from the network's
  /// destructor so a dangling simulator never dispatches into freed memory).
  void clear_deliver_sink(const DeliverSink* sink);

  /// Runs until quiescence or a limit is hit.
  StopReason run(std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max(),
                 SimTime time_limit = std::numeric_limits<SimTime>::max());

  /// Executes at most one virtual-time tick (all events at the minimum
  /// time, bounded by max_events) and returns the stop reason if the run
  /// is over, std::nullopt if there is more to do. run() is exactly this
  /// in a loop.
  std::optional<StopReason> run_tick(
      std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max(),
      SimTime time_limit = std::numeric_limits<SimTime>::max());

  /// Executes exactly one event if one is pending; returns false otherwise.
  bool step();

  /// Requests run() to stop after the current event.
  void halt() { halted_ = true; }

  [[nodiscard]] bool pending() const { return !queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.pushed(); }

  /// Peak number of concurrently pending events (perf instrumentation).
  [[nodiscard]] std::size_t peak_queue_depth() const {
    return queue_.peak_size();
  }

  /// Deliver payload slots materialized / held right now (see
  /// EventQueue::deliver_pool_in_use): a broadcast holds one until its
  /// last copy is consumed.
  [[nodiscard]] std::size_t deliver_pool_capacity() const {
    return queue_.deliver_pool_capacity();
  }
  [[nodiscard]] std::size_t deliver_pool_in_use() const {
    return queue_.deliver_pool_in_use();
  }

  /// The simulation-wide RNG (delay draws, crash subsets, ...). Forked
  /// streams should be used for logically independent randomness.
  Rng& rng() { return rng_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  bool halted_ = false;
  DeliverSink* sink_ = nullptr;
  Rng rng_;
};

}  // namespace hyco
