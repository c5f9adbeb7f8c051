#include "sim/simulator.h"

#include <utility>

#include "util/assert.h"

namespace hyco {

Simulator::Simulator(std::uint64_t seed) : rng_(mix64(seed, 0x51C0DE)) {}

void Simulator::schedule_in(SimTime delay, std::function<void()> fn) {
  HYCO_CHECK_MSG(delay >= 0, "negative delay " << delay);
  queue_.push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime at, std::function<void()> fn) {
  HYCO_CHECK_MSG(at >= now_, "schedule_at(" << at << ") is in the past (now "
                                            << now_ << ")");
  queue_.push(at, std::move(fn));
}

std::uint64_t Simulator::schedule_deliver(SimTime delay, std::uint32_t slot,
                                          ProcId to) {
  HYCO_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return queue_.push_deliver(now_ + delay, slot, to);
}

std::uint64_t Simulator::schedule_deliver(SimTime delay, ProcId from,
                                          ProcId to, const Message& m) {
  HYCO_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return queue_.push_deliver(now_ + delay, from, to, m);
}

void Simulator::set_deliver_sink(DeliverSink* sink) {
  HYCO_CHECK_MSG(sink != nullptr, "deliver sink must not be null");
  HYCO_CHECK_MSG(sink_ == nullptr || sink_ == sink,
                 "a different deliver sink is already registered");
  sink_ = sink;
}

void Simulator::clear_deliver_sink(const DeliverSink* sink) {
  if (sink_ == sink) sink_ = nullptr;
}

std::size_t DeliverSink::deliver_batch(const TickItem* items,
                                       std::size_t count,
                                       const bool& halted) {
  for (std::size_t i = 0; i < count; ++i) {
    deliver_event(items[i].from, items[i].to, *items[i].msg, items[i].seq);
    if (halted) return i + 1;
  }
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Event ev = queue_.pop();
  now_ = ev.at;
  ++executed_;
  if (ev.kind == Event::Kind::Deliver) {
    HYCO_CHECK_MSG(sink_ != nullptr,
                   "Deliver event fired with no deliver sink registered");
    sink_->deliver_event(ev.from, ev.to, *ev.msg, ev.seq);
  } else {
    // Move the closure out before running it: the callback may schedule new
    // callbacks, which can recycle or grow the pool slot it came from.
    const std::function<void()> fn = queue_.take_callback(ev.slot);
    fn();
  }
  return true;
}

std::optional<StopReason> Simulator::run_tick(std::uint64_t max_events,
                                              SimTime time_limit) {
  // halt() is only observable from inside a dispatched event; a set flag
  // here is a leftover from a previous Halted return, matching run()'s old
  // on-entry reset.
  halted_ = false;
  if (queue_.empty()) return StopReason::Quiescent;
  if (executed_ >= max_events) return StopReason::EventLimit;
  // Open the tick before the time-limit check: pop_tick is two-phase, so a
  // beyond-limit tick commits as zero-consumed and everything stays queued.
  // This reads the minimum time off the already-activated bucket instead of
  // paying next_time()'s separate cursor walk on every tick.
  const TickSpan span = queue_.pop_tick(max_events - executed_);
  if (span.at > time_limit) {
    queue_.commit_tick(0);
    return StopReason::TimeLimit;
  }
  now_ = span.at;
  std::size_t done = 0;
  while (done < span.count) {
    const TickItem& it = span.items[done];
    if (it.kind == Event::Kind::Deliver) {
      // Maximal same-tick run of deliveries: one sink call for the whole
      // burst. The sink honors `halted_` mid-run and reports how far it got.
      std::size_t j = done + 1;
      while (j < span.count &&
             span.items[j].kind == Event::Kind::Deliver) {
        ++j;
      }
      HYCO_CHECK_MSG(sink_ != nullptr,
                     "Deliver event fired with no deliver sink registered");
      const std::size_t used =
          sink_->deliver_batch(span.items + done, j - done, halted_);
      executed_ += used;
      done += used;
    } else {
      const std::function<void()> fn = queue_.take_callback(it.slot);
      ++executed_;
      ++done;
      fn();
    }
    if (halted_) break;
  }
  // Unconsumed events (halt mid-tick, or an event-limit cap) stay queued:
  // a fresh run() resumes exactly where this one stopped.
  queue_.commit_tick(done);
  if (halted_) return StopReason::Halted;
  return std::nullopt;
}

StopReason Simulator::run(std::uint64_t max_events, SimTime time_limit) {
  for (;;) {
    const std::optional<StopReason> stop = run_tick(max_events, time_limit);
    if (stop) return *stop;
  }
}

}  // namespace hyco
