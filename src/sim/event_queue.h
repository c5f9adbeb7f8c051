// Time-ordered event queue for the discrete-event simulator.
//
// Ordering is (time, insertion sequence): events at equal times run in the
// order they were scheduled, which makes every simulation fully
// deterministic for a given seed. The (at, seq) key is a total order (seq is
// unique), so the pop sequence is independent of how events are stored —
// swapping the internal structure can never change simulation behavior.
//
// The queue is the hot path of every experiment: one all-to-all consensus
// round schedules O(n²) deliveries. The structure is a two-level calendar
// queue in front of a 4-ary heap:
//
//  * Calendar front end. A ring of 2^bucket_bits day buckets, each covering
//    a 2^shift-wide slice of virtual time, holds every event whose time
//    falls inside the current window [base_day, base_day + buckets). Pushing
//    is an O(1) append; popping walks a cursor over the ring. With the
//    default shift of 0 a bucket holds exactly one timestamp, so appends are
//    already in (at, seq) order (seq is monotonic) and no sorting ever
//    happens; with a coarser shift a bucket is lazily sorted the first time
//    the cursor consumes from it. The simulator's near-future, heavily tied
//    time distributions make this O(1) per event where a heap pays an
//    O(log n) sift against a 10^6-deep queue.
//  * Overflow heap. Events beyond the window land in the 4-ary implicit
//    min-heap (16-byte packed (at, seq) keys, parallel ref array, hole-sift
//    pop). When the calendar drains, the window rebases onto the heap's
//    minimum and near events migrate into buckets. Every heap time is
//    strictly later than every calendar time, so the merged pop order is
//    exactly the global (at, seq) order. If overflow pushes dominate between
//    migrations the window widens (more buckets, then coarser buckets).
//
// Same-tick batching: pop_tick() returns the whole run of events sharing
// the minimum time as one contiguous span, in seq order — bit-identical to
// repeated pop() — so the simulator can dispatch a broadcast burst without
// a virtual call per message. The span is two-phase: events stay queued
// until commit_tick() declares how many were actually consumed, which keeps
// halt()-mid-tick semantics exact.
//
// Payload rules for the n² path:
//
//  * One payload per broadcast, no per-event heap allocation, and no
//    per-pop Message copy. A sender parks its message once in a chunked
//    slab (pin_payload); every scheduled copy is a queue entry that names
//    the slab slot and its own receiver (the receiver rides in the entry's
//    padding), so an n-way broadcast writes one 40-byte payload and n
//    24-byte entries. Slab chunks never move, so pop() and pop_tick() hand
//    out stable `const Message*` references.
//  * A slot is reference counted: the sender's pin plus one reference per
//    scheduled copy. A consumed delivery drops its reference in pop() or
//    commit_tick(), and the sender drops its pin once every copy is
//    scheduled (a broadcast whose copies were all lost frees its slot
//    right there). A slot whose count reaches 0 is recycled only at the
//    NEXT pop/pop_tick (deferred free list), so a popped reference stays
//    valid across any pushes the handler makes.
//  * Generic timer/callback events (the ~10 cold call sites in runners,
//    harnesses, and tests) park their std::function in a free-list slab;
//    pushing into a recycled slot performs no allocation as long as the
//    callable fits std::function's small-buffer optimization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.h"
#include "net/message.h"
#include "util/assert.h"

namespace hyco {

/// A scheduled occurrence, as handed out by EventQueue::pop(): either a
/// message delivery (payload referenced in the slab) or a generic callback
/// (closure parked in the pool, referenced by slot).
struct Event {
  enum class Kind : std::uint8_t {
    Callback,  ///< run the pooled closure in `slot`
    Deliver,   ///< hand `*msg` from `from` to `to` via the deliver sink
  };

  SimTime at = 0;
  std::uint64_t seq = 0;  ///< insertion order; tie-breaker for equal times
  Kind kind = Kind::Callback;
  ProcId from = -1;        ///< Deliver: sender
  ProcId to = -1;          ///< Deliver: receiver
  std::uint32_t slot = 0;  ///< Callback: index into the closure pool
  /// Deliver: the payload, in the slab. Valid until the next pop()/
  /// pop_tick() — pushes never invalidate it (deferred slot recycling,
  /// chunked slab storage).
  const Message* msg = nullptr;
};

/// One event inside a same-tick span (see EventQueue::pop_tick).
struct TickItem {
  /// Deliver: payload in the slab, stable for the whole tick. Callback:
  /// nullptr.
  const Message* msg = nullptr;
  std::uint64_t seq = 0;   ///< insertion sequence (the event's identity)
  ProcId from = -1;        ///< Deliver: sender
  ProcId to = -1;          ///< Deliver: receiver
  std::uint32_t slot = 0;  ///< Callback: closure slot; Deliver: slab index
  Event::Kind kind = Event::Kind::Callback;
};

/// All events sharing the minimum virtual time, in seq order. The items
/// pointer is owned by the queue and valid until commit_tick(); handler
/// pushes during the tick never invalidate it.
struct TickSpan {
  SimTime at = 0;
  const TickItem* items = nullptr;
  std::size_t count = 0;
};

/// Calendar-fronted priority queue of events ordered by (at, seq), with
/// free-list slabs for both payload kinds. Not thread-safe (the simulator
/// is single-threaded).
class EventQueue {
 public:
  /// Calendar geometry. The defaults suit the simulator's workloads (dense
  /// near-future times); tests pin tiny windows to force the overflow heap,
  /// migration, and widening paths.
  struct Tuning {
    unsigned bucket_bits = 11;      ///< initial ring size = 2^bucket_bits
    unsigned max_bucket_bits = 14;  ///< widen by doubling up to this
    unsigned shift = 0;             ///< log2 bucket width in time units
    unsigned max_shift = 20;        ///< then widen by coarsening up to this
    /// Widen when overflow pushes since the last migration exceed
    /// `widen_threshold_mult * bucket_count`.
    std::size_t widen_threshold_mult = 2;
  };

  EventQueue() : EventQueue(Tuning{}) {}
  explicit EventQueue(const Tuning& t);

  /// Pre-sizes the deliver slab index space and the closure pool for
  /// `events` / `callbacks` concurrent events. Never shrinks.
  void reserve(std::size_t events, std::size_t callbacks = 0);

  /// Schedules a generic callback. Returns the event's insertion sequence.
  std::uint64_t push(SimTime at, std::function<void()> fn) {
    HYCO_CHECK_MSG(at >= 0, "cannot schedule event at negative time " << at);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      pool_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(std::move(fn));
    }
    return route_new(at, Ref{slot, -1});
  }

  /// Parks message `m` from `from` in one deliver-slab slot and returns
  /// the slot, held by one pin reference. Each push_deliver(at, slot, to)
  /// schedules one copy of it; unpin_payload(slot) drops the pin once the
  /// sender has scheduled every copy. Allocation-free in steady state: the
  /// message is copied into a recycled slab slot, never onto the heap.
  std::uint32_t pin_payload(ProcId from, const Message& m) {
    std::uint32_t idx;
    if (!free_deliveries_.empty()) {
      idx = free_deliveries_.back();
      free_deliveries_.pop_back();
    } else {
      idx = slab_used_++;
      if ((idx >> kChunkBits) >= slab_.size()) {
        slab_.emplace_back(new DeliverPayload[kChunkSize]);
      }
    }
    payload(idx) = DeliverPayload{from, 1, m};
    return idx;
  }

  /// Schedules the delivery of pinned payload `slot` to `to`. Returns the
  /// event's insertion sequence — a stable identity for the scheduled
  /// delivery that the trace layer uses as its message id.
  std::uint64_t push_deliver(SimTime at, std::uint32_t slot, ProcId to) {
    HYCO_CHECK_MSG(at >= 0, "cannot schedule event at negative time " << at);
    ++payload(slot).refs;
    return route_new(at, Ref{slot | kDeliverBit, to});
  }

  /// Drops the sender's pin on `slot` (see pin_payload).
  void unpin_payload(std::uint32_t slot) { release_payload(slot); }

  /// Schedules a one-off delivery of `m` from `from` to `to`: its own pin,
  /// push and unpin. Returns the event's insertion sequence.
  std::uint64_t push_deliver(SimTime at, ProcId from, ProcId to,
                             const Message& m) {
    const std::uint32_t slot = pin_payload(from, m);
    const std::uint64_t seq = push_deliver(at, slot, to);
    unpin_payload(slot);
    return seq;
  }

  [[nodiscard]] bool empty() const { return cal_count_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return cal_count_ + heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty() and no open
  /// tick. May advance the calendar cursor / migrate from the heap.
  [[nodiscard]] SimTime next_time() {
    HYCO_CHECK(!tick_open_);
    HYCO_CHECK(!empty());
    Bucket& b = activate();
    return b.items[b.head].at;
  }

  /// Removes and returns the earliest event. Precondition: !empty() and no
  /// open tick. For a Kind::Callback event the caller MUST follow up with
  /// take_callback(ev.slot) to obtain the closure and recycle the slot. For
  /// a Kind::Deliver event `ev.msg` stays valid until the next
  /// pop()/pop_tick().
  Event pop() {
    HYCO_CHECK(!tick_open_);
    HYCO_CHECK(!empty());
    flush_pending_frees();
    Bucket& b = activate();
    const Entry en = b.items[b.head];
    ++b.head;
    --cal_count_;
    Event ev;
    ev.at = en.at;
    ev.seq = en.seq;
    if (en.r.ref & kDeliverBit) {
      const std::uint32_t idx = en.r.ref & ~kDeliverBit;
      const DeliverPayload& p = payload(idx);
      ev.kind = Event::Kind::Deliver;
      ev.from = p.from;
      ev.to = en.r.to;
      ev.msg = &p.msg;
      release_payload(idx);  // at 0 refs, recycled at the NEXT pop
    } else {
      ev.kind = Event::Kind::Callback;
      ev.slot = en.r.ref;
    }
    return ev;
  }

  /// Opens a tick: returns every pending event at the minimum virtual time
  /// (at most `cap` of them), in seq order — the exact events `cap` repeated
  /// pop() calls would return. The events STAY QUEUED until commit_tick().
  /// During the open tick the caller may push new events (at times >= the
  /// tick time) and must call take_callback for each consumed Callback
  /// item; it must not call pop()/next_time() until the commit.
  TickSpan pop_tick(std::uint64_t cap);

  /// Closes the tick opened by pop_tick: the first `consumed` items of the
  /// span leave the queue (each drops its payload reference; a payload left
  /// with none recycles at the next pop/pop_tick); the rest remain pending.
  /// 0 <= consumed <= span.count.
  void commit_tick(std::size_t consumed);

  /// Moves the pooled closure out of `slot` and returns the slot to the
  /// free list. Call exactly once per popped/consumed Kind::Callback event,
  /// before running the closure (the closure may push new events, which can
  /// recycle or grow the pool slot it came from).
  std::function<void()> take_callback(std::uint32_t slot) {
    HYCO_CHECK_MSG(slot < pool_.size(), "bad callback slot " << slot);
    std::function<void()> fn = std::move(pool_[slot]);
    HYCO_CHECK_MSG(static_cast<bool>(fn), "callback slot " << slot
                                          << " taken twice or never filled");
    pool_[slot] = nullptr;  // drop any residual captured state now
    free_slots_.push_back(slot);
    return fn;
  }

  /// Total number of events ever pushed.
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

  /// High-water mark of size() — the peak number of concurrently pending
  /// events (feeds the perf snapshot's queue-depth metric).
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  // Pool introspection for tests and benchmarks: total slots ever
  // materialized, and how many of them are currently in use. A deliver slot
  // is in use while its pin or any scheduled copy holds it; one awaiting
  // its deferred recycle counts as free (its events are gone).
  [[nodiscard]] std::size_t pool_capacity() const { return pool_.size(); }
  [[nodiscard]] std::size_t pool_in_use() const {
    return pool_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t deliver_pool_capacity() const {
    return slab_used_;
  }
  [[nodiscard]] std::size_t deliver_pool_in_use() const {
    return slab_used_ - free_deliveries_.size() - pending_frees_.size();
  }

  // Calendar introspection for tests: current ring size / bucket-width
  // shift (they change when the window widens) and how many events sit in
  // the overflow heap right now.
  [[nodiscard]] std::size_t bucket_count() const { return nb_; }
  [[nodiscard]] unsigned bucket_shift() const { return shift_; }
  [[nodiscard]] std::size_t overflow_size() const { return heap_.size(); }

 private:
  // 4-ary implicit heap: children of i are 4i+1 … 4i+4, parent (i-1)/4.
  static constexpr std::size_t kArity = 4;

  /// High bit of an event's ref distinguishes the two payload slabs; low 31
  /// bits index into the corresponding one.
  static constexpr std::uint32_t kDeliverBit = 0x8000'0000u;

  /// Deliver slab chunking: fixed-size chunks that never move once
  /// allocated, so `const Message*` references survive slab growth.
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  /// A consumed bucket keeps its capacity for ring reuse (steady-state
  /// pushes never reallocate) unless it grew past this — big-burst buckets
  /// release their memory instead of pinning it on every ring slot.
  static constexpr std::size_t kMaxRetainedBucketEntries = 4096;

  /// What the overflow heap orders: (at, seq) packed into one 128-bit
  /// integer, high half `at` (non-negative by contract, so unsigned compare
  /// is exact), low half `seq`. One register-pair compare replaces the
  /// two-field lexicographic compare, and four 16-byte keys share a cache
  /// line. Payload refs ride in a parallel array (refs_[i] belongs to
  /// heap_[i]) so the sift only drags 8 extra bytes per moved node.
  using Key = unsigned __int128;

  static Key make_key(SimTime at, std::uint64_t seq) {
    return (Key{static_cast<std::uint64_t>(at)} << 64) | seq;
  }
  static SimTime key_at(Key k) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
  }
  static std::uint64_t key_seq(Key k) {
    return static_cast<std::uint64_t>(k);
  }

  /// What an event points at: a payload ref (kDeliverBit set: deliver
  /// slab, else closure pool) and, for a delivery, its receiver — the one
  /// field that differs between the copies of a broadcast.
  struct Ref {
    std::uint32_t ref;
    ProcId to;
  };

  /// A calendar entry: explicit (at, seq) plus the ref. 24 bytes — the
  /// receiver fills what would be padding after a lone 4-byte ref, and
  /// packing into a 16-byte Key would pad the struct to 32.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Ref r;
  };
  static_assert(sizeof(Entry) == 24, "calendar entries must stay 24 bytes");

  /// One day of the calendar ring. `head` is the consumed prefix; entries
  /// in [head, items.size()) are pending, kept in (at, seq) order (lazily
  /// sorted when `dirty`, which only a shift > 0 geometry can set).
  struct Bucket {
    std::vector<Entry> items;
    std::uint32_t head = 0;
    bool dirty = false;
  };

  /// A parked Deliver payload, in a stable slab chunk, shared by every
  /// scheduled copy. `refs` counts the sender's pin plus each copy still
  /// queued.
  struct DeliverPayload {
    ProcId from;
    std::uint32_t refs;
    Message msg;
  };

  [[nodiscard]] std::uint64_t day(SimTime at) const {
    return static_cast<std::uint64_t>(at) >> shift_;
  }

  DeliverPayload& payload(std::uint32_t idx) {
    return slab_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  /// Files a freshly pushed event into the calendar window, the overflow
  /// heap, or (cold, raw-queue tests only) a full rebuild when it lands
  /// before the current window. Returns the assigned insertion sequence.
  std::uint64_t route_new(SimTime at, Ref r) {
    const std::uint64_t seq = next_seq_++;
    const std::uint64_t d = day(at);
    if (d - base_day_ < nb_) {  // unsigned: d < base_day_ wraps, fails
      append_to_bucket(buckets_[d & mask_], at, seq, r);
      if (d < cursor_day_) cursor_day_ = d;
    } else if (cal_count_ == 0 && heap_.empty()) {
      base_day_ = cursor_day_ = d;  // empty queue: rebase the window here
      append_to_bucket(buckets_[d & mask_], at, seq, r);
    } else if (d >= base_day_ + nb_) {
      heap_push(make_key(at, seq), r);
      ++overflow_pushes_;
    } else {
      rebuild_with(Entry{at, seq, r});
    }
    const std::size_t sz = cal_count_ + heap_.size();
    if (sz > peak_) peak_ = sz;
    return seq;
  }

  void append_to_bucket(Bucket& b, SimTime at, std::uint64_t seq, Ref r) {
    if (b.head != 0 && b.head == b.items.size()) {
      // Fully consumed leftovers (possibly from an earlier window sharing
      // this ring slot): reset before reuse.
      b.items.clear();
      b.head = 0;
      b.dirty = false;
    }
    if (shift_ != 0 && !b.dirty && b.items.size() > b.head &&
        at < b.items.back().at) {
      b.dirty = true;  // same-at appends keep order (seq is monotonic)
    }
    b.items.push_back(Entry{at, seq, r});
    ++cal_count_;
  }

  /// The bucket the cursor should consume from, sorted and non-empty.
  /// Precondition: !empty(). Advances the cursor / migrates as needed.
  Bucket& activate() {
    Bucket& b = buckets_[cursor_day_ & mask_];
    if (b.head < b.items.size() && !b.dirty) return b;
    return activate_slow();
  }

  Bucket& activate_slow();
  void migrate_from_heap();
  void maybe_widen();
  void rebuild_with(const Entry& extra);
  void release_bucket(Bucket& b);

  /// Drops one reference to deliver slot `idx`; the last one parks the
  /// slot on the deferred free list.
  void release_payload(std::uint32_t idx) {
    DeliverPayload& p = payload(idx);
    HYCO_CHECK_MSG(p.refs > 0, "deliver slot " << idx << " released twice");
    if (--p.refs == 0) pending_frees_.push_back(idx);
  }

  void flush_pending_frees() {
    if (pending_frees_.empty()) return;
    free_deliveries_.insert(free_deliveries_.end(), pending_frees_.begin(),
                            pending_frees_.end());
    pending_frees_.clear();
  }

  void heap_push(Key k, Ref r) {
    heap_.push_back(k);
    refs_.push_back(r);
    sift_up(heap_.size() - 1);
  }

  /// Removes the heap minimum (caller has already read front()).
  void heap_pop_top();

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    const Ref r = refs_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (k >= heap_[parent]) break;
      heap_[i] = heap_[parent];
      refs_[i] = refs_[parent];
      i = parent;
    }
    heap_[i] = k;
    refs_[i] = r;
  }

  // Calendar window.
  std::vector<Bucket> buckets_;
  std::uint64_t nb_;             ///< ring size, power of two
  std::uint64_t mask_;           ///< nb_ - 1
  std::uint64_t base_day_ = 0;   ///< first day of the window
  std::uint64_t cursor_day_ = 0; ///< next day to consume; >= base_day_
  std::size_t cal_count_ = 0;    ///< pending entries in the calendar
  unsigned bucket_bits_;
  unsigned max_bucket_bits_;
  unsigned shift_;
  unsigned max_shift_;
  std::size_t widen_threshold_mult_;
  std::uint64_t overflow_pushes_ = 0;  ///< heap pushes since last migration

  // Overflow heap (times strictly beyond the window).
  std::vector<Key> heap_;  ///< (at, seq) sort keys
  std::vector<Ref> refs_;  ///< parallel payload refs and receivers

  // Deliver payload slab: chunks never move, so popped refs stay valid.
  std::vector<std::unique_ptr<DeliverPayload[]>> slab_;
  std::uint32_t slab_used_ = 0;  ///< high-water of materialized slots
  std::vector<std::uint32_t> free_deliveries_;
  std::vector<std::uint32_t> pending_frees_;  ///< recycle at next pop

  // Callback closure pool.
  std::vector<std::function<void()>> pool_;
  std::vector<std::uint32_t> free_slots_;

  // Open-tick state (pop_tick .. commit_tick).
  std::vector<TickItem> tick_items_;
  std::uint64_t tick_day_ = 0;
  bool tick_open_ = false;

  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace hyco
