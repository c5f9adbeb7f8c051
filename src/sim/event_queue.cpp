#include "sim/event_queue.h"

#include <algorithm>

namespace hyco {

EventQueue::EventQueue(const Tuning& t)
    : bucket_bits_(t.bucket_bits),
      max_bucket_bits_(t.max_bucket_bits),
      shift_(t.shift),
      max_shift_(t.max_shift),
      widen_threshold_mult_(t.widen_threshold_mult) {
  HYCO_CHECK_MSG(t.bucket_bits >= 1 && t.bucket_bits <= 24,
                 "bucket_bits out of range: " << t.bucket_bits);
  HYCO_CHECK_MSG(t.max_bucket_bits >= t.bucket_bits &&
                     t.max_bucket_bits <= 24,
                 "max_bucket_bits out of range: " << t.max_bucket_bits);
  HYCO_CHECK_MSG(t.shift <= t.max_shift && t.max_shift < 63,
                 "shift out of range: " << t.shift << "/" << t.max_shift);
  HYCO_CHECK_MSG(t.widen_threshold_mult >= 1,
                 "widen_threshold_mult must be >= 1");
  nb_ = std::uint64_t{1} << bucket_bits_;
  mask_ = nb_ - 1;
  buckets_.resize(nb_);
}

void EventQueue::reserve(std::size_t events, std::size_t callbacks) {
  // Deliver payloads: pre-size the chunk pointer table (chunks themselves
  // materialize on demand — one allocation per 4096 slots, and existing
  // chunks never move) and the free lists that can grow to slab size.
  const std::size_t chunks = (events + kChunkSize - 1) >> kChunkBits;
  if (chunks > slab_.capacity()) slab_.reserve(chunks);
  if (events > free_deliveries_.capacity()) free_deliveries_.reserve(events);
  if (callbacks > pool_.capacity()) {
    pool_.reserve(callbacks);
    free_slots_.reserve(callbacks);
  }
}

TickSpan EventQueue::pop_tick(std::uint64_t cap) {
  HYCO_CHECK(!tick_open_);
  HYCO_CHECK(!empty());
  HYCO_CHECK_MSG(cap >= 1, "pop_tick needs a positive event budget");
  flush_pending_frees();
  Bucket& b = activate();
  const Entry* e = b.items.data() + b.head;
  const std::size_t avail = b.items.size() - b.head;
  const SimTime t = e[0].at;
  // Length of the minimum-time run. With shift 0 the whole bucket shares
  // one timestamp; coarser buckets scan the sorted prefix.
  std::size_t k;
  if (shift_ == 0) {
    k = avail;
  } else {
    k = 1;
    while (k < avail && e[k].at == t) ++k;
  }
  if (cap < k) k = static_cast<std::size_t>(cap);
  // Copy the run out: handler pushes during the tick may append to (and
  // reallocate) this very bucket, so the span must not alias it.
  tick_items_.resize(k);
  TickItem* out = tick_items_.data();
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t ref = e[i].r.ref;
    if (ref & kDeliverBit) {
      const std::uint32_t idx = ref & ~kDeliverBit;
      const DeliverPayload& p = payload(idx);
      out[i] = TickItem{&p.msg, e[i].seq, p.from, e[i].r.to, idx,
                        Event::Kind::Deliver};
    } else {
      out[i] = TickItem{nullptr, e[i].seq, -1, -1, ref,
                        Event::Kind::Callback};
    }
  }
  tick_open_ = true;
  tick_day_ = cursor_day_;
  return TickSpan{t, out, k};
}

void EventQueue::commit_tick(std::size_t consumed) {
  HYCO_CHECK(tick_open_);
  HYCO_CHECK_MSG(consumed <= tick_items_.size(),
                 "commit_tick(" << consumed << ") exceeds span of "
                                << tick_items_.size());
  tick_open_ = false;
  Bucket& b = buckets_[tick_day_ & mask_];
  b.head += static_cast<std::uint32_t>(consumed);
  cal_count_ -= consumed;
  for (std::size_t i = 0; i < consumed; ++i) {
    const TickItem& it = tick_items_[i];
    if (it.kind == Event::Kind::Deliver) release_payload(it.slot);
  }
}

EventQueue::Bucket& EventQueue::activate_slow() {
  if (cal_count_ == 0) migrate_from_heap();
  for (std::uint64_t scanned = 0; scanned <= nb_; ++scanned) {
    Bucket& b = buckets_[cursor_day_ & mask_];
    if (b.head < b.items.size()) {
      if (b.dirty) {
        std::sort(b.items.begin() + b.head, b.items.end(),
                  [](const Entry& a, const Entry& c) {
                    return a.at != c.at ? a.at < c.at : a.seq < c.seq;
                  });
        b.dirty = false;
      }
      return b;
    }
    if (!b.items.empty()) release_bucket(b);
    ++cursor_day_;
  }
  HYCO_CHECK_MSG(false, "calendar cursor ran off the window (count "
                            << cal_count_ << ")");
  return buckets_.front();  // unreachable
}

void EventQueue::release_bucket(Bucket& b) {
  b.head = 0;
  b.dirty = false;
  if (b.items.capacity() > kMaxRetainedBucketEntries) {
    std::vector<Entry>().swap(b.items);  // don't pin burst-sized capacity
  } else {
    b.items.clear();
  }
}

void EventQueue::migrate_from_heap() {
  HYCO_CHECK_MSG(!heap_.empty(), "migrate with an empty overflow heap");
  maybe_widen();
  base_day_ = day(key_at(heap_.front()));
  cursor_day_ = base_day_;
  const std::uint64_t end_day = base_day_ + nb_;
  // Heap pops come out in increasing (at, seq), so per-bucket appends stay
  // sorted and never set `dirty`.
  while (!heap_.empty()) {
    const Key k = heap_.front();
    const SimTime at = key_at(k);
    const std::uint64_t d = day(at);
    if (d >= end_day) break;
    const Ref r = refs_.front();
    heap_pop_top();
    append_to_bucket(buckets_[d & mask_], at, key_seq(k), r);
  }
  overflow_pushes_ = 0;
}

void EventQueue::maybe_widen() {
  if (overflow_pushes_ < widen_threshold_mult_ * nb_) return;
  // The calendar is empty here (we only widen at migration time), so the
  // geometry can change freely: no entry needs remapping.
  if (bucket_bits_ < max_bucket_bits_) {
    ++bucket_bits_;
    nb_ <<= 1;
    mask_ = nb_ - 1;
    buckets_.resize(nb_);
  } else if (shift_ < max_shift_) {
    ++shift_;
  }
}

void EventQueue::rebuild_with(const Entry& extra) {
  // A push landed before the current window with other events still live —
  // raw-queue test workloads only (the simulator never schedules into the
  // past). Re-route everything around a window based at the new minimum.
  HYCO_CHECK_MSG(!tick_open_, "cannot push before the open tick's window");
  std::vector<Entry> all;
  all.reserve(cal_count_ + heap_.size() + 1);
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.items.size(); ++i) {
      all.push_back(b.items[i]);
    }
    b.items.clear();
    b.head = 0;
    b.dirty = false;
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    all.push_back(Entry{key_at(heap_[i]), key_seq(heap_[i]), refs_[i]});
  }
  heap_.clear();
  refs_.clear();
  all.push_back(extra);
  std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& c) {
    return a.at != c.at ? a.at < c.at : a.seq < c.seq;
  });
  cal_count_ = 0;
  overflow_pushes_ = 0;
  base_day_ = cursor_day_ = day(all.front().at);
  const std::uint64_t end_day = base_day_ + nb_;
  for (const Entry& e : all) {
    const std::uint64_t d = day(e.at);
    if (d < end_day) {
      append_to_bucket(buckets_[d & mask_], e.at, e.seq, e.r);
    } else {
      heap_push(make_key(e.at, e.seq), e.r);
    }
  }
}

void EventQueue::heap_pop_top() {
  const std::size_t n = heap_.size() - 1;
  if (n > 0) {
    // Hole-sifting: walk the min-child chain down from the root, then drop
    // the detached back() element into the hole and bubble it up. In the
    // common bursty case (many events at one virtual time) the back element
    // belongs near the bottom, so each touched node moves exactly once.
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < n) {
      std::size_t best;
      if (child + kArity <= n) {
        // Full fan of four children: tournament of independent compares
        // (two pairs, then the winners) instead of a serial scan, so the
        // selects can retire as conditional moves off a short dep chain.
        const std::size_t b0 =
            child + (heap_[child + 1] < heap_[child] ? 1 : 0);
        const std::size_t b1 =
            child + 2 + (heap_[child + 3] < heap_[child + 2] ? 1 : 0);
        best = heap_[b1] < heap_[b0] ? b1 : b0;
      } else {
        best = child;
        for (std::size_t c = child + 1; c < n; ++c) {
          best = heap_[c] < heap_[best] ? c : best;
        }
      }
      heap_[hole] = heap_[best];
      refs_[hole] = refs_[best];
      hole = best;
      child = kArity * hole + 1;
    }
    heap_[hole] = heap_[n];  // hole < n always: best is < n at every step
    refs_[hole] = refs_[n];
    sift_up(hole);
  }
  heap_.pop_back();
  refs_.pop_back();
}

}  // namespace hyco
