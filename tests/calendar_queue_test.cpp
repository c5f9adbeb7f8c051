// Calendar-specific tests for the event core (sim/event_queue.h): tiny
// Tuning geometries force the overflow heap, heap→calendar migration,
// window widening (bucket doubling, then coarsening), lazy bucket sorting,
// and push-below-window rebuilds — paths the default 2048-bucket window
// never hits in unit-sized tests. pop_tick()/commit_tick() spans are
// checked against the repeated-pop reference contract, including caps,
// partial commits, and pushes made while a tick is open. The generic
// (at, seq) ordering and slab-reuse properties live in event_queue_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "sim/event_queue.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {
namespace {

Message tagged(std::uint64_t tag) { return Message::value_msg(0, tag); }

/// Reference model entry: what the queue should eventually emit.
struct Expected {
  SimTime at = 0;
  std::uint64_t order = 0;  ///< push order — the tie-breaker contract
  std::uint64_t tag = 0;    ///< payload identity
};

bool model_less(const Expected& a, const Expected& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.order < b.order;
}

/// Drains `q` one pop at a time, checking every event against the model.
void drain_and_check(EventQueue& q, std::vector<Expected> pending) {
  std::sort(pending.begin(), pending.end(), model_less);
  for (const Expected& want : pending) {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.next_time(), want.at);
    const Event ev = q.pop();
    EXPECT_EQ(ev.at, want.at);
    ASSERT_EQ(ev.kind, Event::Kind::Deliver);
    EXPECT_EQ(ev.msg->value, want.tag);
  }
  EXPECT_TRUE(q.empty());
}

/// The tiny geometries that force every calendar path. Day width 1 and a
/// 2..4-slot window make almost any time spread overflow; shift 3 makes
/// buckets 8 ticks wide so in-bucket lazy sorting actually runs.
std::vector<EventQueue::Tuning> tiny_geometries() {
  std::vector<EventQueue::Tuning> out;
  {
    EventQueue::Tuning t;  // 2-bucket window, widens fast
    t.bucket_bits = 1;
    t.max_bucket_bits = 2;
    t.shift = 0;
    t.max_shift = 4;
    t.widen_threshold_mult = 1;
    out.push_back(t);
  }
  {
    EventQueue::Tuning t;  // coarse buckets from the start: dirty sorting
    t.bucket_bits = 2;
    t.max_bucket_bits = 3;
    t.shift = 3;
    t.max_shift = 6;
    t.widen_threshold_mult = 2;
    out.push_back(t);
  }
  {
    EventQueue::Tuning t;  // cannot add buckets, can only coarsen
    t.bucket_bits = 1;
    t.max_bucket_bits = 1;
    t.shift = 0;
    t.max_shift = 8;
    t.widen_threshold_mult = 1;
    out.push_back(t);
  }
  return out;
}

TEST(CalendarQueue, OverflowHeapPreservesGlobalOrder) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;  // window of 2 one-tick days: nearly everything spills
  t.max_bucket_bits = 1;
  EventQueue q(t);
  std::vector<Expected> pending;
  // Interleaved far/near times, with equal-time collisions at both ends.
  const SimTime times[] = {500, 2, 900, 2, 500, 0, 901, 900, 3, 0};
  std::uint64_t tag = 0;
  for (const SimTime at : times) {
    q.push_deliver(at, 0, 1, tagged(tag));
    pending.push_back({at, tag, tag});
    ++tag;
  }
  EXPECT_GT(q.overflow_size(), 0u) << "geometry failed to force the heap";
  drain_and_check(q, std::move(pending));
}

TEST(CalendarQueue, WideningDoublesBucketsThenCoarsens) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;
  t.max_bucket_bits = 2;
  t.shift = 0;
  t.max_shift = 2;
  t.widen_threshold_mult = 1;
  EventQueue q(t);
  ASSERT_EQ(q.bucket_count(), 2u);
  ASSERT_EQ(q.bucket_shift(), 0u);
  // Each round pushes a burst far beyond the live window (all overflow,
  // tripping the widen threshold) and drains it, which migrates — and
  // widening only happens at migration. Rounds are model-checked, so the
  // geometry changes are also shown not to disturb ordering.
  SimTime base = 0;
  std::uint64_t tag = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<Expected> pending;
    for (int j = 0; j < 8; ++j) {
      const SimTime at = base + 1000 * (j + 1);
      q.push_deliver(at, 0, 1, tagged(tag));
      pending.push_back({at, tag, tag});
      ++tag;
    }
    base += 9000;
    drain_and_check(q, std::move(pending));
  }
  // Fully widened: bucket doubling exhausted first, then coarsening.
  EXPECT_EQ(q.bucket_count(), 4u);
  EXPECT_EQ(q.bucket_shift(), 2u);
}

TEST(CalendarQueue, CoarseBucketsLazySortOnConsume) {
  EventQueue::Tuning t;
  t.bucket_bits = 2;
  t.shift = 3;  // 8-tick days: out-of-order intra-bucket appends
  t.max_bucket_bits = 2;
  t.max_shift = 3;
  EventQueue q(t);
  std::vector<Expected> pending;
  // All in day 0 (times < 8), deliberately unsorted with duplicate times.
  const SimTime times[] = {7, 3, 5, 3, 0, 7, 1, 3};
  std::uint64_t tag = 0;
  for (const SimTime at : times) {
    q.push_deliver(at, 0, 1, tagged(tag));
    pending.push_back({at, tag, tag});
    ++tag;
  }
  drain_and_check(q, std::move(pending));
}

TEST(CalendarQueue, PushBelowLiveWindowRebuilds) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;
  t.max_bucket_bits = 1;
  EventQueue q(t);
  std::vector<Expected> pending;
  // Rebase the window far from zero, keep the queue non-empty, then push
  // strictly before the window base — the full-rebuild path.
  q.push_deliver(1000, 0, 1, tagged(0));
  pending.push_back({1000, 0, 0});
  q.push_deliver(5000, 0, 1, tagged(1));  // overflow
  pending.push_back({5000, 1, 1});
  q.push_deliver(3, 0, 1, tagged(2));  // below base day 1000
  pending.push_back({3, 2, 2});
  q.push_deliver(3, 0, 1, tagged(3));  // in the rebuilt window
  pending.push_back({3, 3, 3});
  drain_and_check(q, std::move(pending));
}

TEST(CalendarQueueProperty, FuzzMatchesModelAcrossGeometries) {
  // The wide random time range (relative to the tiny windows) keeps events
  // flowing calendar → heap → migrated calendar, across repeated widenings,
  // while pops must still match the stable-sort reference exactly.
  for (const EventQueue::Tuning& t : tiny_geometries()) {
    Rng rng(0xCA1E);
    for (int round = 0; round < 20; ++round) {
      EventQueue q(t);
      std::vector<Expected> pending;
      std::uint64_t tag = 0;
      for (int op = 0; op < 500; ++op) {
        const bool do_push = pending.empty() || rng.bounded(100) < 60;
        if (do_push) {
          const SimTime at = static_cast<SimTime>(rng.bounded(300));
          q.push_deliver(at, 0, 1, tagged(tag));
          pending.push_back({at, tag, tag});
          ++tag;
        } else {
          const auto front =
              std::min_element(pending.begin(), pending.end(), model_less);
          const Event ev = q.pop();
          EXPECT_EQ(ev.at, front->at);
          EXPECT_EQ(ev.msg->value, front->tag);
          pending.erase(front);
        }
      }
      drain_and_check(q, std::move(pending));
    }
  }
}

// --- pop_tick / commit_tick span contract ---------------------------------

TEST(CalendarQueueTick, SpanIsTheMinTimeRunInSeqOrder) {
  EventQueue q;
  q.push_deliver(7, 2, 3, tagged(10));
  q.push_deliver(9, 0, 1, tagged(99));  // later tick
  q.push_deliver(7, 4, 5, tagged(11));
  q.push_deliver(7, 6, 7, tagged(12));
  const TickSpan span = q.pop_tick(100);
  EXPECT_EQ(span.at, 7);
  ASSERT_EQ(span.count, 3u);
  for (std::size_t i = 0; i < span.count; ++i) {
    EXPECT_EQ(span.items[i].kind, Event::Kind::Deliver);
    EXPECT_EQ(span.items[i].msg->value, 10u + i);
  }
  EXPECT_EQ(span.items[0].from, 2);
  EXPECT_EQ(span.items[0].to, 3);
  q.commit_tick(span.count);
  const TickSpan next = q.pop_tick(100);
  EXPECT_EQ(next.at, 9);
  ASSERT_EQ(next.count, 1u);
  EXPECT_EQ(next.items[0].msg->value, 99u);
  q.commit_tick(1);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, CapTruncatesAndRemainderStaysQueued) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 5; ++i) q.push_deliver(4, 0, 1, tagged(i));
  const TickSpan first = q.pop_tick(2);
  ASSERT_EQ(first.count, 2u);
  EXPECT_EQ(first.items[0].msg->value, 0u);
  EXPECT_EQ(first.items[1].msg->value, 1u);
  q.commit_tick(2);
  const TickSpan rest = q.pop_tick(100);
  EXPECT_EQ(rest.at, 4);
  ASSERT_EQ(rest.count, 3u);
  EXPECT_EQ(rest.items[0].msg->value, 2u);
  q.commit_tick(3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, PartialCommitLeavesTailPending) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 4; ++i) q.push_deliver(6, 0, 1, tagged(i));
  const TickSpan span = q.pop_tick(100);
  ASSERT_EQ(span.count, 4u);
  q.commit_tick(2);  // a halt consumed only the first two
  EXPECT_EQ(q.size(), 2u);
  // The uncommitted tail pops normally afterwards, order intact.
  EXPECT_EQ(q.pop().msg->value, 2u);
  EXPECT_EQ(q.pop().msg->value, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, CommitZeroReopensTheSameSpan) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 3; ++i) q.push_deliver(2, 0, 1, tagged(i));
  const TickSpan first = q.pop_tick(100);
  ASSERT_EQ(first.count, 3u);
  q.commit_tick(0);
  EXPECT_EQ(q.size(), 3u);
  const TickSpan again = q.pop_tick(100);
  ASSERT_EQ(again.count, 3u);
  EXPECT_EQ(again.items[0].msg->value, 0u);
  q.commit_tick(3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, PushesDuringOpenTickDoNotInvalidateTheSpan) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 8; ++i) q.push_deliver(3, 0, 1, tagged(i));
  const TickSpan span = q.pop_tick(100);
  ASSERT_EQ(span.count, 8u);
  // Handler-style pushes into the SAME tick time: they append to the very
  // bucket the span was read from (forcing growth/reallocation) and must
  // not disturb the copied-out span.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    q.push_deliver(3, 0, 1, tagged(100 + i));
  }
  for (std::size_t i = 0; i < span.count; ++i) {
    EXPECT_EQ(span.items[i].msg->value, i);
  }
  q.commit_tick(span.count);
  // The mid-tick pushes surface on the next tick, in push order.
  const TickSpan next = q.pop_tick(100000);
  EXPECT_EQ(next.at, 3);
  ASSERT_EQ(next.count, 4096u);
  EXPECT_EQ(next.items[0].msg->value, 100u);
  EXPECT_EQ(next.items[4095].msg->value, 100u + 4095u);
  q.commit_tick(next.count);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTick, MixedKindsKeepSeqOrderInsideTheSpan) {
  EventQueue q;
  int fired = 0;
  q.push_deliver(5, 0, 1, tagged(0));
  q.push(5, [&] { ++fired; });
  q.push_deliver(5, 0, 1, tagged(2));
  const TickSpan span = q.pop_tick(100);
  ASSERT_EQ(span.count, 3u);
  EXPECT_EQ(span.items[0].kind, Event::Kind::Deliver);
  EXPECT_EQ(span.items[1].kind, Event::Kind::Callback);
  EXPECT_EQ(span.items[2].kind, Event::Kind::Deliver);
  q.take_callback(span.items[1].slot)();
  EXPECT_EQ(fired, 1);
  q.commit_tick(3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTickProperty, FuzzTickSpansMatchRepeatedPop) {
  // pop_tick's contract: the span holds exactly the events `cap` repeated
  // pops would return. Fuzzed over the tiny geometries with random caps,
  // random partial commits (the halt path), and pushes between ticks —
  // every span element and every leftover is checked against the model.
  for (const EventQueue::Tuning& t : tiny_geometries()) {
    Rng rng(0x71C4);
    for (int round = 0; round < 20; ++round) {
      EventQueue q(t);
      std::vector<Expected> pending;
      std::uint64_t tag = 0;
      for (int op = 0; op < 200; ++op) {
        const bool do_push = pending.empty() || rng.bounded(100) < 50;
        if (do_push) {
          const SimTime at = static_cast<SimTime>(rng.bounded(200));
          q.push_deliver(at, 0, 1, tagged(tag));
          pending.push_back({at, tag, tag});
          ++tag;
        } else {
          // Model: the (at, seq)-sorted prefix sharing the minimum time.
          std::sort(pending.begin(), pending.end(), model_less);
          std::size_t run = 1;
          while (run < pending.size() &&
                 pending[run].at == pending[0].at) {
            ++run;
          }
          const std::uint64_t cap = 1 + rng.bounded(8);
          const std::size_t want =
              std::min<std::size_t>(run, static_cast<std::size_t>(cap));
          const TickSpan span = q.pop_tick(cap);
          ASSERT_EQ(span.at, pending[0].at);
          ASSERT_EQ(span.count, want);
          for (std::size_t i = 0; i < span.count; ++i) {
            EXPECT_EQ(span.items[i].msg->value, pending[i].tag);
          }
          const std::size_t consumed = rng.bounded(span.count + 1);
          q.commit_tick(consumed);
          pending.erase(pending.begin(),
                        pending.begin() +
                            static_cast<std::ptrdiff_t>(consumed));
        }
      }
      drain_and_check(q, std::move(pending));
    }
  }
}

// ---- Shared payloads: one slab slot per broadcast, a receiver per entry --

/// Model entry of one scheduled copy of a shared payload.
struct ExpectedCopy {
  SimTime at = 0;
  std::uint64_t order = 0;  ///< push order
  std::uint64_t tag = 0;    ///< payload identity (one per broadcast)
  ProcId from = -1;
  ProcId to = -1;
};

bool copy_less(const ExpectedCopy& a, const ExpectedCopy& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.order < b.order;
}

/// Payloads still referenced by a pending copy — what deliver_pool_in_use()
/// must report once no pin is held.
std::size_t live_payloads(const std::vector<ExpectedCopy>& pending) {
  std::vector<std::uint64_t> tags;
  for (const ExpectedCopy& c : pending) tags.push_back(c.tag);
  std::sort(tags.begin(), tags.end());
  return static_cast<std::size_t>(
      std::unique(tags.begin(), tags.end()) - tags.begin());
}

/// One broadcast from a random sender to 1..8 random receivers at random
/// times in [lo, lo + spread): one pin, its copies (appended to `pending`),
/// the unpin.
void push_broadcast(EventQueue& q, Rng& rng, std::uint64_t tag, SimTime lo,
                    std::uint64_t spread, std::uint64_t& order,
                    std::vector<ExpectedCopy>& pending) {
  const auto from = static_cast<ProcId>(rng.bounded(16));
  const std::uint32_t slot = q.pin_payload(from, tagged(tag));
  const std::uint64_t copies = 1 + rng.bounded(8);
  for (std::uint64_t c = 0; c < copies; ++c) {
    const SimTime at = lo + static_cast<SimTime>(rng.bounded(spread));
    const auto to = static_cast<ProcId>(100 + rng.bounded(1000));
    q.push_deliver(at, slot, to);
    pending.push_back({at, order++, tag, from, to});
  }
  q.unpin_payload(slot);
}

void expect_copy(const Event& ev, const ExpectedCopy& want) {
  EXPECT_EQ(ev.at, want.at);
  ASSERT_EQ(ev.kind, Event::Kind::Deliver);
  EXPECT_EQ(ev.msg->value, want.tag);
  EXPECT_EQ(ev.from, want.from);
  EXPECT_EQ(ev.to, want.to);
}

TEST(CalendarQueueShared, ReceiversSurviveHeapMigrationAndWideningViaPop) {
  // Far-flung copies of shared payloads ride the overflow heap, migrate
  // back and widen the window; each must come out with its own receiver,
  // its payload's sender and message, and the pool must hold exactly the
  // payloads that still have a pending copy.
  for (const EventQueue::Tuning& t : tiny_geometries()) {
    Rng rng(0x5A4ED);
    EventQueue q(t);
    std::vector<ExpectedCopy> pending;
    std::uint64_t order = 0;
    std::uint64_t tag = 0;
    SimTime now = 0;
    for (int op = 0; op < 400; ++op) {
      if (pending.empty() || rng.bounded(100) < 40) {
        push_broadcast(q, rng, tag++, now, 600, order, pending);
      } else {
        std::sort(pending.begin(), pending.end(), copy_less);
        const Event ev = q.pop();
        expect_copy(ev, pending.front());
        now = ev.at;
        pending.erase(pending.begin());
      }
      ASSERT_EQ(q.deliver_pool_in_use(), live_payloads(pending));
    }
    EXPECT_TRUE(q.bucket_count() > (std::size_t{1} << t.bucket_bits) ||
                q.bucket_shift() > t.shift)
        << "geometry failed to force a widening";
    std::sort(pending.begin(), pending.end(), copy_less);
    for (const ExpectedCopy& want : pending) expect_copy(q.pop(), want);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.deliver_pool_in_use(), 0u);
  }
}

TEST(CalendarQueueShared, ReceiversSurviveHeapMigrationAndWideningViaTicks) {
  // The same through pop_tick with random caps and partial commits: an
  // uncommitted copy keeps its payload alive, a committed one releases it.
  for (const EventQueue::Tuning& t : tiny_geometries()) {
    Rng rng(0x71C45);
    EventQueue q(t);
    std::vector<ExpectedCopy> pending;
    std::uint64_t order = 0;
    std::uint64_t tag = 0;
    SimTime now = 0;
    for (int op = 0; op < 400; ++op) {
      if (pending.empty() || rng.bounded(100) < 40) {
        push_broadcast(q, rng, tag++, now, 600, order, pending);
      } else {
        std::sort(pending.begin(), pending.end(), copy_less);
        const TickSpan span = q.pop_tick(1 + rng.bounded(8));
        ASSERT_EQ(span.at, pending.front().at);
        for (std::size_t i = 0; i < span.count; ++i) {
          const TickItem& it = span.items[i];
          ASSERT_EQ(it.kind, Event::Kind::Deliver);
          EXPECT_EQ(it.msg->value, pending[i].tag);
          EXPECT_EQ(it.from, pending[i].from);
          EXPECT_EQ(it.to, pending[i].to);
        }
        const std::size_t consumed = rng.bounded(span.count + 1);
        q.commit_tick(consumed);
        now = span.at;
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(consumed));
      }
      ASSERT_EQ(q.deliver_pool_in_use(), live_payloads(pending));
    }
    std::sort(pending.begin(), pending.end(), copy_less);
    for (const ExpectedCopy& want : pending) expect_copy(q.pop(), want);
    EXPECT_EQ(q.deliver_pool_in_use(), 0u);
  }
}

TEST(CalendarQueueShared, ReceiversSurviveARebuild) {
  EventQueue::Tuning t;
  t.bucket_bits = 1;
  t.max_bucket_bits = 1;
  EventQueue q(t);
  const std::uint32_t a = q.pin_payload(3, tagged(7));
  q.push_deliver(1000, a, 11);
  q.push_deliver(5000, a, 12);  // overflow heap
  q.unpin_payload(a);
  const std::uint32_t b = q.pin_payload(4, tagged(8));
  q.push_deliver(3, b, 13);  // below the window: full rebuild
  q.push_deliver(1000, b, 14);
  q.unpin_payload(b);
  EXPECT_EQ(q.deliver_pool_in_use(), 2u);
  const std::vector<ExpectedCopy> want = {
      {3, 0, 8, 4, 13}, {1000, 0, 7, 3, 11}, {1000, 0, 8, 4, 14},
      {5000, 0, 7, 3, 12}};
  for (const ExpectedCopy& w : want) expect_copy(q.pop(), w);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.deliver_pool_in_use(), 0u);
}

TEST(CalendarQueueShared, OneBroadcastUsesExactlyOneSlot) {
  EventQueue q;
  const std::uint32_t slot = q.pin_payload(0, tagged(1));
  for (ProcId to = 0; to < 1000; ++to) q.push_deliver(to % 3, slot, to);
  q.unpin_payload(slot);
  EXPECT_EQ(q.deliver_pool_capacity(), 1u);
  EXPECT_EQ(q.deliver_pool_in_use(), 1u);
  ProcId next = 0;
  for (SimTime at = 0; at < 3; ++at) {
    const TickSpan span = q.pop_tick(1000);
    for (std::size_t i = 0; i < span.count; ++i) {
      EXPECT_EQ(span.items[i].to % 3, at);
      EXPECT_EQ(span.items[i].msg->value, 1u);
      ++next;
    }
    q.commit_tick(span.count);
    EXPECT_EQ(q.deliver_pool_in_use(), at < 2 ? 1u : 0u);
  }
  EXPECT_EQ(next, 1000);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueShared, APinWithNoCopiesFreesItsSlot) {
  // A broadcast whose every copy was lost: the unpin releases the slot.
  EventQueue q;
  const std::uint32_t slot = q.pin_payload(0, tagged(1));
  EXPECT_EQ(q.deliver_pool_in_use(), 1u);
  q.unpin_payload(slot);
  EXPECT_EQ(q.deliver_pool_in_use(), 0u);
  EXPECT_THROW(q.unpin_payload(slot), ContractViolation);
}

TEST(CalendarQueueShared, PoppedMessageOutlivesItsLastReference) {
  // The last copy's pop drops the payload's count to 0, yet the reference
  // it handed out stays valid across pushes until the next pop.
  EventQueue q;
  q.push_deliver(1, 0, 1, tagged(42));
  const Event ev = q.pop();
  EXPECT_EQ(q.deliver_pool_in_use(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) q.push_deliver(2, 0, 1, tagged(i));
  EXPECT_EQ(ev.msg->value, 42u);
}

}  // namespace
}  // namespace hyco
