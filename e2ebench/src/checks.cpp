#include "checks.h"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

namespace e2ebench {

using hyco::Estimate;
using hyco::ExactMoments;
using hyco::ServiceRunResult;
using hyco::SlotRecord;

std::vector<std::string> check_consensus(const ConsensusExpect& expect,
                                         const Decisions& decisions) {
  std::vector<std::string> errors;
  if (decisions.size() != expect.inputs.size()) {
    errors.push_back("decision vector has " +
                     std::to_string(decisions.size()) + " entries, want " +
                     std::to_string(expect.inputs.size()));
    return errors;
  }
  std::optional<Estimate> value;
  bool agreement = true;
  bool terminated = true;
  for (std::size_t p = 0; p < decisions.size(); ++p) {
    if (decisions[p].has_value()) {
      if (!value.has_value()) value = decisions[p];
      if (*decisions[p] != *value) agreement = false;
    } else if (expect.must_decide[p] != 0) {
      terminated = false;
    }
  }
  if (!agreement) errors.emplace_back("agreement: two decided values differ");
  if (value.has_value() &&
      std::find(expect.inputs.begin(), expect.inputs.end(), *value) ==
          expect.inputs.end()) {
    errors.emplace_back("validity: decided value was never proposed");
  }
  if (!terminated) {
    errors.emplace_back("termination: a correct process did not decide");
  }
  return errors;
}

std::vector<std::string> check_service(const ServiceExpect& expect,
                                       const ServiceRunResult& r) {
  std::vector<std::string> errors;
  const std::vector<SlotRecord>* longest = nullptr;
  for (const auto& log : r.slot_logs) {
    if (longest == nullptr || log.size() > longest->size()) longest = &log;
  }
  for (std::size_t rep = 0; rep < r.slot_logs.size(); ++rep) {
    const auto& log = r.slot_logs[rep];
    if (!std::equal(log.begin(), log.end(), longest->begin())) {
      errors.push_back("prefix: replica " + std::to_string(rep) +
                       "'s log is not a prefix of the longest log");
    }
    std::unordered_set<std::uint64_t> seen;
    for (const SlotRecord& s : log) {
      if (s.batch != 0 && !seen.insert(s.batch).second) {
        errors.push_back("duplicate: batch " + std::to_string(s.batch) +
                         " appears twice in replica " + std::to_string(rep) +
                         "'s log");
        break;
      }
    }
  }
  if (r.ops_completed != expect.ops) {
    errors.push_back("ops: " + std::to_string(r.ops_completed) +
                     " completed, want " + std::to_string(expect.ops));
  }
  if (r.latency.count() != expect.ops) {
    errors.push_back("latency: " + std::to_string(r.latency.count()) +
                     " samples, want " + std::to_string(expect.ops));
  }
  if (r.batch_wait.raw_sum() + r.seq_wait.raw_sum() + r.consensus.raw_sum() !=
      r.latency.raw_sum()) {
    errors.emplace_back(
        "latency split: batch wait + slot wait + consensus != latency");
  }
  return errors;
}

namespace {

/// Appends `what` to `missed` unless `errors` is non-empty (the check
/// caught the corruption).
void expect_caught(const std::vector<std::string>& errors, const char* what,
                   std::vector<std::string>& missed) {
  if (errors.empty()) missed.push_back(std::string("not caught: ") + what);
}

ExactMoments with_count(const ExactMoments& m, std::uint64_t count) {
  return ExactMoments::from_raw(count, m.raw_sum(), m.raw_sumsq(),
                                m.raw_min(), m.raw_max());
}

ExactMoments with_sum(const ExactMoments& m, ExactMoments::U128 sum) {
  return ExactMoments::from_raw(m.count(), sum, m.raw_sumsq(), m.raw_min(),
                                m.raw_max());
}

}  // namespace

std::vector<std::string> negative_consensus(const ConsensusExpect& expect,
                                            const Decisions& decisions) {
  std::vector<std::string> missed;
  const auto decided = std::find_if(decisions.begin(), decisions.end(),
                                    [](const auto& d) { return d.has_value(); });
  if (decided == decisions.end()) {
    missed.emplace_back("no decision to corrupt");
    return missed;
  }
  const auto first = static_cast<std::size_t>(decided - decisions.begin());
  const Estimate v = **decided;

  Decisions flipped = decisions;
  flipped[first] = v == Estimate::Zero ? Estimate::One : Estimate::Zero;
  expect_caught(check_consensus(expect, flipped), "one flipped decision",
                missed);

  // Every process decides one value nobody proposed: agreement holds, so
  // only validity can catch it. Under split inputs both bits were
  // proposed, so the unproposed value is bottom.
  Estimate unproposed = Estimate::Bot;
  for (const Estimate e : {Estimate::Zero, Estimate::One}) {
    if (std::find(expect.inputs.begin(), expect.inputs.end(), e) ==
        expect.inputs.end()) {
      unproposed = e;
    }
  }
  Decisions invalid = decisions;
  for (auto& d : invalid) {
    if (d.has_value()) d = unproposed;
  }
  expect_caught(check_consensus(expect, invalid), "a never-proposed value",
                missed);

  const auto correct = std::find(expect.must_decide.begin(),
                                 expect.must_decide.end(), char{1});
  if (correct != expect.must_decide.end()) {
    Decisions undecided = decisions;
    undecided[static_cast<std::size_t>(correct - expect.must_decide.begin())]
        .reset();
    expect_caught(check_consensus(expect, undecided),
                  "a correct process without a decision", missed);
  }
  return missed;
}

std::vector<std::string> negative_service(const ServiceExpect& expect,
                                          const ServiceRunResult& r) {
  std::vector<std::string> missed;
  if (r.slot_logs.size() < 2 || r.slot_logs[0].size() < 2) {
    missed.emplace_back("no log to corrupt");
    return missed;
  }

  ServiceRunResult diverged = r;
  diverged.slot_logs[1][0].batch += 1'000'000;
  expect_caught(check_service(expect, diverged), "a diverging slot", missed);

  ServiceRunResult duplicated = r;
  auto& log = duplicated.slot_logs[0];
  const auto real = std::find_if(log.begin(), log.end(),
                                 [](const SlotRecord& s) { return s.batch; });
  if (real != log.end()) {
    // Sequence the batch again at every replica, so the logs still agree
    // and only the duplicate check can fail.
    const SlotRecord again{static_cast<int>(log.size()), real->batch};
    for (auto& l : duplicated.slot_logs) l.push_back(again);
    expect_caught(check_service(expect, duplicated), "a duplicated batch",
                  missed);
  }

  ServiceRunResult short_ops = r;
  short_ops.ops_completed -= 1;
  expect_caught(check_service(expect, short_ops), "one op missing", missed);

  ServiceRunResult short_samples = r;
  short_samples.latency = with_count(r.latency, r.latency.count() - 1);
  expect_caught(check_service(expect, short_samples),
                "one latency sample missing", missed);

  ServiceRunResult skewed = r;
  skewed.seq_wait = with_sum(r.seq_wait, r.seq_wait.raw_sum() + 1);
  expect_caught(check_service(expect, skewed), "a 1 ns latency-split error",
                missed);
  return missed;
}

}  // namespace e2ebench
