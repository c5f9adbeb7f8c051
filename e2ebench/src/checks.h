// Correctness checks the benchmark computes itself, from the returned data
// and the benchmark's own inputs — deliberately not RunResult::success()
// or check_service_logs(), so a fault in the library's own verdicts cannot
// hide a wrong result. Each check has a negative test that feeds it a
// corrupted copy of a real result and expects it to fail.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "service/service_runner.h"

namespace e2ebench {

/// What one consensus run must satisfy, derived from the configuration the
/// benchmark generated (not from the run's output).
struct ConsensusExpect {
  std::vector<hyco::Estimate> inputs;  ///< each process's proposal
  std::vector<char> must_decide;       ///< never crashed, or rejoined
};

using Decisions = std::vector<std::optional<hyco::Estimate>>;

/// Agreement (no two decided values differ), validity (the decided value
/// was proposed) and termination (every process in must_decide decided).
/// Returns one message per violated property; empty = correct.
std::vector<std::string> check_consensus(const ConsensusExpect& expect,
                                         const Decisions& decisions);

/// What one service run must satisfy.
struct ServiceExpect {
  std::uint64_t ops = 0;  ///< clients x ops_per_client
};

/// Every replica's slot log is a prefix of the longest one; no batch id
/// appears twice in a log; every op completed; one latency sample per op;
/// and the latency split (batch wait + slot wait + consensus) sums to the
/// latency sum exactly, in integer ns.
std::vector<std::string> check_service(const ServiceExpect& expect,
                                       const hyco::ServiceRunResult& r);

/// Negative tests: corrupts copies of a correct result (one flipped
/// decision, a never-proposed value, one missing decision) and returns a
/// message for each corruption check_consensus failed to catch.
std::vector<std::string> negative_consensus(const ConsensusExpect& expect,
                                            const Decisions& decisions);

/// Negative tests for check_service (a diverging slot, a duplicated batch,
/// one op missing, one latency sample missing, a 1 ns split error).
std::vector<std::string> negative_service(const ServiceExpect& expect,
                                          const hyco::ServiceRunResult& r);

}  // namespace e2ebench
