// Shared types of the end-to-end benchmark: options, the result line, and
// the three workload entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (checkpoints, span files)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports. `errors` non-empty = not correct.
struct Outcome {
  std::uint64_t attempted = 0;  ///< runs (service: client ops) executed
  std::uint64_t failed = 0;     ///< of those, ones whose result broke a check
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
};

Outcome run_consensus_large(const Options& opts, SpanLog& spans);
Outcome run_consensus_faulty(const Options& opts, SpanLog& spans);
Outcome run_service_closed(const Options& opts, SpanLog& spans);

}  // namespace e2ebench
