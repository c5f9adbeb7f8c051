// hyco end-to-end benchmark.
//
//   hyco_e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--work-dir=DIR]
//
// Workloads: consensus-large, consensus-faulty, service-closed (see
// README.md). Prints the end-to-end metrics (--trace=0) or the per-layer
// metrics (--trace=1, which also writes the recorded spans as Chrome
// trace-event JSON into the work directory) as the last line of stdout:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Runs that fail a correctness check count in "failed" and are listed on
// stderr as FAILED. An uncaught negative test or a determinism mismatch is
// listed as CHECK FAILED, makes "correct" false and the exit code 1.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "util/options.h"

using namespace e2ebench;

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) std::printf(", ");
    first = false;
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const hyco::Options args(argc, argv);
    Options opts;
    opts.workload = args.get_string("workload", "");
    opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opts.seconds = args.get_double("seconds", 10.0);
    opts.trace = args.get_int("trace", 0) != 0;
    opts.work_dir = args.get_string("work-dir", ".");
    std::filesystem::create_directories(opts.work_dir);

    SpanLog spans(opts.trace);
    Outcome out;
    if (opts.workload == "consensus-large") {
      out = run_consensus_large(opts, spans);
    } else if (opts.workload == "consensus-faulty") {
      out = run_consensus_faulty(opts, spans);
    } else if (opts.workload == "service-closed") {
      out = run_service_closed(opts, spans);
    } else {
      std::cerr << "unknown --workload \"" << opts.workload
                << "\" (want consensus-large | consensus-faulty | "
                   "service-closed)\n";
      return 2;
    }

    const std::vector<Metric>& metrics =
        opts.trace ? out.per_layer : out.end_to_end;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) out.error("metric " + m.name + " is not finite");
      std::cerr << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
    }
    if (opts.trace) {
      const std::string path =
          (std::filesystem::path(opts.work_dir) /
           ("spans-" + opts.workload + "-" + std::to_string(opts.seed) +
            ".json"))
              .string();
      if (!spans.write_chrome(path)) out.error("cannot write " + path);
      std::cerr << "  spans: " << spans.spans().size() << " written to "
                << path << '\n';
    }
    for (const std::string& e : out.errors) std::cerr << "CHECK FAILED: " << e << '\n';
    print_result(out, metrics);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "hyco_e2ebench: " << e.what() << '\n';
    return 2;
  }
}
