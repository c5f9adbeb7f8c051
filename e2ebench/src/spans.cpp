#include "spans.h"

#include <atomic>
#include <fstream>
#include <thread>

namespace e2ebench {

namespace {

thread_local std::uint64_t tl_current = 0;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t parent)
    : log_(log), active_(log.recording_) {
  if (!active_) return;
  {
    std::lock_guard<std::mutex> lock(log_.mu_);
    span_.id = log_.next_id_++;
  }
  span_.parent = parent;
  span_.name = name;
  span_.thread = thread_number();
  saved_parent_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = log_.now_ns();
}

SpanLog::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = log_.now_ns();
  tl_current = saved_parent_;
  std::lock_guard<std::mutex> lock(log_.mu_);
  log_.spans_.push_back(span_);
}

std::uint64_t SpanLog::current() { return tl_current; }

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace e2ebench
