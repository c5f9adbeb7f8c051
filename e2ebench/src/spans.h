// In-memory span recorder for the traced benchmark mode.
//
// A span is (name, start, end, parent) on one thread, recorded by the
// benchmark's own code around each call it makes into the library. Spans
// stay in memory and are written once, at the end, as Chrome trace-event
// JSON. With recording off every call is a no-op and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char* name = "";
    std::int64_t start_ns = 0;  ///< since the log was created
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;
  };

  /// Opens a span on construction and closes it on destruction. The span
  /// becomes the calling thread's current parent while it is open.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const { return span_.id; }

   private:
    SpanLog& log_;
    bool active_ = false;
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  explicit SpanLog(bool recording) : recording_(recording) {}

  /// Switches recording on or off. Call only while no other thread opens
  /// spans (between timed rounds).
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Opens a span whose parent is the calling thread's innermost open span.
  [[nodiscard]] Scope open(const char* name) {
    return Scope(*this, name, current());
  }
  /// Opens a span under an explicit parent (a span of another thread).
  [[nodiscard]] Scope open(const char* name, std::uint64_t parent) {
    return Scope(*this, name, parent);
  }

  /// The calling thread's innermost open span (0 when none).
  [[nodiscard]] static std::uint64_t current();

  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes every closed span as Chrome trace-event JSON ("X" events, with
  /// id and parent in args). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool recording_;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace e2ebench
