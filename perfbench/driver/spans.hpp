// Wall-clock spans recorded by the benchmark driver around its own calls
// into the library, written out as Chrome trace_event JSON.
//
// Spans nest on one thread: begin() makes the innermost open span the
// new span's parent, so a reader can subtract child time from parent
// time to get each layer's self time. Everything the simulator runs
// inside one run_for/settle call stays inside one sim.drive span; the
// driver cannot see deeper than the public API it calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; `op` is the workload op id it belongs to (0 = none).
  /// `name` must be a string literal (stored by pointer).
  void begin(const char* name, std::uint64_t op = 0) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.op = op;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(s.id);
  }

  void end() {
    if (!enabled_ || open_.empty()) return;
    spans_[open_.back() - 1].end_ns = now_ns();
    open_.pop_back();
  }

  /// RAII helper for begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t op = 0)
        : rec_(rec) {
      rec_.begin(name, op);
    }
    ~Scope() { rec_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span
  /// (microsecond timestamps relative to the first span). Span id, parent
  /// id and op id ride in `args`. Returns false if the file can't be
  /// written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - t0) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;  // ids of the open spans, innermost last
};

}  // namespace perfbench
