// Write-lifecycle tracing: bounded, always-cheap, off by default.
//
// One process-wide Tracer owns a fixed-capacity ring of spans
// (drop-oldest, overflow counted) plus a bounded per-write propagation
// table that turns (store.accept, apply, apply, ...) into accept -> k-th
// subscriber latency samples. When tracing is disabled — the default —
// every entry point is a single relaxed atomic load and the wire encoder
// never sees a context, so the byte stream is identical to a build
// without tracing (bench_scale gates this with a wire digest).
//
// Span taxonomy (docs/observability.md):
//   client.write  client issued a write; duration = submit -> ack
//   store.accept  store admitted the write into its log/orderer
//   order         the orderer released the record (global seq assigned)
//   wire.send     an envelope left a communication object
//   wire.deliver  an envelope reached a handler (once per datagram;
//                 multicast retransmits are deduped below the comm layer)
//   apply         a store applied the record to its document
//   ack           the client observed the write acknowledged
//   annotation    out-of-band marker (monitor trip, fault action)
//
// Trace ids are a hash of WriteId{client, seq}; every process derives the
// same id independently, so spans emitted from timer-driven paths (lazy
// flush, anti-entropy) still land in the right trace even though no
// context was carried. The parent span id *is* carried, in the envelope,
// so spans chain causally across processes when the work happens inside
// a delivery callback.
//
// Context threading is implicit: the comm layer stamps the calling
// thread's current context into outgoing envelopes and installs the
// received context (ContextScope) around delivery handlers. Forwards,
// acks, and immediate propagation inherit the trace with no signature
// changes anywhere in the protocol stack.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "globe/obs/context.hpp"

namespace globe::metrics {
class Histogram;
}

namespace globe::obs {

enum class SpanKind : std::uint8_t {
  kClientWrite = 0,
  kStoreAccept = 1,
  kOrder = 2,
  kWireSend = 3,
  kWireDeliver = 4,
  kApply = 5,
  kAck = 6,
  kAnnotation = 7,
};

[[nodiscard]] const char* to_string(SpanKind k);

/// Fixed-size POD record; `label` is a truncating copy (annotations,
/// message-type names) so the ring never allocates.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t object = 0;
  std::uint64_t detail = 0;  // kind-specific (global seq, byte count, ...)
  std::uint32_t actor = 0;   // store/client/node id of the emitting site
  SpanKind kind{};
  char label[19] = {};

  void set_label(const char* s) {
    if (s == nullptr) {
      label[0] = '\0';
      return;
    }
    std::strncpy(label, s, sizeof(label) - 1);
    label[sizeof(label) - 1] = '\0';
  }
};

struct TracerOptions {
  std::size_t capacity = 1 << 16;  // spans retained (drop-oldest)
  std::uint64_t sample_every = 1;  // trace 1-in-N writes (deterministic)
};

/// Accept -> k-th-subscriber propagation latency, derived online from
/// store.accept / apply spans. Bounded: oldest entries are evicted.
struct PropagationStats {
  std::uint64_t writes_accepted = 0;
  std::uint64_t writes_applied_remotely = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(TracerOptions opts = {});
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Clock used for span timestamps. Defaults to wall steady-clock
  /// microseconds; the Testbed installs the simulator clock so spans and
  /// gauge samples share the simulated timeline. Pass nullptr to restore
  /// the wall clock.
  void set_clock(std::function<std::int64_t()> now_us);
  [[nodiscard]] std::int64_t now_us() const;

  /// Deterministic sampling predicate on the hashed trace id, identical
  /// in every process (no coordination).
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const;

  /// Allocates a span id without emitting (for spans whose duration is
  /// only known later, e.g. client.write emitted at ack time).
  std::uint64_t new_span_id() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a span to the ring (drop-oldest on overflow). Returns the
  /// span id (allocated when `span.span_id` is 0). No-op returning 0
  /// when disabled.
  std::uint64_t emit(Span span);

  /// Ring snapshot in emission order, optionally restricted to spans
  /// with ts_us >= since_us.
  [[nodiscard]] std::vector<Span> snapshot(
      std::int64_t since_us = INT64_MIN) const;

  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t sample_every() const;

  /// Drains the derived propagation-latency samples (accept -> first
  /// subscriber apply, accept -> latest subscriber apply, microseconds)
  /// into the given histograms; entries for writes that never left the
  /// accepting store are dropped. Returns counters for the drained set.
  PropagationStats drain_propagation(metrics::Histogram* to_first,
                                     metrics::Histogram* to_last);

  /// Test/bench hook: clears the ring, the propagation table, and the
  /// overflow counter (keeps enablement and clock).
  void reset();

 private:
  Tracer() = default;

  struct PropEntry {
    std::int64_t accept_ts = 0;
    std::uint32_t accept_actor = 0;
    std::uint32_t remote_applies = 0;
    std::int64_t first_us = 0;
    std::int64_t last_us = 0;
  };

  void note_propagation_locked(const Span& s);

  mutable std::mutex mu_;
  std::vector<Span> ring_;   // capacity fixed at enable()
  std::size_t head_ = 0;     // next write position
  std::size_t count_ = 0;    // valid entries
  std::function<std::int64_t()> clock_;
  std::unordered_map<std::uint64_t, PropEntry> prop_;
  std::vector<std::uint64_t> prop_order_;  // FIFO eviction
  std::size_t prop_evict_ = 0;
  TracerOptions opts_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_span_{1};
  std::atomic<std::uint64_t> overflow_{0};
};

/// Hash of (object, WriteId{client, seq}) -> trace id (never 0).
/// Deterministic across processes, so spans join the trace without a
/// carried context. The object is part of the key: a client numbers its
/// writes per object session, so two objects see the same (client, seq).
[[nodiscard]] std::uint64_t trace_of(std::uint64_t object,
                                     std::uint32_t client, std::uint64_t seq);

/// --- implicit per-thread context -------------------------------------

[[nodiscard]] TraceContext current_context();

/// RAII: installs `ctx` as the calling thread's current context for the
/// scope (delivery callbacks, client write submission), restoring the
/// previous one on exit. Installing an invalid context clears it.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Convenience: true iff the process tracer is enabled.
[[nodiscard]] inline bool tracing_enabled() {
  return Tracer::instance().enabled();
}

/// Instant annotation span (monitor trip, fault action). Attached to the
/// current trace if one is installed, else trace 0 (still exported).
void annotate(const std::string& label, std::uint32_t actor = 0);

}  // namespace globe::obs
