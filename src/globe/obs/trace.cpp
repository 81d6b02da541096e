#include "globe/obs/trace.hpp"

#include <chrono>

#include "globe/metrics/histogram.hpp"

namespace globe::obs {

namespace {

thread_local TraceContext t_current;

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kClientWrite:
      return "client.write";
    case SpanKind::kStoreAccept:
      return "store.accept";
    case SpanKind::kOrder:
      return "order";
    case SpanKind::kWireSend:
      return "wire.send";
    case SpanKind::kWireDeliver:
      return "wire.deliver";
    case SpanKind::kApply:
      return "apply";
    case SpanKind::kAck:
      return "ack";
    case SpanKind::kAnnotation:
      return "annotation";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(TracerOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_ = opts;
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (opts_.sample_every == 0) opts_.sample_every = 1;
  ring_.assign(opts_.capacity, Span{});
  head_ = 0;
  count_ = 0;
  prop_.clear();
  prop_order_.clear();
  prop_evict_ = 0;
  overflow_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  count_ = 0;
  prop_.clear();
  prop_order_.clear();
  prop_evict_ = 0;
}

void Tracer::set_clock(std::function<std::int64_t()> now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(now_us);
}

std::int64_t Tracer::now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_ ? clock_() : wall_now_us();
}

bool Tracer::sampled(std::uint64_t trace_id) const {
  if (!enabled()) return false;
  std::uint64_t every = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    every = opts_.sample_every;
  }
  return every <= 1 || trace_id % every == 0;
}

std::uint64_t Tracer::emit(Span span) {
  if (!enabled()) return 0;
  if (span.span_id == 0) span.span_id = new_span_id();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0;  // disabled raced enable
  if (count_ == ring_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++count_;
  }
  ring_[head_] = span;
  head_ = (head_ + 1) % ring_.size();
  note_propagation_locked(span);
  return span.span_id;
}

void Tracer::note_propagation_locked(const Span& s) {
  // Bounded derivation: store.accept opens an entry, apply spans at other
  // actors record first/last deltas. drain_propagation() harvests.
  constexpr std::size_t kMaxTracked = 1 << 14;
  if (s.kind == SpanKind::kStoreAccept) {
    auto [it, fresh] = prop_.try_emplace(s.trace_id);
    if (fresh) {
      it->second.accept_ts = s.ts_us;
      it->second.accept_actor = s.actor;
      prop_order_.push_back(s.trace_id);
      if (prop_.size() > kMaxTracked && prop_evict_ < prop_order_.size()) {
        prop_.erase(prop_order_[prop_evict_++]);
      }
    }
    return;
  }
  if (s.kind != SpanKind::kApply) return;
  auto it = prop_.find(s.trace_id);
  if (it == prop_.end()) return;
  PropEntry& e = it->second;
  if (s.actor == e.accept_actor) return;  // local apply, not propagation
  const std::int64_t delta = s.ts_us - e.accept_ts;
  if (e.remote_applies == 0) e.first_us = delta;
  e.last_us = delta;
  ++e.remote_applies;
}

std::vector<Span> Tracer::snapshot(std::int64_t since_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(count_);
  const std::size_t cap = ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    const Span& s = ring_[(head_ + cap - count_ + i) % cap];
    if (s.ts_us >= since_us) out.push_back(s);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t Tracer::sample_every() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_.sample_every;
}

PropagationStats Tracer::drain_propagation(metrics::Histogram* to_first,
                                           metrics::Histogram* to_last) {
  std::lock_guard<std::mutex> lock(mu_);
  PropagationStats stats;
  for (const auto& [trace, e] : prop_) {
    ++stats.writes_accepted;
    if (e.remote_applies == 0) continue;
    ++stats.writes_applied_remotely;
    if (to_first != nullptr) {
      to_first->add(static_cast<double>(e.first_us));
    }
    if (to_last != nullptr) {
      to_last->add(static_cast<double>(e.last_us));
    }
  }
  prop_.clear();
  prop_order_.clear();
  prop_evict_ = 0;
  return stats;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  count_ = 0;
  prop_.clear();
  prop_order_.clear();
  prop_evict_ = 0;
  overflow_.store(0, std::memory_order_relaxed);
}

std::uint64_t trace_of(std::uint64_t object, std::uint32_t client,
                       std::uint64_t seq) {
  // splitmix64 chained over object, then (client, seq); never 0 so "no
  // context" stays encodable.
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  };
  const std::uint64_t x =
      mix(mix(object + 0x9e3779b97f4a7c15ull) ^
          (static_cast<std::uint64_t>(client) << 40) ^ seq);
  return x == 0 ? 1 : x;
}

TraceContext current_context() { return t_current; }

ContextScope::ContextScope(TraceContext ctx) : prev_(t_current) {
  t_current = ctx.valid() ? ctx : TraceContext{};
}

ContextScope::~ContextScope() { t_current = prev_; }

void annotate(const std::string& label, std::uint32_t actor) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  Span s;
  s.kind = SpanKind::kAnnotation;
  const TraceContext ctx = current_context();
  s.trace_id = ctx.trace_id;
  s.parent_id = ctx.span_id;
  s.ts_us = t.now_us();
  s.actor = actor;
  s.set_label(label.c_str());
  t.emit(s);
}

}  // namespace globe::obs
