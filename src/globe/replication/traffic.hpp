// Outbound-traffic accounting shared by stores and client bindings: the
// communication object's TrafficObserver, feeding a MetricsSink.
#pragma once

#include "globe/core/comm.hpp"
#include "globe/metrics/stats.hpp"

namespace globe::replication {

/// Counts every outbound message by wire type into `sink` (null = off).
class MetricsTrafficAdapter final : public core::TrafficObserver {
 public:
  explicit MetricsTrafficAdapter(metrics::MetricsSink* sink) : sink_(sink) {}
  void on_send(msg::MsgType type, std::size_t bytes) override {
    if (sink_ != nullptr) {
      sink_->on_message(static_cast<std::uint8_t>(type), bytes);
    }
  }

 private:
  metrics::MetricsSink* sink_;
};

}  // namespace globe::replication
