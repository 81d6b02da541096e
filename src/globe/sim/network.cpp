#include "globe/sim/network.hpp"

#include "globe/util/assert.hpp"
#include "globe/util/log.hpp"

namespace globe::sim {

void Network::bind(const Address& at, Handler handler) {
  GLOBE_ASSERT_MSG(at.node < node_names_.size(), "bind to unknown node");
  GLOBE_ASSERT_MSG(handlers_.find(at) == handlers_.end(),
                   "endpoint already bound");
  handlers_.emplace(at, std::move(handler));
}

void Network::set_link(NodeId a, NodeId b, const LinkSpec& spec) {
  links_[pair_key(a, b)] = spec;
}

bool Network::prepare_send(const Address& from, const Address& to,
                           std::size_t size, SimTime* deliver_at) {
  GLOBE_ASSERT_MSG(from.node < node_names_.size(), "send from unknown node");
  GLOBE_ASSERT_MSG(to.node < node_names_.size(), "send to unknown node");

  ++stats_.messages_sent;
  stats_.bytes_sent += size;

  if (partitions_.count(pair_key(from.node, to.node)) > 0 ||
      down_nodes_.count(from.node) > 0 || down_nodes_.count(to.node) > 0) {
    ++stats_.messages_dropped;
    return false;
  }

  const bool local = from.node == to.node;
  const LinkSpec& spec = link(from.node, to.node);
  SimDuration delay;
  if (local) {
    // Local fast-path: co-located endpoints talk through the node's own
    // stack, not the modeled link — fixed latency, no jitter, no drop
    // roll. The constant delay keeps local delivery FIFO by itself (the
    // simulator breaks time ties in schedule order).
    delay = SimDuration::micros(10);
  } else {
    if (!spec.reliable_ordered && spec.drop_rate > 0.0 &&
        rng_.chance(spec.drop_rate)) {
      ++stats_.messages_dropped;
      return false;
    }
    delay = spec.base_latency;
    if (spec.jitter.count_micros() > 0) {
      delay = delay + SimDuration(static_cast<std::int64_t>(
                          rng_.below(static_cast<std::uint64_t>(
                              spec.jitter.count_micros() + 1))));
    }
  }

  SimTime at = sim_.now() + delay;
  if (spec.reliable_ordered && !local) {
    const std::uint64_t directed =
        (static_cast<std::uint64_t>(from.node) << 32) | to.node;
    auto [it, _] = last_delivery_.try_emplace(directed, at);
    if (at < it->second) at = it->second;
    it->second = at;
    // A clamp entry at or behind the clock can never delay a future
    // send (deliver_at >= now): sweep such dead entries periodically so
    // the FIFO state tracks only in-flight links instead of growing
    // with every directed pair ever used.
    if (++sends_since_fifo_prune_ >= kFifoPruneInterval) {
      sends_since_fifo_prune_ = 0;
      const SimTime horizon = sim_.now();
      std::erase_if(last_delivery_, [horizon](const auto& entry) {
        return entry.second <= horizon;
      });
    }
  }

  *deliver_at = at;
  return true;
}

void Network::deliver(const Address& from, const Address& to,
                      std::size_t size, BytesView payload) {
  if (down_nodes_.count(to.node) > 0) {
    // The destination crashed while the message was in flight.
    ++stats_.messages_dropped;
    return;
  }
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    // Endpoint disappeared (e.g. store torn down); count as a drop.
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += size;
  if (digest_enabled_) {
    const std::uint64_t h = util::fnv1a64(payload, wire_digest_);
    // Datagram separator: digests distinguish framings.
    wire_digest_ = (h ^ 0xFF) * util::kFnvPrime;
  }
  it->second(from, payload);
}

namespace {
[[nodiscard]] BytesView payload_view(const Buffer& b) { return BytesView(b); }
[[nodiscard]] BytesView payload_view(const util::SharedBuffer& b) {
  return BytesView(*b);
}
[[nodiscard]] std::size_t payload_size(const Buffer& b) { return b.size(); }
[[nodiscard]] std::size_t payload_size(const util::SharedBuffer& b) {
  return b->size();
}
}  // namespace

template <typename P>
void Network::send_impl(const Address& from, const Address& to, P payload,
                        bool background) {
  SimTime at;
  const std::size_t size = payload_size(payload);
  if (!prepare_send(from, to, size, &at)) return;
  auto event = [this, from, to, size, payload = std::move(payload)] {
    deliver(from, to, size, payload_view(payload));
  };
  if (background) {
    sim_.schedule_background_after(at - sim_.now(), std::move(event));
  } else {
    sim_.schedule_at(at, std::move(event));
  }
}

void Network::send(const Address& from, const Address& to, Buffer payload,
                   bool background) {
  send_impl(from, to, std::move(payload), background);
}

void Network::send_shared(const Address& from, const Address& to,
                          util::SharedBuffer payload, bool background) {
  send_impl(from, to, std::move(payload), background);
}

}  // namespace globe::sim
