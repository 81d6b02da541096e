// Section 4.2's end-to-end argument, as a narrated demo: run the PRAM
// conference page over an unreliable, unordered (UDP-like) transport
// and show that changing ONE Table 1 parameter — the object-outdate
// reaction, wait -> demand — makes delivery reliable without any
// transport-level retransmission.
//
// Build & run:   ./build/examples/example_udp_reliability
#include <cstdio>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

using namespace globe;
using replication::ClientModel;
using replication::Testbed;

namespace {

struct Outcome {
  std::string final_content;
  bool order_ok = false;
  std::uint64_t dropped = 0;
  std::uint64_t fetches = 0;
};

Outcome run(core::OutdateReaction reaction, double loss) {
  replication::TestbedOptions opts;
  opts.seed = 7;
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;  // PRAM
  policy.instant = core::TransferInstant::kImmediate;
  policy.object_outdate_reaction = reaction;

  auto& server = bed.add_primary(kObj, policy, "web-server");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, {}, "cache");
  bed.settle();

  // Make the server->cache path UDP-like: lossy and unordered.
  sim::LinkSpec udp;
  udp.reliable_ordered = false;
  udp.drop_rate = loss;
  udp.jitter = sim::SimDuration::millis(15);
  bed.net().set_link(server.address().node, cache.address().node, udp);

  auto& master = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 30; ++i) {
    master.write("news.html", "update-" + std::to_string(i),
                 [](replication::WriteResult) {});
    bed.run_for(sim::SimDuration::millis(80));
  }
  bed.run_for(sim::SimDuration::seconds(8));
  bed.settle();

  Outcome out;
  out.final_content = cache.document(kObj).has("news.html")
                          ? cache.document(kObj).get("news.html")->content
                          : "(nothing)";
  out.order_ok = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram).ok;
  out.dropped = bed.net().stats().messages_dropped;
  const auto& by_type = bed.metrics().traffic_by_type();
  const auto it =
      by_type.find(static_cast<std::uint8_t>(msg::MsgType::kFetchRequest));
  out.fetches = it == by_type.end() ? 0 : it->second.messages;
  return out;
}

}  // namespace

int main() {
  std::printf("== Reliability as a side effect of coherence (Sec. 4.2) ==\n\n");
  std::printf(
      "30 incremental updates pushed over a UDP-like link dropping 25%%\n"
      "of messages. Only ONE parameter differs between the runs:\n"
      "object-outdate reaction = wait vs demand.\n\n");

  const auto wait = run(core::OutdateReaction::kWait, 0.25);
  const auto demand = run(core::OutdateReaction::kDemand, 0.25);

  std::printf("reaction=wait   : cache ends at \"%s\"  (PRAM order: %s,\n"
              "                  %llu msgs dropped, %llu demand fetches)\n",
              wait.final_content.c_str(), wait.order_ok ? "held" : "BROKEN",
              static_cast<unsigned long long>(wait.dropped),
              static_cast<unsigned long long>(wait.fetches));
  std::printf("reaction=demand : cache ends at \"%s\"  (PRAM order: %s,\n"
              "                  %llu msgs dropped, %llu demand fetches)\n\n",
              demand.final_content.c_str(),
              demand.order_ok ? "held" : "BROKEN",
              static_cast<unsigned long long>(demand.dropped),
              static_cast<unsigned long long>(demand.fetches));

  std::printf(
      "With wait, lost pushes are gone for good: the replica sticks at\n"
      "the last delivered update (order still holds — PRAM gaps block,\n"
      "they never reorder). With demand, gap detection plus demand-\n"
      "updates re-fetch everything that was lost: reliable delivery\n"
      "without TCP, exactly the end-to-end argument of the paper.\n");
  return demand.final_content == "update-30" && demand.order_ok ? 0 : 1;
}
