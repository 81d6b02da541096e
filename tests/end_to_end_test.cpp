// Section 4.2's end-to-end argument: "simply by changing the
// object-outdate reaction parameter from wait to demand, reliability
// comes as a side-effect of the coherence model" — PRAM gap detection
// plus demand-update re-fetches updates lost by an unreliable (UDP-like)
// transport, so reliable delivery need not be paid for at the transport.
//
// Plus general fault-injection: partitions that heal, duplicated
// demands, and convergence under loss.
#include <gtest/gtest.h>

#include <optional>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy pram_immediate() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

/// Makes only the links between stores lossy; client<->store links keep
/// their default reliable behaviour because every node pair must be set
/// explicitly. Here we re-configure the whole mesh as lossy BEFORE the
/// store nodes are created, then carve out reliable links as needed.
struct LossyParam {
  double drop_rate;
  std::uint64_t seed;
};

class LossyPropagation : public ::testing::TestWithParam<LossyParam> {};

TEST_P(LossyPropagation, DemandReactionRecoversLostUpdates) {
  const auto param = GetParam();
  TestbedOptions opts;
  opts.seed = param.seed;
  Testbed bed(opts);

  auto policy = pram_immediate();
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;

  auto& server = bed.add_primary(kObj, policy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();

  // Now make the server->cache link lossy and unordered (UDP-like). The
  // subscription already happened over the reliable default.
  sim::LinkSpec lossy;
  lossy.reliable_ordered = false;
  lossy.drop_rate = param.drop_rate;
  lossy.jitter = sim::SimDuration::millis(10);
  bed.net().set_link(server.address().node, cache.address().node, lossy);

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 40; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(60));
  }
  // Give the demand machinery time to detect and fill all gaps.
  bed.run_for(sim::SimDuration::seconds(10));
  bed.settle();

  // Reliability as a side effect: the cache holds the latest version and
  // PRAM order was never violated despite dropped pushes.
  ASSERT_TRUE(cache.document(kObj).has("p"));
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v40");
  const auto res = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST_P(LossyPropagation, WaitReactionStaysStaleUnderLoss) {
  // Control: with reaction = wait, a lost push is never recovered (no
  // retransmission, no demand), so the cache may remain behind. This is
  // the cost side of the end-to-end trade-off.
  const auto param = GetParam();
  TestbedOptions opts;
  opts.seed = param.seed;
  Testbed bed(opts);

  auto policy = pram_immediate();
  policy.object_outdate_reaction = core::OutdateReaction::kWait;

  auto& server = bed.add_primary(kObj, policy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();

  sim::LinkSpec lossy;
  lossy.reliable_ordered = false;
  lossy.drop_rate = param.drop_rate;
  bed.net().set_link(server.address().node, cache.address().node, lossy);

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 40; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(60));
  }
  bed.run_for(sim::SimDuration::seconds(10));

  // With ~20%+ loss over 40 writes, at least one update was dropped with
  // overwhelming probability; the cache then buffered at a gap forever.
  if (param.drop_rate >= 0.2) {
    EXPECT_NE(cache.document(kObj).has("p")
                  ? cache.document(kObj).get("p")->content
                  : std::string{},
              "v40");
    EXPECT_TRUE(cache.outdated(kObj));
  }
  // PRAM order must hold regardless (gaps block, never reorder).
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram).ok);
}

INSTANTIATE_TEST_SUITE_P(
    DropRates, LossyPropagation,
    ::testing::Values(LossyParam{0.1, 42}, LossyParam{0.2, 43},
                      LossyParam{0.35, 44}),
    [](const ::testing::TestParamInfo<LossyParam>& info) {
      return "drop" + std::to_string(static_cast<int>(
                          info.param.drop_rate * 100)) +
             "_seed" + std::to_string(info.param.seed);
    });

TEST(Partition, HealedPartitionCatchesUpViaDemand) {
  auto policy = pram_immediate();
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();

  bed.net().partition(server.address().node, cache.address().node);
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 5; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.run_for(sim::SimDuration::seconds(1));
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v0");  // cut off

  bed.net().heal_all();
  // The next write's push reaches the cache, which detects the gap and
  // demands the backlog.
  writer.write("p", "v6", [](WriteResult) {});
  bed.run_for(sim::SimDuration::seconds(5));
  bed.settle();
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v6");
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram).ok);
}

TEST(Partition, EventualAntiEntropyHealsDivergence) {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kEventual;
  p.write_set = core::WriteSet::kMultiple;
  p.initiative = core::TransferInitiative::kPull;  // anti-entropy gossip
  p.instant = core::TransferInstant::kLazy;
  p.lazy_period = sim::SimDuration::millis(200);

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  bed.settle();

  bed.net().partition(server.address().node, s1.address().node);
  auto& a = bed.add_client(kObj, ClientModel::kNone, server.address(),
                           server.address());
  auto& b = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  a.write("left", "L", [](WriteResult) {});
  b.write("right", "R", [](WriteResult) {});
  bed.run_for(sim::SimDuration::seconds(1));
  EXPECT_FALSE(bed.converged(kObj));  // diverged during partition

  bed.net().heal_all();
  bed.run_for(sim::SimDuration::seconds(3));
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_TRUE(server.document(kObj).has("left"));
  EXPECT_TRUE(server.document(kObj).has("right"));
}

TEST(Timeouts, ClientRequestTimesOutAcrossPartitionAndRetries) {
  Testbed bed;
  auto& server = bed.add_primary(kObj, pram_immediate());
  server.seed("p", "v");
  bed.settle();

  // Bind a client with a timeout, partition it from the server.
  const NodeId client_node = bed.add_node("island");
  BindOptions opts;
  opts.object = kObj;
  opts.client = 99;
  opts.read_store = server.address();
  opts.timeout = sim::SimDuration::millis(200);
  opts.retries = 1;
  ClientBinding client(bed.factory(client_node), bed.sim(), opts);

  bed.net().partition(client_node, server.address().node);
  std::optional<ReadResult> read;
  client.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(2));
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->ok);
  EXPECT_EQ(read->error, "request timed out");

  // Healed: the same binding works again.
  bed.net().heal_all();
  std::optional<ReadResult> read2;
  client.read("p", [&](ReadResult r) { read2 = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(2));
  ASSERT_TRUE(read2.has_value());
  EXPECT_TRUE(read2->ok);
  EXPECT_EQ(read2->content, "v");
}

}  // namespace
}  // namespace globe::replication
