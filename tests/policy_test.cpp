// Tests for the Table 1 implementation-parameter machinery: every
// parameter value must actually change protocol behaviour the way the
// paper describes.
#include <gtest/gtest.h>

#include <optional>

#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy base_policy() {
  ReplicationPolicy p;  // PRAM, update, all, single, push, partial
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

TEST(PolicyValidate, AcceptsPresets) {
  EXPECT_EQ(ReplicationPolicy::conference_example().validate(), "");
  EXPECT_EQ(ReplicationPolicy::groupware_sequential().validate(), "");
  EXPECT_EQ(ReplicationPolicy::forum_causal().validate(), "");
  EXPECT_EQ(ReplicationPolicy::eventual_lazy().validate(), "");
}

TEST(PolicyValidate, RejectsPathologicalCombos) {
  ReplicationPolicy p;
  p.propagation = core::Propagation::kInvalidate;
  p.coherence_transfer = core::CoherenceTransfer::kNotification;
  EXPECT_NE(p.validate(), "");

  ReplicationPolicy q;
  q.instant = core::TransferInstant::kLazy;
  q.lazy_period = sim::SimDuration::micros(0);
  EXPECT_NE(q.validate(), "");
}

TEST(PolicyDescribe, RendersTable2Style) {
  const std::string d = ReplicationPolicy::conference_example().describe();
  EXPECT_NE(d.find("Coherence propagation:    update"), std::string::npos);
  EXPECT_NE(d.find("Write set:                single"), std::string::npos);
  EXPECT_NE(d.find("Transfer initiative:      push"), std::string::npos);
  EXPECT_NE(d.find("Client-outdate reaction:  demand"), std::string::npos);
}

// ---- Consistency propagation: update vs invalidate ------------------

TEST(PropagationParam, InvalidateMarksStaleAndFetchesOnRead) {
  auto p = base_policy();
  p.propagation = core::Propagation::kInvalidate;
  p.access_transfer = core::AccessTransfer::kPartial;

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();
  // The cache did NOT receive the data, only the invalidation.
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v0");

  auto& reader = bed.add_client(kObj, ClientModel::kNone, cache.address());
  std::optional<ReadResult> read;
  reader.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->content, "v1");  // fetched on demand at read time
}

TEST(PropagationParam, InvalidateWithDemandReactionPrefetches) {
  auto p = base_policy();
  p.propagation = core::Propagation::kInvalidate;
  p.object_outdate_reaction = core::OutdateReaction::kDemand;

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();
  // Demand reaction: the cache refreshed itself without any read.
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v1");
}

// ---- Transfer initiative: push vs pull -------------------------------

TEST(InitiativeParam, PullPollsOnPeriod) {
  auto p = base_policy();
  p.initiative = core::TransferInitiative::kPull;
  p.instant = core::TransferInstant::kLazy;
  p.lazy_period = sim::SimDuration::millis(300);

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(150));
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v0");  // not yet polled
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v1");  // poll fetched it
}

TEST(InitiativeParam, PushDeliversWithoutPolling) {
  auto p = base_policy();  // push immediate
  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(100));
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v1");
}

// ---- Transfer instant: immediate vs lazy (aggregation) ---------------

TEST(InstantParam, LazyAggregatesUpdates) {
  auto lazy = base_policy();
  lazy.instant = core::TransferInstant::kLazy;
  lazy.lazy_period = sim::SimDuration::millis(500);

  Testbed bed;
  bed.add_primary(kObj, lazy);
  bed.add_store(kObj, naming::StoreClass::kClientInitiated, lazy);
  bed.settle();
  bed.metrics().reset();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 10; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.run_for(sim::SimDuration::seconds(1));
  const auto lazy_updates =
      bed.metrics()
          .traffic_by_type()
          .count(static_cast<std::uint8_t>(msg::MsgType::kUpdate))
          ? bed.metrics()
                .traffic_by_type()
                .at(static_cast<std::uint8_t>(msg::MsgType::kUpdate))
                .messages
          : 0;

  // Immediate control.
  Testbed bed2;
  bed2.add_primary(kObj, base_policy());
  bed2.add_store(kObj, naming::StoreClass::kClientInitiated, base_policy());
  bed2.settle();
  bed2.metrics().reset();
  auto& writer2 = bed2.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 10; ++i) {
    writer2.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed2.run_for(sim::SimDuration::seconds(1));
  const auto immediate_updates =
      bed2.metrics()
          .traffic_by_type()
          .at(static_cast<std::uint8_t>(msg::MsgType::kUpdate))
          .messages;

  EXPECT_EQ(immediate_updates, 10u);  // one push per write
  EXPECT_LE(lazy_updates, 3u);        // aggregated into a couple of pushes
  EXPECT_GE(lazy_updates, 1u);
}

// ---- Coherence transfer type: notification / partial / full ----------

TEST(CoherenceTransferParam, NotificationOnlySignalsAndDemandFetches) {
  auto p = base_policy();
  p.coherence_transfer = core::CoherenceTransfer::kNotification;
  p.object_outdate_reaction = core::OutdateReaction::kDemand;

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();
  // Notify -> demand -> fetch brought the data.
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v1");
  const auto& by_type = bed.metrics().traffic_by_type();
  EXPECT_TRUE(
      by_type.count(static_cast<std::uint8_t>(msg::MsgType::kNotify)) > 0);
  EXPECT_TRUE(
      by_type.count(static_cast<std::uint8_t>(msg::MsgType::kFetchRequest)) >
      0);
}

TEST(CoherenceTransferParam, NotificationWithWaitLeavesReplicaStale) {
  auto p = base_policy();
  p.coherence_transfer = core::CoherenceTransfer::kNotification;
  p.object_outdate_reaction = core::OutdateReaction::kWait;

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.run_for(sim::SimDuration::seconds(1));
  // Knows it's stale, and flags it.
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v0");
  EXPECT_TRUE(cache.outdated(kObj));
}

TEST(CoherenceTransferParam, FullTransferShipsWholeDocument) {
  auto partial = base_policy();
  auto full = base_policy();
  full.coherence_transfer = core::CoherenceTransfer::kFull;

  auto run = [](const ReplicationPolicy& p) {
    Testbed bed;
    auto& server = bed.add_primary(kObj, p);
    // A large document: 10 pages of 2KB.
    for (int i = 0; i < 10; ++i) {
      server.seed("page" + std::to_string(i), std::string(2048, 'x'));
    }
    auto& cache =
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
    bed.settle();
    bed.metrics().reset();
    auto& writer = bed.add_client(kObj, ClientModel::kNone);
    writer.write("page0", "tiny", [](WriteResult) {});
    bed.settle();
    EXPECT_EQ(cache.document(kObj).get("page0")->content, "tiny");
    return bed.metrics().total_traffic().bytes;
  };

  const auto partial_bytes = run(partial);
  const auto full_bytes = run(full);
  // Full transfer ships ~20KB of unchanged pages along with the update.
  EXPECT_GT(full_bytes, partial_bytes + 15'000);
}

// ---- Access transfer type --------------------------------------------

TEST(AccessTransferParam, FullAccessShipsDocumentWithEachRead) {
  auto partial = base_policy();
  partial.access_transfer = core::AccessTransfer::kPartial;
  auto full = base_policy();
  full.access_transfer = core::AccessTransfer::kFull;

  auto run = [](const ReplicationPolicy& p) {
    Testbed bed;
    auto& server = bed.add_primary(kObj, p);
    for (int i = 0; i < 10; ++i) {
      server.seed("page" + std::to_string(i), std::string(2048, 'x'));
    }
    bed.settle();
    bed.metrics().reset();
    auto& reader = bed.add_client(kObj, ClientModel::kNone);
    reader.read("page0", [](ReadResult) {});
    bed.settle();
    return bed.metrics().total_traffic().bytes;
  };

  EXPECT_GT(run(full), run(partial) + 15'000);
}

// ---- Store scope ------------------------------------------------------

TEST(StoreScopeParam, PermanentOnlyScopeStillDeliversToCaches) {
  auto p = base_policy();
  p.store_scope = core::StoreScope::kPermanent;

  Testbed bed;
  auto& server = bed.add_primary(kObj, p);
  server.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v1");
}

// ---- Write forwarding through a chain ---------------------------------

TEST(WriteSetParam, SingleWriterForwardedThroughMirrorChain) {
  auto p = base_policy();
  Testbed bed;
  auto& primary = bed.add_primary(kObj, p);
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  bed.settle();
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p,
                              mirror.address());
  bed.settle();

  // Client writes to the cache; the write is forwarded cache -> mirror
  // -> primary and acked back to the client directly.
  auto& c = bed.add_client(kObj, ClientModel::kNone, cache.address(),
                           cache.address());
  std::optional<WriteResult> wrote;
  c.write("p", "hops", [&](WriteResult r) { wrote = std::move(r); });
  bed.settle();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok);
  EXPECT_EQ(wrote->store, primary.id());
  EXPECT_EQ(cache.document(kObj).get("p")->content, "hops");
}

}  // namespace
}  // namespace globe::replication
