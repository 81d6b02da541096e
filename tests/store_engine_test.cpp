// Direct tests of StoreEngine mechanics: subscription, store classes,
// log-based fetch, invalid-page bookkeeping, ready/parking, store
// scope, and multiple permanent stores.
#include <gtest/gtest.h>

#include <optional>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy immediate() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

TEST(StoreEngineTest, SubscribersRegisterOnSubscribe) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  EXPECT_EQ(primary.subscriber_count(kObj), 0u);
  bed.add_store(kObj, naming::StoreClass::kClientInitiated, immediate());
  bed.add_store(kObj, naming::StoreClass::kObjectInitiated, immediate());
  bed.settle();
  EXPECT_EQ(primary.subscriber_count(kObj), 2u);
}

TEST(StoreEngineTest, SubscribeSnapshotInitializesReplica) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  primary.seed("a", "1");
  primary.seed("b", "2");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate());
  EXPECT_FALSE(cache.ready(kObj));
  bed.settle();
  EXPECT_TRUE(cache.ready(kObj));
  EXPECT_EQ(cache.document(kObj).page_count(), 2u);
  EXPECT_EQ(cache.applied_clock(kObj), primary.applied_clock(kObj));
}

TEST(StoreEngineTest, RequestsParkUntilReady) {
  // A client fires a read at a cache before its subscription snapshot
  // arrives; the read must be parked and answered after initialization.
  TestbedOptions opts;
  opts.wan.base_latency = sim::SimDuration::millis(50);
  Testbed bed(opts);
  auto& primary = bed.add_primary(kObj, immediate());
  primary.seed("p", "v");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate());
  // Do NOT settle: subscription is still in flight.
  auto& client = bed.add_client(kObj, ClientModel::kNone, cache.address());
  std::optional<ReadResult> read;
  client.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "v");
}

TEST(StoreEngineTest, MultiplePermanentStoresStayCoherent) {
  // The paper's permanent-store layer may hold several replicas; they
  // are the object's responsibility to keep coherent.
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  auto& perm2 = bed.add_store(kObj, naming::StoreClass::kPermanent,
                              immediate(), {}, "permanent-2");
  auto& perm3 = bed.add_store(kObj, naming::StoreClass::kPermanent,
                              immediate(), {}, "permanent-3");
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 10; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_EQ(perm2.document(kObj), primary.document(kObj));
  EXPECT_EQ(perm3.document(kObj), primary.document(kObj));
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram).ok);
}

TEST(StoreEngineTest, ScopeExcludedCacheStillConvergesViaPassThrough) {
  auto p = immediate();
  p.store_scope = core::StoreScope::kPermanentAndObject;
  Testbed bed;
  bed.add_primary(kObj, p);
  auto& mirror =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  bed.settle();
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p,
                              mirror.address());
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 6; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v5");
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(StoreEngineTest, InvalidPagesClearedByUpdate) {
  auto p = immediate();
  p.propagation = core::Propagation::kInvalidate;
  Testbed bed;
  auto& primary = bed.add_primary(kObj, p);
  primary.seed("p", "v0");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();
  EXPECT_TRUE(cache.outdated(kObj));  // invalidation noted

  // Reading forces the fetch and clears the invalid flag.
  auto& reader = bed.add_client(kObj, ClientModel::kNone, cache.address());
  std::optional<ReadResult> read;
  reader.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read && read->ok);
  EXPECT_EQ(read->content, "v1");
  EXPECT_FALSE(cache.outdated(kObj));
}

TEST(StoreEngineTest, SeedRequiresPrimary) {
  Testbed bed;
  bed.add_primary(kObj, immediate());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate());
  bed.settle();
  EXPECT_DEATH(cache.seed("p", "v"), "primary");
}

TEST(StoreEngineTest, ObjectlessSeedNeedsExactlyOneObject) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  ObjectConfig second;
  second.object = kObj + 1;
  second.is_primary = true;
  primary.add_object(second);
  // With two hosted objects the object-less form has no object to pick.
  EXPECT_DEATH(primary.seed("p", "v"), "exactly one object");
  primary.seed(kObj + 1, "p", "v");
  EXPECT_EQ(primary.document(kObj + 1).get("p")->content, "v");
  EXPECT_FALSE(primary.document(kObj).has("p"));
}

TEST(StoreEngineTest, MembershipNeedsNonzeroScope) {
  TestbedOptions opts;
  opts.enable_membership = true;
  Testbed bed(opts);
  StoreConfig cfg;
  cfg.store_id = 99;
  cfg.membership = bed.membership().address();  // scope left at 0
  const NodeId node = bed.add_node("scopeless");
  EXPECT_DEATH(StoreEngine(bed.factory(node), bed.sim(), cfg, {}),
               "nonzero scope");
}

TEST(StoreEngineTest, ContactDescribesStore) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate());
  const auto pc = primary.contact();
  EXPECT_TRUE(pc.is_primary);
  EXPECT_EQ(pc.store_class, naming::StoreClass::kPermanent);
  EXPECT_EQ(pc.address, primary.address());
  const auto cc = cache.contact();
  EXPECT_FALSE(cc.is_primary);
  EXPECT_EQ(cc.store_class, naming::StoreClass::kClientInitiated);
}

TEST(StoreEngineTest, LateJoiningCacheCatchesUpFromLog) {
  Testbed bed;
  bed.add_primary(kObj, immediate());
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 8; ++i) {
    writer.write("p" + std::to_string(i % 2), "v" + std::to_string(i),
                 [](WriteResult) {});
  }
  bed.settle();

  // Cache joins after all the writes; the subscribe snapshot must carry
  // the full current state.
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate());
  bed.settle();
  EXPECT_TRUE(cache.document(kObj).has("p0"));
  EXPECT_TRUE(cache.document(kObj).has("p1"));
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(StoreEngineTest, WritesToDistinctPagesAllSurvivePram) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate());
  auto& a = bed.add_client(kObj, ClientModel::kNone);
  auto& b = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 5; ++i) {
    a.write("a" + std::to_string(i), "x", [](WriteResult) {});
    b.write("b" + std::to_string(i), "y", [](WriteResult) {});
  }
  bed.settle();
  EXPECT_EQ(primary.document(kObj).page_count(), 10u);
}

}  // namespace
}  // namespace globe::replication
