// Integration tests for the client-based coherence models of
// Section 3.2.2 (Bayou session guarantees, *enforced* by the stores),
// including the paper's Section 4 conference-page scenario: PRAM
// object-based coherence combined with Read-Your-Writes for the Web
// master, with the demand outdate reaction.
#include <gtest/gtest.h>

#include <optional>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using coherence::ObjectModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

// ---------------------------------------------------------------------
// Read Your Writes — the paper's running example (Section 4)
// ---------------------------------------------------------------------

TEST(ReadYourWrites, MasterSeesItsWriteThroughItsCacheViaDemand) {
  // Table 2 configuration: PRAM, push, lazy (periodic), partial
  // coherence transfer, object-outdate reaction wait, client-outdate
  // reaction demand. With a long push period, cache M would serve a
  // stale page; RYW forces it to demand the update from the Web server.
  auto policy = ReplicationPolicy::conference_example();
  policy.lazy_period = sim::SimDuration::seconds(10);  // slow periodic push

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy, "web-server");
  server.seed("program.html", "TBD");
  auto& cache_m = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                policy, {}, "cache-M");
  bed.settle();

  // The Web master writes directly to the Web server, reads from its
  // cache (Figure 3).
  auto& master = bed.add_client(kObj, ClientModel::kReadYourWrites,
                                cache_m.address(), server.address());

  master.write("program.html", "Keynote: Tanenbaum", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(500));

  std::optional<ReadResult> read;
  master.read("program.html", [&](ReadResult r) { read = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(1));  // well before the 10s push

  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "Keynote: Tanenbaum");  // RYW satisfied
  EXPECT_GE(bed.metrics().session_demands(), 1u);  // via demand-update
  const auto res = coherence::check_client_models(
      bed.history(), master.id(), ClientModel::kReadYourWrites);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(ReadYourWrites, WithoutRywStaleCacheServesOldContent) {
  // Control experiment: same configuration, no RYW -> the master reads
  // the stale page from its cache (exactly the anomaly RYW prevents).
  auto policy = ReplicationPolicy::conference_example();
  policy.lazy_period = sim::SimDuration::seconds(10);

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy, "web-server");
  server.seed("program.html", "TBD");
  auto& cache_m = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                policy, {}, "cache-M");
  bed.settle();

  auto& master = bed.add_client(kObj, ClientModel::kNone, cache_m.address(),
                                server.address());
  master.write("program.html", "Keynote: Tanenbaum", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(500));

  std::optional<ReadResult> read;
  master.read("program.html", [&](ReadResult r) { read = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->content, "TBD");  // stale!
  const auto res = coherence::check_client_models(
      bed.history(), master.id(), ClientModel::kReadYourWrites);
  EXPECT_FALSE(res.ok);  // and the checker sees the RYW anomaly
}

TEST(ReadYourWrites, WaitReactionBlocksUntilPeriodicPush) {
  // Same scenario but with client-outdate reaction = wait: the read is
  // parked until the periodic push delivers the update.
  auto policy = ReplicationPolicy::conference_example();
  policy.client_outdate_reaction = core::OutdateReaction::kWait;
  policy.lazy_period = sim::SimDuration::millis(800);

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy, "web-server");
  server.seed("p", "old");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, {}, "cache-M");
  bed.settle();

  auto& master = bed.add_client(kObj, ClientModel::kReadYourWrites,
                                cache.address(), server.address());
  master.write("p", "new", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(100));

  std::optional<ReadResult> read;
  master.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.run_for(sim::SimDuration::millis(300));
  EXPECT_FALSE(read.has_value());          // parked: push not yet arrived
  EXPECT_GE(bed.metrics().session_waits(), 1u);
  bed.run_for(sim::SimDuration::seconds(2));  // periodic push fires
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->content, "new");
}

// ---------------------------------------------------------------------
// Monotonic Reads
// ---------------------------------------------------------------------

TEST(MonotonicReads, StoreSwitchCannotGoBackInTime) {
  // Client reads from a fresh cache, then switches to a cache that was
  // partitioned away while an update flowed. With MR the stale store
  // must demand the missing updates before serving.
  ReplicationPolicy policy;  // PRAM defaults
  policy.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy);
  server.seed("news", "day-0");
  auto& fresh = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, {}, "fresh-cache");
  auto& stale = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, {}, "stale-cache");
  bed.settle();

  // Cut the stale cache off, then publish day-1: only fresh receives it.
  bed.net().partition(server.address().node, stale.address().node);
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("news", "day-1", [](WriteResult) {});
  bed.settle();

  auto& reader =
      bed.add_client(kObj, ClientModel::kMonotonicReads, fresh.address());
  std::optional<ReadResult> r1;
  reader.read("news", [&](ReadResult r) { r1 = std::move(r); });
  bed.settle();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->content, "day-1");

  // Heal the network (so the demand-update can succeed) and switch the
  // reader to the cache that never saw day-1.
  bed.net().heal_all();
  EXPECT_EQ(stale.document(kObj).get("news")->content, "day-0");
  reader.switch_read_store(stale.address());
  std::optional<ReadResult> r2;
  reader.read("news", [&](ReadResult r) { r2 = std::move(r); });
  bed.settle();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->content, "day-1");  // MR: demand-updated before serving
  const auto res = coherence::check_client_models(
      bed.history(), reader.id(), ClientModel::kMonotonicReads);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(MonotonicReads, WithoutGuaranteeRegressionHappensAndIsDetected) {
  ReplicationPolicy policy;
  policy.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy);
  server.seed("news", "day-0");
  auto& stale = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, {}, "stale-cache");
  bed.settle();

  bed.net().partition(server.address().node, stale.address().node);
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("news", "day-1", [](WriteResult) {});
  bed.settle();

  auto& reader = bed.add_client(kObj, ClientModel::kNone, server.address());
  reader.read("news", [](ReadResult) {});
  bed.settle();
  bed.net().heal_all();
  reader.switch_read_store(stale.address());
  std::optional<ReadResult> r2;
  reader.read("news", [&](ReadResult r) { r2 = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->content, "day-0");  // travelled back in time
  EXPECT_FALSE(coherence::check_client_models(
      bed.history(), reader.id(), ClientModel::kMonotonicReads).ok);
}

// ---------------------------------------------------------------------
// Monotonic Writes (client-PRAM) and Writes Follow Reads under eventual
// ---------------------------------------------------------------------

TEST(MonotonicWrites, SubsumedByPramObjectModel) {
  ReplicationPolicy policy;  // PRAM
  policy.instant = core::TransferInstant::kImmediate;
  Testbed bed;
  bed.add_primary(kObj, policy);
  bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();
  auto& c = bed.add_client(kObj, ClientModel::kMonotonicWrites);
  for (int i = 0; i < 8; ++i) {
    c.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_TRUE(coherence::check_client_models(
      bed.history(), c.id(), ClientModel::kMonotonicWrites).ok);
}

TEST(WritesFollowReads, ReactionOrderedAfterArticleUnderCausalDeps) {
  // WFR under a weak (eventual) object model: the client's write carries
  // its read-set as dependencies, and stores order it accordingly...
  // except eventual stores apply LWW. WFR is enforced meaningfully when
  // combined with the causal object model; here we verify the checker
  // side under causal.
  ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  bed.add_primary(kObj, policy);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();

  auto& author = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                                s1.address());
  auto& replier = bed.add_client(kObj, ClientModel::kWritesFollowReads,
                                 s1.address(), s2.address());
  author.write("article", "text", [](WriteResult) {});
  bed.settle();
  replier.read("article", [](ReadResult) {});
  bed.settle();
  replier.write("reply", "re: text", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_client_models(
      bed.history(), replier.id(), ClientModel::kWritesFollowReads);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(SessionCombination, RywPlusMrTogether) {
  ReplicationPolicy policy;
  policy.instant = core::TransferInstant::kLazy;
  policy.lazy_period = sim::SimDuration::millis(400);

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy);
  server.seed("p", "v0");
  auto& c1 = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  auto& c2 = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();

  auto& user = bed.add_client(
      kObj, ClientModel::kReadYourWrites | ClientModel::kMonotonicReads,
      c1.address(), server.address());
  user.write("p", "v1", [](WriteResult) {});
  user.read("p", [](ReadResult) {});
  bed.run_for(sim::SimDuration::millis(100));
  user.switch_read_store(c2.address());
  user.read("p", [](ReadResult) {});
  bed.settle();

  EXPECT_TRUE(coherence::check_client_models(
                  bed.history(), user.id(),
                  ClientModel::kReadYourWrites | ClientModel::kMonotonicReads)
                  .ok);
}

// The object model that subsumes everything: sequential.
TEST(SessionCombination, SequentialSubsumesAllSessionGuarantees) {
  ReplicationPolicy policy;
  policy.model = ObjectModel::kSequential;
  policy.instant = core::TransferInstant::kImmediate;
  policy.write_set = core::WriteSet::kMultiple;

  Testbed bed;
  bed.add_primary(kObj, policy);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();

  const auto all = ClientModel::kReadYourWrites |
                   ClientModel::kMonotonicReads |
                   ClientModel::kMonotonicWrites |
                   ClientModel::kWritesFollowReads;
  auto& user = bed.add_client(kObj, all, s1.address());
  auto& other = bed.add_client(kObj, ClientModel::kNone, s2.address());
  for (int i = 0; i < 5; ++i) {
    user.write("p", "u" + std::to_string(i), [](WriteResult) {});
    other.write("p", "o" + std::to_string(i), [](WriteResult) {});
    user.read("p", [](ReadResult) {});
    bed.settle();
    user.switch_read_store(i % 2 == 0 ? s2.address() : s1.address());
  }
  bed.settle();
  EXPECT_TRUE(
      coherence::check_client_models(bed.history(), user.id(), all).ok);
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), ObjectModel::kSequential).ok);
}

}  // namespace
}  // namespace globe::replication
