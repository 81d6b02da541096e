// Idle objects cost nothing: a store's periodic work tracks activity and
// peers, not the size of its object table.
//
//   * Beacon traffic is O(peers): with no writes, a store hosting 2,000
//     objects sends exactly as many background messages as one hosting
//     10, and a beacon lists exactly the objects written since the last.
//   * The lost tail of a burst is still recovered on every object
//     (Section 4.2's reliability-as-a-side-effect argument) when the
//     beacon that listed it is lost too, and after a view change moves
//     the subscriber to a new upstream.
//   * Timer periods are maintained incrementally by add_object and
//     rebuilt by update_policy and crash -> recover.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/core/comm.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

ReplicationPolicy push_demand() {
  ReplicationPolicy p;  // PRAM, push, immediate, partial
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  return p;
}

ReplicationPolicy lazy(sim::SimDuration period) {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kLazy;
  p.lazy_period = period;
  return p;
}

ObjectConfig primary_config(ObjectId id, const ReplicationPolicy& p) {
  ObjectConfig c;
  c.object = id;
  c.is_primary = true;
  c.policy = p;
  return c;
}

ObjectConfig replica_config(ObjectId id, const Address& upstream,
                            const ReplicationPolicy& p) {
  ObjectConfig c;
  c.object = id;
  c.upstream = upstream;
  c.policy = p;
  return c;
}

std::string page_of(ObjectId id) { return "o" + std::to_string(id); }

std::uint64_t sent(Testbed& bed, msg::MsgType type) {
  const auto& by_type = bed.metrics().traffic_by_type();
  const auto it = by_type.find(static_cast<std::uint8_t>(type));
  return it == by_type.end() ? 0 : it->second.messages;
}

/// Splits the shared History into one per object by page name (one page
/// per object): seeded WriteIds repeat across objects, so the checkers
/// must see each object alone. Page-less snapshot events are the empty
/// subscription bootstraps and carry no state.
std::map<ObjectId, coherence::History> split_by_page(
    const coherence::History& h, const std::vector<ObjectId>& ids) {
  std::unordered_map<std::string, ObjectId> object_of;
  for (const ObjectId id : ids) object_of[page_of(id)] = id;
  std::map<ObjectId, coherence::History> out;
  for (auto e : h.applies()) {
    const auto it = object_of.find(h.page_name(e.page));
    if (it == object_of.end()) continue;
    coherence::History& dst = out[it->second];
    e.page = dst.intern(page_of(it->second));
    dst.record_apply(std::move(e));
  }
  return out;
}

// ---------------------------------------------------------------------
// Beacon traffic is O(peers)
// ---------------------------------------------------------------------

struct IdleTraffic {
  std::uint64_t total = 0;
  std::uint64_t beacons = 0;
  std::uint64_t notifies = 0;
};

/// One primary and one secondary host `objects` objects; after the
/// seeds have been advertised, ten beacon ticks pass with no writes.
IdleTraffic idle_traffic(int objects) {
  TestbedOptions opts;
  opts.shards = 1;
  opts.record_history = false;
  Testbed bed(opts);
  auto& primary = bed.add_shard_store(0, naming::StoreClass::kPermanent,
                                      push_demand(), /*primary=*/true);
  bed.add_shard_store(0, naming::StoreClass::kObjectInitiated, push_demand());
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= static_cast<ObjectId>(objects); ++id) {
    ids.push_back(id);
  }
  bed.place_objects(ids);
  bed.settle();
  for (const ObjectId id : ids) primary.seed(id, page_of(id), "v0");
  bed.settle();
  bed.run_for(sim::SimDuration::seconds(1));  // the seeds' beacon goes out

  bed.metrics().reset();
  bed.run_for(sim::SimDuration::seconds(5));  // ten 500 ms ticks, idle
  IdleTraffic t;
  t.total = bed.metrics().total_traffic().messages;
  t.beacons = sent(bed, msg::MsgType::kClockBeacon);
  t.notifies = sent(bed, msg::MsgType::kNotify);
  return t;
}

TEST(BeaconTraffic, IdleBackgroundTrafficIsIndependentOfObjectCount) {
  const IdleTraffic small = idle_traffic(10);
  const IdleTraffic large = idle_traffic(2000);
  // One subscriber peer, one beacon per tick, whatever the table size.
  EXPECT_EQ(small.beacons, 10u);
  EXPECT_EQ(large.beacons, small.beacons);
  EXPECT_EQ(large.total, small.total);
  EXPECT_EQ(large.total, large.beacons);  // nothing but beacons
  EXPECT_EQ(large.notifies, 0u);          // no per-object heartbeats
}

TEST(BeaconTraffic, NextBeaconListsExactlyTheWrittenObjects) {
  constexpr ObjectId kObjects = 64;
  Testbed bed;
  auto& primary = bed.add_primary(1, push_demand());
  for (ObjectId id = 2; id <= kObjects; ++id) {
    primary.add_object(primary_config(id, push_demand()));
  }
  // A bare endpoint subscribes to every object and records the beacons
  // the primary sends it.
  core::CommunicationObject peer(bed.factory(bed.add_node("peer")),
                                 &bed.sim());
  std::vector<ClockBeacon> beacons;
  peer.set_delivery_handler(
      [&](const Address&, const msg::EnvelopeView& env) {
        if (env.type == msg::MsgType::kClockBeacon) {
          beacons.push_back(ClockBeacon::decode(env.body));
        }
      });
  SubscribeMsg sub;
  sub.subscriber = peer.local_address();
  sub.store_id = 99;
  for (ObjectId id = 1; id <= kObjects; ++id) {
    peer.request_with(
        primary.address(), msg::MsgType::kSubscribe, id,
        [&](util::Writer& w) { sub.encode(w); },
        [](bool, const Address&, const msg::EnvelopeView&) {});
  }
  bed.settle();
  ASSERT_EQ(primary.subscriber_count(kObjects), 1u);

  // Idle: one beacon per tick, numbered from 1, listing nothing.
  bed.run_for(sim::SimDuration::seconds(2));
  ASSERT_EQ(beacons.size(), 4u);
  for (std::size_t i = 0; i < beacons.size(); ++i) {
    EXPECT_EQ(beacons[i].generation, i + 1);
    EXPECT_TRUE(beacons[i].entries.empty());
  }

  // Writes to k objects: the next beacon lists exactly those k, at the
  // primary's applied frontier.
  const std::set<ObjectId> written = {3, 17, 42, 64};
  for (const ObjectId id : written) primary.seed(id, page_of(id), "v1");
  const std::size_t before = beacons.size();
  while (beacons.size() == before) {
    bed.run_for(sim::SimDuration::millis(100));
  }
  std::set<ObjectId> listed;
  for (const ClockBeacon::Entry& e : beacons.back().entries) {
    listed.insert(e.object);
    EXPECT_EQ(e.clock, primary.applied_clock(e.object));
    EXPECT_EQ(e.gseq, primary.applied_gseq(e.object));
  }
  EXPECT_EQ(listed, written);
  EXPECT_EQ(beacons.back().entries.size(), written.size());

  // Nothing changed since: the beacon after it is empty again.
  bed.run_for(sim::SimDuration::millis(500));
  ASSERT_EQ(beacons.size(), before + 2);
  EXPECT_TRUE(beacons.back().entries.empty());
  EXPECT_EQ(beacons.back().generation, before + 2);
}

// ---------------------------------------------------------------------
// Lost-tail recovery across many objects
// ---------------------------------------------------------------------

/// Makes the link lossy and unordered, as end_to_end_test's
/// LossyPropagation does.
void make_lossy(Testbed& bed, const StoreEngine& a, const StoreEngine& b) {
  sim::LinkSpec lossy;
  lossy.reliable_ordered = false;
  lossy.drop_rate = 0.35;
  lossy.jitter = sim::SimDuration::millis(10);
  bed.net().set_link(a.address().node, b.address().node, lossy);
}

/// Writes a few bursts of every object over the lossy link, then the
/// final version of every object while the link is cut, so every final
/// push (and the beacon listing those objects) is lost. Returns the
/// simulated time the replica then needs to hold every final version.
sim::SimDuration lose_every_tail(Testbed& bed, StoreEngine& primary,
                                 const StoreEngine& replica,
                                 const std::vector<ObjectId>& ids) {
  for (int round = 1; round <= 4; ++round) {
    for (const ObjectId id : ids) {
      primary.seed(id, page_of(id), "v" + std::to_string(round));
    }
    bed.run_for(sim::SimDuration::millis(60));
  }
  const NodeId a = primary.address().node;
  const NodeId b = replica.address().node;
  bed.net().partition(a, b);
  for (const ObjectId id : ids) primary.seed(id, page_of(id), "final");
  bed.run_for(sim::SimDuration::seconds(1));
  bed.net().heal(a, b);  // the link stays lossy

  const sim::SimTime healed = bed.sim().now();
  const auto caught_up = [&] {
    for (const ObjectId id : ids) {
      const auto p = replica.document(id).get(page_of(id));
      if (!p || p->content != "final") return false;
    }
    return true;
  };
  while (!caught_up() &&
         bed.sim().now() - healed < sim::SimDuration::seconds(30)) {
    bed.run_for(sim::SimDuration::millis(100));
  }
  return bed.sim().now() - healed;
}

TEST(BeaconRecovery, EveryObjectRecoversItsLostTail) {
  TestbedOptions opts;
  opts.seed = 44;
  opts.shards = 1;
  Testbed bed(opts);
  auto& primary = bed.add_shard_store(0, naming::StoreClass::kPermanent,
                                      push_demand(), /*primary=*/true);
  auto& replica = bed.add_shard_store(0, naming::StoreClass::kObjectInitiated,
                                      push_demand());
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= 60; ++id) ids.push_back(id);
  bed.place_objects(ids);
  bed.settle();
  for (const ObjectId id : ids) primary.seed(id, page_of(id), "v0");
  bed.settle();
  make_lossy(bed, primary, replica);
  bed.metrics().reset();

  const sim::SimDuration took = lose_every_tail(bed, primary, replica, ids);
  // A few beacon ticks plus lossy fetch retries, not an unbounded wait.
  EXPECT_LE(took, sim::SimDuration::seconds(5));
  bed.settle();
  for (const ObjectId id : ids) EXPECT_TRUE(bed.converged(id)) << id;
  // The lost beacon was noticed from the generation gap and repaired.
  EXPECT_GT(sent(bed, msg::MsgType::kBeaconCatchUpRequest), 0u);
  for (const auto& [id, h] : split_by_page(bed.history(), ids)) {
    const auto res = coherence::check_object_model(
        h, coherence::ObjectModel::kPram);
    EXPECT_TRUE(res.ok) << "object " << id << ": " << res.summary();
  }
}

TEST(BeaconRecovery, ReparentedSubscriberStartsAFreshBaselineAndConverges) {
  TestbedOptions opts;
  opts.seed = 45;
  opts.shards = 1;
  opts.enable_membership = true;
  opts.record_history = false;
  Testbed bed(opts);
  const auto policy = push_demand();
  auto& primary = bed.add_shard_store(0, naming::StoreClass::kPermanent,
                                      policy, /*primary=*/true);
  auto& mirror = bed.add_shard_store(0, naming::StoreClass::kObjectInitiated,
                                     policy);
  auto& leaf = bed.add_shard_store(0, naming::StoreClass::kObjectInitiated,
                                   policy);
  // A three-level chain: primary -> mirror -> leaf for every object.
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= 50; ++id) {
    ids.push_back(id);
    primary.add_object(primary_config(id, policy));
    mirror.add_object(replica_config(id, primary.address(), policy));
    leaf.add_object(replica_config(id, mirror.address(), policy));
  }
  bed.settle();
  for (const ObjectId id : ids) primary.seed(id, page_of(id), "v0");
  bed.run_for(sim::SimDuration::seconds(2));  // mirror beacons the leaf
  bed.settle();
  for (const ObjectId id : ids) {
    ASSERT_EQ(leaf.document(id), primary.document(id)) << id;
  }

  // The mirror leaves: the view change re-parents every leaf object onto
  // the primary, a peer the leaf has never heard a beacon from.
  const std::uint64_t resubscribes = leaf.resubscribes();
  bed.leave_store(1);
  bed.run_for(sim::SimDuration::seconds(2));
  bed.settle();
  EXPECT_GE(leaf.resubscribes(), resubscribes + ids.size());

  make_lossy(bed, primary, leaf);
  const sim::SimDuration took = lose_every_tail(bed, primary, leaf, ids);
  EXPECT_LE(took, sim::SimDuration::seconds(5));
  bed.settle();
  for (const ObjectId id : ids) {
    EXPECT_EQ(leaf.document(id), primary.document(id)) << id;
  }
}

// ---------------------------------------------------------------------
// Incremental timer periods
// ---------------------------------------------------------------------

bool holds(const StoreEngine& s, ObjectId id, const std::string& page,
           const std::string& content) {
  const auto p = s.document(id).get(page);
  return p && p->content == content;
}

TEST(TimerPeriods, LaterObjectWithShorterLazyPeriodShortensTheTick) {
  Testbed bed;
  const auto slow = lazy(sim::SimDuration::seconds(2));
  const auto fast = lazy(sim::SimDuration::millis(100));
  auto& primary = bed.add_primary(1, slow);
  auto& replica = bed.add_store(1, naming::StoreClass::kObjectInitiated, slow);
  bed.settle();

  primary.seed(1, "p", "v1");
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_FALSE(holds(replica, 1, "p", "v1"));  // the 2 s tick is not due

  primary.add_object(primary_config(2, fast));
  replica.add_object(replica_config(2, primary.address(), fast));
  bed.run_for(sim::SimDuration::millis(300));
  // The store-wide lazy tick now runs every 100 ms and flushes object 1.
  EXPECT_TRUE(holds(replica, 1, "p", "v1"));
  primary.seed(2, "q", "w1");
  bed.run_for(sim::SimDuration::millis(300));
  EXPECT_TRUE(holds(replica, 2, "q", "w1"));
}

TEST(TimerPeriods, LazyObjectAddedToStoreWithoutLazyTimerIsFlushed) {
  Testbed bed;
  const ReplicationPolicy immediate;
  const auto fast = lazy(sim::SimDuration::millis(100));
  auto& primary = bed.add_primary(1, immediate);
  auto& replica =
      bed.add_store(1, naming::StoreClass::kObjectInitiated, immediate);
  bed.settle();

  primary.add_object(primary_config(2, fast));
  replica.add_object(replica_config(2, primary.address(), fast));
  bed.run_for(sim::SimDuration::millis(200));
  primary.seed(2, "p", "v1");
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_TRUE(holds(replica, 2, "p", "v1"));
}

TEST(TimerPeriods, UpdatePolicyRebuildsTheLazyTick) {
  Testbed bed;
  auto& primary = bed.add_primary(1, ReplicationPolicy{});
  auto& replica = bed.add_store(1, naming::StoreClass::kObjectInitiated,
                                ReplicationPolicy{});
  bed.settle();

  // Immediate -> lazy arms a lazy timer.
  ASSERT_TRUE(primary.update_policy(1, lazy(sim::SimDuration::millis(100))));
  bed.run_for(sim::SimDuration::millis(100));
  primary.seed("p", "v1");
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_TRUE(holds(replica, 1, "p", "v1"));

  // A longer period lengthens the tick again (a full rebuild, unlike
  // add_object, which only ever shortens).
  ASSERT_TRUE(primary.update_policy(1, lazy(sim::SimDuration::seconds(2))));
  bed.run_for(sim::SimDuration::millis(100));
  primary.seed("p", "v2");
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_FALSE(holds(replica, 1, "p", "v2"));
  bed.run_for(sim::SimDuration::seconds(2));
  EXPECT_TRUE(holds(replica, 1, "p", "v2"));
}

TEST(TimerPeriods, CrashStopsAndRecoverRearmsEveryTimer) {
  Testbed bed;
  auto& primary =
      bed.add_primary(1, lazy(sim::SimDuration::millis(100)));
  auto& replica = bed.add_store(1, naming::StoreClass::kObjectInitiated,
                                lazy(sim::SimDuration::millis(100)));
  primary.add_object(primary_config(2, push_demand()));
  replica.add_object(replica_config(2, primary.address(), push_demand()));
  bed.settle();

  bed.crash_store(0);
  bed.metrics().reset();
  bed.run_for(sim::SimDuration::seconds(2));
  EXPECT_EQ(sent(bed, msg::MsgType::kClockBeacon), 0u);  // timers died

  bed.recover_store(0);
  bed.settle();
  bed.metrics().reset();
  bed.run_for(sim::SimDuration::seconds(2));
  EXPECT_EQ(sent(bed, msg::MsgType::kClockBeacon), 4u);  // beacon re-armed
  primary.seed(1, "p", "v1");
  bed.run_for(sim::SimDuration::millis(400));
  EXPECT_TRUE(holds(replica, 1, "p", "v1"));  // lazy tick re-armed
}

}  // namespace
}  // namespace globe::replication
