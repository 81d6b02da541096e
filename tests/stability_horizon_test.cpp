// Stability-horizon GC: write-log prefix compaction below the cluster
// floor, tombstone collection with preserved delta-refusal semantics,
// heartbeat-piggybacked horizon aggregation, and the failure-detector
// exclusion that keeps a crashed-but-unevicted store from freezing GC
// cluster-wide. The membership service's incremental horizon guard is
// checked against a naive fold over randomized announcers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>

#include "globe/coherence/checkers.hpp"
#include "globe/membership/service.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/replication/write_log.hpp"
#include "globe/sim/network.hpp"
#include "globe/web/document.hpp"

namespace globe::replication {
namespace {

using coherence::VectorClock;
using coherence::WriteId;

constexpr ObjectId kObj = 1;
constexpr coherence::ClientModel kAllSessions =
    ClientModel::kMonotonicWrites |
    ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads |
    ClientModel::kWritesFollowReads;

web::WriteRecord rec(ClientId c, std::uint64_t seq, std::string page,
                     std::uint64_t gseq = 0) {
  web::WriteRecord r;
  r.wid = WriteId{c, seq};
  r.page = std::move(page);
  r.content = "v" + std::to_string(seq);
  r.global_seq = gseq;
  return r;
}

web::WriteRecord del(ClientId c, std::uint64_t seq, std::string page) {
  web::WriteRecord r;
  r.wid = WriteId{c, seq};
  r.op = web::WriteOp::kDelete;
  r.page = std::move(page);
  return r;
}

// ---- WriteLog::compact_below -----------------------------------------

TEST(WriteLogHorizon, CompactsOnlyTheCoveredPrefix) {
  WriteLog log;
  log.append(rec(1, 1, "a"));
  log.append(rec(2, 1, "b"));
  log.append(rec(1, 2, "c"));
  log.append(rec(2, 2, "d"));

  VectorClock h;
  h.advance(1, 2);
  h.advance(2, 1);  // covers the first three records, not w(2,2)
  EXPECT_EQ(log.compact_below(h, 0), 3u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.retained().front().wid, (WriteId{2, 2}));
  EXPECT_EQ(log.base_clock().get(1), 2u);
  EXPECT_EQ(log.base_clock().get(2), 1u);

  // Idempotent at the same horizon.
  EXPECT_EQ(log.compact_below(h, 0), 0u);
  EXPECT_EQ(log.size(), 1u);
}

TEST(WriteLogHorizon, UncoveredRecordShieldsTheSuffix) {
  WriteLog log;
  log.append(rec(1, 1, "a"));
  log.append(rec(2, 1, "b"));
  log.append(rec(1, 2, "c"));

  // Covers w(1,*) but not w(2,1): the fold must stop at position 1 even
  // though the record behind it is covered (compaction is a prefix
  // operation — the indexes key off a contiguous first position).
  VectorClock h;
  h.advance(1, 2);
  EXPECT_EQ(log.compact_below(h, 0), 1u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.retained().front().wid, (WriteId{2, 1}));
}

TEST(WriteLogHorizon, GlobalSeqFloorGatesSequencedRecords) {
  WriteLog log;
  log.append(rec(1, 1, "a", 1));
  log.append(rec(1, 2, "b", 2));

  VectorClock h;
  h.advance(1, 2);  // clock covers both, gseq floor only the first
  EXPECT_EQ(log.compact_below(h, 1), 1u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.compact_below(h, 2), 1u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.base_gseq(), 2u);
}

TEST(WriteLogHorizon, RequesterBehindTheHorizonGetsSnapshotCutover) {
  WriteLog log;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    log.append(rec(1, s, "p" + std::to_string(s)));
  }
  VectorClock h;
  h.advance(1, 5);
  EXPECT_EQ(log.compact_below(h, 0), 5u);

  VectorClock behind;
  behind.advance(1, 2);
  EXPECT_FALSE(log.can_serve(behind, 0));  // full-snapshot cutover

  VectorClock at;
  at.advance(1, 5);
  EXPECT_TRUE(log.can_serve(at, 0));
  EXPECT_EQ(log.records_since(at, 0).size(), 3u);
}

// ---- WebDocument::collect_tombstones ---------------------------------

TEST(TombstoneHorizon, CoveredTombstonesAreCollectedAndRaiseTheFloor) {
  web::WebDocument doc;
  doc.apply(rec(1, 1, "a"));
  doc.apply(rec(1, 2, "b"));
  doc.apply(del(2, 1, "a"));
  ASSERT_EQ(doc.tombstones().size(), 1u);
  const std::uint64_t at_delete = doc.version();
  EXPECT_TRUE(doc.can_delta_since(at_delete - 1));

  VectorClock h;
  h.advance(2, 1);  // every live replica applied the delete
  EXPECT_EQ(doc.collect_tombstones(h), 1u);
  EXPECT_TRUE(doc.tombstones().empty());

  // Refusal semantics preserved: a floor from before the collected
  // deletion can no longer prove which drops the receiver missed, so
  // the floor fast path refuses and the sender falls back to a full
  // transfer — exactly as after restore().
  EXPECT_EQ(doc.tombstone_horizon(), at_delete);
  EXPECT_FALSE(doc.can_delta_since(at_delete - 1));
  EXPECT_TRUE(doc.can_delta_since(at_delete));
}

TEST(TombstoneHorizon, UncoveredTombstonesStay) {
  web::WebDocument doc;
  doc.apply(rec(1, 1, "a"));
  doc.apply(del(2, 5, "a"));

  VectorClock h;
  h.advance(2, 4);  // below the winning delete
  EXPECT_EQ(doc.collect_tombstones(h), 0u);
  EXPECT_EQ(doc.tombstones().size(), 1u);
  EXPECT_EQ(doc.tombstone_horizon(), 0u);
  EXPECT_TRUE(doc.can_delta_since(1));
}

// ---- cluster aggregation over heartbeats -----------------------------

TestbedOptions horizon_options() {
  TestbedOptions opts;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 1;
  return opts;
}

core::ReplicationPolicy causal_multi_master() {
  core::ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.initiative = core::TransferInitiative::kPush;
  return p;
}

TEST(StabilityHorizon, HeartbeatsAggregateTheClusterFloorAndDriveGc) {
  Testbed bed(horizon_options());
  auto& sc = bed.enable_streaming(coherence::ObjectModel::kCausal);
  const auto policy = causal_multi_master();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "seed");
  auto& a = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  auto& b = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  (void)b;
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));

  auto& c1 = bed.add_client(kObj, kAllSessions, a.address());
  for (int i = 0; i < 6; ++i) {
    c1.write("p" + std::to_string(i % 3), "v" + std::to_string(i),
             [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(20));
  }
  c1.remove("p0", [](WriteResult) {});
  bed.settle();
  bed.run_for(sim::SimDuration::millis(400));  // heartbeat piggybacks

  // The floor converged to everything the one writing client produced
  // (writes + the delete): every live store applied and announced it.
  const membership::HorizonMsg h = bed.membership().stability_horizon(kObj);
  EXPECT_EQ(h.clock.get(c1.id()), c1.writes_issued());
  EXPECT_GT(bed.membership().stats().horizon_advances, 0u);

  // The floor drove all three collectors, surfaced in the metrics sink.
  EXPECT_GT(bed.metrics().horizon_advances(), 0u);
  EXPECT_GT(bed.metrics().events_retired(), 0u);
  EXPECT_GT(bed.metrics().tombstones_collected(), 0u);

  // The streaming checker retired events and stayed equivalent to the
  // post-hoc replay of the fully retained history (retirement changed no
  // verdict) and to the naive oracle (the verdicts themselves hold).
  EXPECT_GT(sc.events_retired(), 0u);
  EXPECT_LT(sc.retained_events(), bed.history().size());
  EXPECT_TRUE(sc.exact());
  const coherence::CheckResult model = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kCausal);
  EXPECT_EQ(sc.model_result(), model);
  EXPECT_EQ(sc.model_result(),
            coherence::naive::check_object_model(
                bed.history(), coherence::ObjectModel::kCausal));
  EXPECT_TRUE(model.ok) << model.violations.front();
  const auto sessions = sc.session_results();
  EXPECT_EQ(sessions,
            coherence::check_sessions(bed.history(), sc.sessions()));
  ASSERT_EQ(sessions.size(), sc.sessions().size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const coherence::SessionSpec& spec = sc.sessions()[i];
    EXPECT_EQ(sessions[i], coherence::naive::check_client_models(
                               bed.history(), spec.client, spec.models))
        << "client " << spec.client;
  }
}

// Satellite: a crashed store the failure detector has flagged must stop
// holding the floor back even when it is exempt from eviction (the
// permanent primary) — otherwise one dead replica freezes GC
// cluster-wide for the rest of the run.
TEST(StabilityHorizon, CrashedUnevictedPrimaryDoesNotFreezeTheHorizon) {
  Testbed bed(horizon_options());
  auto& sc = bed.enable_streaming(coherence::ObjectModel::kCausal);
  const auto policy = causal_multi_master();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "seed");
  auto& a = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  // Chain b under a so propagation between the survivors does not need
  // the primary hub once it crashes.
  auto& b = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                          a.address());
  (void)b;
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));

  auto& c1 = bed.add_client(kObj, kAllSessions, a.address());
  for (int i = 0; i < 5; ++i) {
    c1.write("pre" + std::to_string(i), "v", [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(20));
  }
  bed.run_for(sim::SimDuration::millis(400));
  const membership::HorizonMsg before =
      bed.membership().stability_horizon(kObj);
  EXPECT_EQ(before.clock.get(c1.id()), 5u);
  const std::uint64_t retired_before = sc.events_retired();

  bed.crash_store(0);  // the primary; evict_primary=false keeps it seated
  bed.run_for(sim::SimDuration::millis(400));  // > failure_timeout
  ASSERT_TRUE(
      bed.membership().current_view(kObj).contains(primary.address()));
  EXPECT_EQ(bed.membership().stats().evictions, 0u);

  int acked = 0;
  for (int i = 0; i < 10; ++i) {
    c1.write("post" + std::to_string(i), "v",
             [&](WriteResult r) { acked += r.ok ? 1 : 0; });
    bed.run_for(sim::SimDuration::millis(20));
  }
  bed.run_for(sim::SimDuration::millis(600));
  EXPECT_EQ(acked, 10);

  // The crashed-but-seated primary never applied the post-crash writes,
  // yet the floor moved past them: silent members are excluded from the
  // aggregation once they blow the failure timeout.
  const membership::HorizonMsg after =
      bed.membership().stability_horizon(kObj);
  EXPECT_EQ(after.clock.get(c1.id()), 15u);
  EXPECT_GT(after.clock.get(c1.id()), before.clock.get(c1.id()));

  // GC kept running for the survivors: the streaming checker kept
  // retiring events behind the advancing floor.
  EXPECT_GT(sc.events_retired(), retired_before);
}

// ---- Incremental horizon guard vs a naive fold ------------------------
//
// The membership service folds its members' applied clocks only when an
// exact guard says the floor can move. Randomized announcers drive the
// service directly; after every delivered heartbeat and every sweep its
// floor and advance count must equal a naive fold kept here.

using membership::MemberAnnounce;
using membership::MembershipService;

constexpr ObjectId kScope = 0xC1;
constexpr ClientId kClients = 5;  // few clients: frequent ties at the floor
constexpr auto kLatency = sim::SimDuration::millis(20);  // default link
constexpr auto kTimeout = sim::SimDuration::millis(100);

// A store endpoint that announces whatever applied state the test sets.
class Announcer {
 public:
  Announcer(const core::TransportFactory& factory, sim::Simulator& sim,
            net::Address service, StoreId id, bool primary)
      : comm_(factory, &sim), service_(service) {
    contact_.address = comm_.local_address();
    contact_.store_class = primary ? naming::StoreClass::kPermanent
                                   : naming::StoreClass::kObjectInitiated;
    contact_.store_id = id;
    contact_.is_primary = primary;
    comm_.set_delivery_handler(
        [](const net::Address&, const msg::EnvelopeView&) {});
  }

  [[nodiscard]] MemberAnnounce announce() const {
    MemberAnnounce m;
    m.contact = contact_;
    m.has_applied = has_applied;
    m.applied = applied;
    m.applied_gseq = gseq;
    return m;
  }
  void join() {
    const MemberAnnounce m = announce();
    comm_.request_with(
        service_, msg::MsgType::kMembershipJoin, kScope,
        [&](util::Writer& w) { m.encode(w); },
        [](bool, const net::Address&, const msg::EnvelopeView&) {});
  }
  void heartbeat() {
    const MemberAnnounce m = announce();
    comm_.send_with_background(service_, msg::MsgType::kMembershipHeartbeat,
                               kScope, [&](util::Writer& w) { m.encode(w); });
  }
  void leave() {
    membership::LeaveMsg m;
    m.address = address();
    comm_.send_with(service_, msg::MsgType::kMembershipLeave, kScope,
                    [&](util::Writer& w) { m.encode(w); });
  }
  [[nodiscard]] net::Address address() const { return contact_.address; }
  [[nodiscard]] bool primary() const { return contact_.is_primary; }

  bool has_applied = false;
  VectorClock applied;
  std::uint64_t gseq = 0;

 private:
  core::CommunicationObject comm_;
  net::Address service_;
  naming::ContactPoint contact_;
};

// The floor as specified, with no incremental state: over the members
// that announced data and were heard within the failure timeout, take
// each client's minimum entry (an absent entry is 0) and the minimum
// gseq, and raise the monotonic horizon to them. Mirrors the service's
// membership rules: any announcement admits, a leave removes, a sweep
// evicts silent non-primaries and then folds, a heartbeat folds.
class NaiveHorizon {
 public:
  void heard(const MemberAnnounce& a, util::SimTime now) {
    const auto key = std::make_pair(a.contact.address.node,
                                    a.contact.address.port);
    auto [it, fresh] = members_.try_emplace(key);
    Member& m = it->second;
    m.primary = a.contact.is_primary;
    m.last_heard = now;
    if (fresh || a.has_applied) {
      m.has_applied = m.has_applied || a.has_applied;
      m.applied.clear();
      for (const auto& [c, v] : a.applied.entries()) m.applied[c] = v;
      m.gseq = a.applied_gseq;
    }
  }
  void left(const net::Address& addr) {
    members_.erase(std::make_pair(addr.node, addr.port));
  }
  void sweep(util::SimTime now) {
    std::erase_if(members_, [&](const auto& kv) {
      return !kv.second.primary && now - kv.second.last_heard > kTimeout;
    });
    fold(now);
  }
  void fold(util::SimTime now) {
    std::map<ClientId, std::uint64_t> floor;
    std::uint64_t floor_gseq = 0;
    bool any = false;
    for (const auto& [key, m] : members_) {
      if (!m.has_applied || now - m.last_heard > kTimeout) continue;
      if (!any) {
        floor = m.applied;
        floor_gseq = m.gseq;
        any = true;
        continue;
      }
      for (auto& [c, v] : floor) {
        auto mit = m.applied.find(c);
        v = std::min(v, mit == m.applied.end() ? 0 : mit->second);
      }
      floor_gseq = std::min(floor_gseq, m.gseq);
    }
    if (!any) return;
    bool moved = false;
    for (const auto& [c, v] : floor) {
      if (v > horizon_[c]) {
        horizon_[c] = v;
        moved = true;
      }
    }
    if (floor_gseq > horizon_gseq_) {
      horizon_gseq_ = floor_gseq;
      moved = true;
    }
    if (moved) ++advances_;
  }

  // Nonzero entries only, like a canonical clock.
  [[nodiscard]] std::map<ClientId, std::uint64_t> horizon() const {
    std::map<ClientId, std::uint64_t> out;
    for (const auto& [c, v] : horizon_) {
      if (v != 0) out[c] = v;
    }
    return out;
  }
  [[nodiscard]] std::uint64_t horizon_gseq() const { return horizon_gseq_; }
  [[nodiscard]] std::uint64_t advances() const { return advances_; }

 private:
  struct Member {
    bool primary = false;
    bool has_applied = false;
    std::map<ClientId, std::uint64_t> applied;
    std::uint64_t gseq = 0;
    util::SimTime last_heard{};
  };
  std::map<std::pair<NodeId, PortId>, Member> members_;
  std::map<ClientId, std::uint64_t> horizon_;
  std::uint64_t horizon_gseq_ = 0;
  std::uint64_t advances_ = 0;
};

// What the randomized runs exercised, summed over seeds.
struct Coverage {
  std::uint64_t advances = 0;
  std::uint64_t gseq_only_advances = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t empty_rejoins = 0;
  std::uint64_t primary_timeouts = 0;  // primary back after > kTimeout
  std::uint64_t dataless_heartbeats = 0;
};

void run_differential(std::uint64_t seed, Coverage& cov) {
  sim::Simulator sim;
  sim::Network net(sim, seed);
  std::map<NodeId, PortId> next_port;
  auto factory = [&](NodeId node) -> core::TransportFactory {
    return [&, node](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      const PortId port = ++next_port[node];
      return std::make_unique<net::SimTransport>(
          net, net::Address{node, port}, std::move(handler));
    };
  };
  membership::MembershipOptions opts;
  // Sweeps come only from sweep_now(), so each is compared below.
  opts.heartbeat_period = sim::SimDuration::seconds(1000000);
  opts.failure_timeout = kTimeout;
  MembershipService service(factory(net.add_node("membership")), &sim, opts);

  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  enum class Mode { kUp, kSilent, kLeft };
  std::vector<std::unique_ptr<Announcer>> stores;
  std::vector<Mode> mode;
  std::vector<util::SimTime> silent_since;
  const std::size_t n = 3 + pick(5);
  for (std::size_t i = 0; i < n; ++i) {
    stores.push_back(std::make_unique<Announcer>(
        factory(net.add_node("store")), sim, service.address(),
        static_cast<StoreId>(i), /*primary=*/i == 0));
    stores.back()->has_applied = pick(3) != 0;
    mode.push_back(Mode::kUp);
    silent_since.emplace_back();
  }

  NaiveHorizon oracle;
  std::uint64_t last_advances = 0;
  std::uint64_t last_gseq = 0;
  std::map<ClientId, std::uint64_t> last_clock;
  auto compare = [&](const char* after) {
    const membership::HorizonMsg h = service.stability_horizon(kScope);
    const std::map<ClientId, std::uint64_t> got(h.clock.entries().begin(),
                                                h.clock.entries().end());
    ASSERT_EQ(got, oracle.horizon()) << "seed " << seed << " after " << after;
    ASSERT_EQ(h.gseq, oracle.horizon_gseq())
        << "seed " << seed << " after " << after;
    ASSERT_EQ(service.stats().horizon_advances, oracle.advances())
        << "seed " << seed << " after " << after;
    if (oracle.advances() != last_advances && got == last_clock &&
        h.gseq != last_gseq) {
      ++cov.gseq_only_advances;
    }
    last_advances = oracle.advances();
    last_gseq = h.gseq;
    last_clock = got;
  };
  // Deliver one message (links are FIFO with fixed latency), so the
  // service hears it at exactly the time the oracle records.
  auto deliver = [&] { sim.run_until(sim.now() + kLatency); };

  for (std::size_t i = 0; i < n; ++i) {
    const MemberAnnounce a = stores[i]->announce();
    stores[i]->join();
    deliver();
    oracle.heard(a, sim.now());
  }

  for (int step = 0; step < 150; ++step) {
    const std::uint64_t action = pick(100);
    const std::size_t i = pick(n);
    Announcer& s = *stores[i];
    if (action < 55 && mode[i] == Mode::kUp) {
      // Applied state moves the way replicas' do: one or several
      // components, the global seq alone, or a catch-up to the most
      // advanced member; a dataless store may start carrying data.
      switch (pick(6)) {
        case 0:
        case 1: {
          const auto c = static_cast<ClientId>(1 + pick(kClients));
          s.applied.advance(c, s.applied.get(c) + 1 + pick(2));
          break;
        }
        case 2:
          s.gseq += 1 + pick(2);
          break;
        case 3:
          for (ClientId c = 1; c <= kClients; ++c) {
            if (pick(2) != 0) s.applied.advance(c, s.applied.get(c) + 1);
          }
          break;
        case 4:
          for (const auto& other : stores) {
            s.applied.merge(other->applied);
            s.gseq = std::max(s.gseq, other->gseq);
          }
          break;
        default:
          if (!s.has_applied && pick(2) != 0) s.has_applied = true;
          break;
      }
      if (!s.has_applied) ++cov.dataless_heartbeats;
      const MemberAnnounce a = s.announce();
      s.heartbeat();
      deliver();
      oracle.heard(a, sim.now());
      oracle.fold(sim.now());
      compare("heartbeat");
    } else if (action < 65) {
      sim.run_until(sim.now() + sim::SimDuration::millis(
                                    static_cast<std::int64_t>(pick(150))));
    } else if (action < 77) {
      service.sweep_now();
      oracle.sweep(sim.now());
      compare("sweep");
    } else if (action < 85 && mode[i] == Mode::kUp) {
      mode[i] = Mode::kSilent;  // crash or partition: it stops talking
      silent_since[i] = sim.now();
    } else if (action < 95 && mode[i] != Mode::kUp) {
      // Back from a crash, partition or leave, half the time restarted
      // with nothing applied yet.
      if (pick(2) != 0) {
        s.has_applied = true;
        s.applied = VectorClock{};
        s.gseq = 0;
        ++cov.empty_rejoins;
      }
      if (s.primary() && sim.now() - silent_since[i] > kTimeout) {
        ++cov.primary_timeouts;
      }
      const MemberAnnounce a = s.announce();
      const bool as_join = mode[i] == Mode::kLeft && pick(2) != 0;
      mode[i] = Mode::kUp;
      if (as_join) {
        s.join();
        deliver();
        oracle.heard(a, sim.now());
        compare("join");
      } else {
        s.heartbeat();
        deliver();
        oracle.heard(a, sim.now());
        oracle.fold(sim.now());
        compare("heartbeat");
      }
    } else if (action >= 95 && mode[i] == Mode::kUp && !s.primary()) {
      mode[i] = Mode::kLeft;
      s.leave();
      deliver();
      oracle.left(s.address());
      compare("leave");
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  cov.advances += service.stats().horizon_advances;
  cov.evictions += service.stats().evictions;
  cov.rejoins += service.stats().rejoins;
  cov.leaves += service.stats().leaves;
}

TEST(StabilityHorizonGuard, MatchesNaiveFoldAfterEveryHeartbeatAndSweep) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    run_differential(seed, cov);
    if (HasFatalFailure()) return;
  }
  // The runs must reach every path the guard keeps state for.
  EXPECT_GT(cov.advances, 1000u);
  EXPECT_GT(cov.gseq_only_advances, 0u);
  EXPECT_GT(cov.evictions, 0u);
  EXPECT_GT(cov.rejoins, 0u);
  EXPECT_GT(cov.leaves, 0u);
  EXPECT_GT(cov.empty_rejoins, 0u);
  EXPECT_GT(cov.primary_timeouts, 0u);
  EXPECT_GT(cov.dataless_heartbeats, 0u);
}

}  // namespace
}  // namespace globe::replication
