// Equivalence of the post-hoc verification pipeline with the seed oracle.
//
// The History index vectors, check_object_model / check_sessions (a
// replay into the StreamingChecker), and the per-client wrapper must
// return verdicts identical to the retained naive implementations — same
// ok flag, same violations in the same order, same events_checked — on
// clean histories, on deliberately corrupted ones (out-of-order apply,
// gap, broken total order, RYW miss, MR regression, WFR violation,
// eventual divergence, op-index ties), and on randomized event soups.
// The naive checkers share no code with the streaming one, so agreement
// here certifies the semantics, not just self-consistency.
#include <gtest/gtest.h>

#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/util/rng.hpp"

namespace globe::coherence {
namespace {

constexpr ClientModel kAllSessions =
    ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;

constexpr ObjectModel kAllObjectModels[] = {
    ObjectModel::kSequential, ObjectModel::kPram, ObjectModel::kFifoPram,
    ObjectModel::kCausal, ObjectModel::kEventual};

void expect_view_equivalence(const History& h) {
  EXPECT_EQ(h.stores(), h.stores_naive());
  EXPECT_EQ(h.clients(), h.clients_naive());
  for (StoreId s : h.stores()) {
    EXPECT_EQ(h.store_applies(s), h.store_applies_naive(s))
        << "store " << s;
  }
  for (ClientId c : h.clients()) {
    const auto a = h.client_ops(c);
    const auto b = h.client_ops_naive(c);
    ASSERT_EQ(a.size(), b.size()) << "client " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].is_write, b[i].is_write) << "client " << c << " op " << i;
      EXPECT_EQ(a[i].write, b[i].write) << "client " << c << " op " << i;
      EXPECT_EQ(a[i].read, b[i].read) << "client " << c << " op " << i;
    }
  }
}

void expect_checker_equivalence(const History& h) {
  expect_view_equivalence(h);
  for (ObjectModel m : kAllObjectModels) {
    const CheckResult posthoc = check_object_model(h, m);
    const CheckResult baseline = naive::check_object_model(h, m);
    EXPECT_EQ(posthoc, baseline)
        << to_string(m) << "\nposthoc:  " << posthoc.summary()
        << "\nbaseline: " << baseline.summary();
  }
  std::vector<SessionSpec> specs;
  for (ClientId c : h.clients()) specs.push_back({c, kAllSessions});
  const auto posthoc = check_sessions(h, specs);
  ASSERT_EQ(posthoc.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CheckResult baseline =
        naive::check_client_models(h, specs[i].client, kAllSessions);
    EXPECT_EQ(posthoc[i], baseline)
        << "client " << specs[i].client << "\nposthoc:  "
        << posthoc[i].summary() << "\nbaseline: " << baseline.summary();
    // The one-spec wrapper must agree too.
    EXPECT_EQ(check_client_models(h, specs[i].client, kAllSessions),
              baseline);
  }
}

ApplyEvent apply(StoreId store, WriteId wid, PageId page,
                 std::uint64_t gseq = 0, VectorClock deps = {}) {
  ApplyEvent e;
  e.store = store;
  e.wid = wid;
  e.page = page;
  e.deps = std::move(deps);
  e.global_seq = gseq;
  return e;
}

WriteEvent client_write(ClientId client, std::uint64_t op_index, WriteId wid,
                        PageId page, VectorClock deps = {},
                        std::uint64_t gseq = 0) {
  WriteEvent e;
  e.client_op_index = op_index;
  e.client = client;
  e.wid = wid;
  e.page = page;
  e.deps = std::move(deps);
  e.global_seq = gseq;
  return e;
}

ReadEvent client_read(ClientId client, std::uint64_t op_index, PageId page,
                      VectorClock store_clock = {}, std::uint64_t gseq = 0) {
  ReadEvent e;
  e.client_op_index = op_index;
  e.client = client;
  e.store = 0;
  e.page = page;
  e.store_clock = std::move(store_clock);
  e.store_global_seq = gseq;
  return e;
}

// -- Corrupted histories ------------------------------------------------

TEST(CheckerEquivalence, OutOfOrderApply) {
  History h;
  const PageId p = h.intern("p");
  h.record_apply(apply(0, {1, 1}, p));
  h.record_apply(apply(0, {1, 2}, p));
  h.record_apply(apply(1, {1, 2}, p));  // applied before seq 1
  h.record_apply(apply(1, {1, 1}, p));
  h.record_write(client_write(1, 1, {1, 1}, p));
  h.record_write(client_write(1, 2, {1, 2}, p));
  EXPECT_FALSE(check_object_model(h, ObjectModel::kPram).ok);
  EXPECT_FALSE(naive::check_pram(h).ok);
  EXPECT_FALSE(check_client_models(h, 1, ClientModel::kMonotonicWrites).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, GapInPerWriterSequence) {
  History h;
  const PageId p = h.intern("p");
  h.record_apply(apply(0, {1, 1}, p));
  h.record_apply(apply(0, {1, 3}, p));  // skipped seq 2
  EXPECT_FALSE(check_object_model(h, ObjectModel::kPram).ok);
  // FIFO tolerates the gap.
  EXPECT_TRUE(check_object_model(h, ObjectModel::kFifoPram).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, BrokenTotalOrder) {
  History h;
  const PageId p = h.intern("p");
  h.record_apply(apply(0, {1, 1}, p, 1));
  h.record_apply(apply(0, {2, 1}, p, 2));
  h.record_apply(apply(1, {2, 1}, p, 1));  // stores disagree on the order
  h.record_apply(apply(1, {1, 1}, p, 2));
  EXPECT_FALSE(check_object_model(h, ObjectModel::kSequential).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, ReadYourWritesMiss) {
  History h;
  const PageId p = h.intern("p");
  h.record_write(client_write(5, 1, {5, 1}, p));
  h.record_read(client_read(5, 2, p));  // empty clock: own write missing
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kReadYourWrites).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, MonotonicReadRegression) {
  History h;
  const PageId p = h.intern("p");
  VectorClock newer;
  newer.set(1, 4);
  VectorClock older;
  older.set(1, 2);
  h.record_read(client_read(5, 1, p, newer));
  h.record_read(client_read(5, 2, p, older));
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kMonotonicReads).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, WritesFollowReadsViolation) {
  History h;
  const PageId p = h.intern("p");
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(client_write(1, 1, {1, 1}, p));
  h.record_write(client_write(5, 1, {5, 1}, p, dep));
  h.record_apply(apply(0, {5, 1}, p, 0, dep));  // before its read context
  h.record_apply(apply(0, {1, 1}, p));
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kWritesFollowReads).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, EventualDivergence) {
  History h;
  const PageId p = h.intern("page.html");
  h.record_apply(apply(0, {1, 4}, p));
  h.record_apply(apply(1, {1, 2}, p));  // settled on an older final write
  EXPECT_FALSE(check_object_model(h, ObjectModel::kEventual).ok);
  // The violation message resolves the interned page name.
  EXPECT_NE(check_object_model(h, ObjectModel::kEventual)
                .violations.at(0)
                .find("page.html"),
            std::string::npos);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, SnapshotBaselines) {
  History h;
  const PageId p = h.intern("p");
  VectorClock snap;
  snap.set(1, 5);
  ApplyEvent s;
  s.store = 2;
  s.deps = snap;
  s.global_seq = 7;
  s.from_snapshot = true;
  h.record_apply(s);
  h.record_apply(apply(2, {1, 6}, p, 8));
  h.record_apply(apply(2, {1, 3}, p, 9));  // regression below the snapshot
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, OpIndexTies) {
  // Program order breaks ties writes-first: the read recorded before
  // the write that shares its op index still runs after it, and two
  // reads sharing an index keep record order. The replay must see the
  // same order the oracle sorts into.
  History h;
  const PageId p = h.intern("p");
  VectorClock own;
  own.set(5, 1);
  h.record_read(client_read(5, 1, p, {}, 0));  // ties with the write
  h.record_write(client_write(5, 1, {5, 1}, p, {}, 1));
  h.record_read(client_read(5, 2, p, own, 1));
  h.record_read(client_read(5, 2, p, {}, 0));  // ties, then regresses
  h.record_apply(apply(0, {5, 1}, p, 1));
  EXPECT_FALSE(check_object_model(h, ObjectModel::kSequential).ok);
  const CheckResult sessions = check_client_models(h, 5, kAllSessions);
  EXPECT_FALSE(sessions.ok);
  EXPECT_EQ(sessions.violations.size(), 3u);  // RYW x2, MR x1
  expect_checker_equivalence(h);
}

// -- Randomized event soup ---------------------------------------------

TEST(CheckerEquivalence, RandomizedHistories) {
  util::Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    History h;
    const int clients = 4, stores = 3, pages = 3;
    std::vector<PageId> page_ids;
    for (int i = 0; i < pages; ++i) {
      page_ids.push_back(h.intern("page" + std::to_string(i)));
    }
    std::vector<std::uint64_t> seq(clients, 0), op(clients, 0);
    std::uint64_t gseq = 0;
    for (int i = 0; i < 120; ++i) {
      const auto c = static_cast<ClientId>(rng.below(clients));
      const PageId page = page_ids[rng.below(pages)];
      const auto kind = rng.below(4);
      if (kind == 0) {
        VectorClock deps;
        deps.set(static_cast<ClientId>(rng.below(clients)), rng.below(5));
        h.record_write(client_write(c, ++op[c], {c, ++seq[c]}, page,
                                    std::move(deps), ++gseq));
      } else if (kind == 1) {
        VectorClock clock;
        clock.set(static_cast<ClientId>(rng.below(clients)), rng.below(8));
        h.record_read(client_read(c, ++op[c], page, std::move(clock),
                                  rng.below(6)));
      } else if (kind == 2) {
        // Deliberately unordered applies: random writer/seq/gseq.
        VectorClock deps;
        if (rng.chance(0.3)) {
          deps.set(static_cast<ClientId>(rng.below(clients)), rng.below(5));
        }
        h.record_apply(apply(static_cast<StoreId>(rng.below(stores)),
                             {c, rng.below(6) + 1}, page, rng.below(5),
                             std::move(deps)));
      } else {
        ApplyEvent s;
        s.store = static_cast<StoreId>(rng.below(stores));
        s.deps.set(static_cast<ClientId>(rng.below(clients)), rng.below(6));
        s.global_seq = rng.below(4);
        s.from_snapshot = true;
        h.record_apply(s);
      }
    }
    expect_checker_equivalence(h);
  }
}

// -- A real recorded execution -----------------------------------------

TEST(CheckerEquivalence, RecordedTestbedHistory) {
  using namespace replication;
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;

  Testbed bed;
  constexpr ObjectId kObj = 1;
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "v");
  std::vector<net::Address> caches;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<ClientBinding*> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(&bed.add_client(kObj, kAllSessions,
                                      caches[i % caches.size()]));
  }
  util::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    auto& c = *clients[rng.below(clients.size())];
    const std::string page = "p" + std::to_string(rng.below(4));
    if (rng.chance(0.4)) {
      c.write(page, "v" + std::to_string(i), [](WriteResult) {});
    } else {
      c.read(page, [](ReadResult) {});
    }
    bed.run_for(sim::SimDuration::millis(15));
  }
  bed.settle();

  ASSERT_GT(bed.history().size(), 100u);
  expect_checker_equivalence(bed.history());
  // This clean causal run must actually pass its model and sessions.
  EXPECT_TRUE(check_object_model(bed.history(), ObjectModel::kCausal).ok);
  for (ClientBinding* c : clients) {
    EXPECT_TRUE(check_client_models(bed.history(), c->id(), kAllSessions).ok);
  }
}

}  // namespace
}  // namespace globe::coherence
