// Unit tests for coherence::VectorClock: the clock algebra, the wire
// codec, and the copy-on-write storage. Copies share one refcounted
// block; the randomized tests below drive a pool of clocks that share
// blocks through every mutating call and check each clock against a
// std::map oracle after every step, so a mutation that shows through in
// a copy (in either direction) fails. The last test pins the sharing on
// the apply path: a store's History event and its write-log record hold
// one clock block, not two.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::coherence {
namespace {

TEST(VectorClockTest, GetSetAdvance) {
  VectorClock vc;
  EXPECT_EQ(vc.get(1), 0u);
  vc.set(1, 5);
  EXPECT_EQ(vc.get(1), 5u);
  vc.advance(1, 3);  // no regression
  EXPECT_EQ(vc.get(1), 5u);
  vc.advance(1, 9);
  EXPECT_EQ(vc.get(1), 9u);
  vc.set(1, 0);  // canonical removal
  EXPECT_TRUE(vc.empty());
}

TEST(VectorClockTest, MergeAndDominates) {
  VectorClock a, b;
  a.set(1, 3);
  a.set(2, 1);
  b.set(1, 2);
  b.set(3, 4);
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  EXPECT_TRUE(a.concurrent_with(b));
  a.merge(b);
  EXPECT_EQ(a.get(1), 3u);
  EXPECT_EQ(a.get(3), 4u);
  EXPECT_TRUE(a.dominates(b));
  EXPECT_FALSE(a.concurrent_with(b));
}

TEST(VectorClockTest, DominatesIsReflexiveAndEmptyIsBottom) {
  VectorClock a;
  a.set(1, 1);
  EXPECT_TRUE(a.dominates(a));
  VectorClock empty;
  EXPECT_TRUE(a.dominates(empty));
  EXPECT_FALSE(empty.dominates(a));
  EXPECT_TRUE(empty.dominates(empty));
}

TEST(VectorClockTest, CoversWrites) {
  VectorClock vc;
  vc.set(1, 3);
  EXPECT_TRUE(vc.covers(WriteId{1, 3}));
  EXPECT_TRUE(vc.covers(WriteId{1, 1}));
  EXPECT_FALSE(vc.covers(WriteId{1, 4}));
  EXPECT_FALSE(vc.covers(WriteId{2, 1}));
}

TEST(VectorClockTest, TotalSumsEntries) {
  VectorClock vc;
  vc.set(1, 3);
  vc.set(2, 4);
  EXPECT_EQ(vc.total(), 7u);
}

TEST(VectorClockTest, CodecRoundTrip) {
  VectorClock vc;
  vc.set(1, 3);
  vc.set(1000, 12345678);
  util::Writer w;
  vc.encode(w);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_EQ(VectorClock::decode(r), vc);
}

// decode() appends canonical (ascending, nonzero) entries and hands the
// rest to set(); any wire input must decode to exactly what a set() per
// entry, in wire order, builds.
TEST(VectorClockTest, DecodeMatchesSetLoopOnArbitraryWire) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 2000; ++round) {
    const int shape = round % 4;  // sorted, shuffled, duplicates, zeros
    std::vector<std::pair<ClientId, std::uint64_t>> wire;
    const std::size_t n = rng() % 12;
    ClientId next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ClientId c = 0;
      if (shape == 0) {
        next += 1 + static_cast<ClientId>(rng() % 5);
        c = next;
      } else {
        c = static_cast<ClientId>(rng() % (shape == 2 ? 4 : 40));
      }
      std::uint64_t v = 1 + rng() % 1000;
      if (shape == 3 && rng() % 3 == 0) v = 0;
      wire.emplace_back(c, v);
    }
    util::Writer w;
    w.varint(wire.size());
    VectorClock expect;
    for (const auto& [c, v] : wire) {
      w.u32(c);
      w.varint(v);
      expect.set(c, v);
    }
    util::Reader r{util::BytesView(w.view())};
    const VectorClock got = VectorClock::decode(r);
    ASSERT_EQ(got, expect) << "round " << round << ": " << got.str()
                           << " vs " << expect.str();
    ASSERT_TRUE(r.at_end());
  }
}

// ---------------------------------------------------------------------
// Copy-on-write
// ---------------------------------------------------------------------

TEST(VectorClockCow, CopySharesAndFirstRealMutationClones) {
  VectorClock a;
  a.set(1, 3);
  a.set(4, 7);
  const VectorClock b = a;
  ASSERT_EQ(b.entries().data(), a.entries().data());

  // Calls that change nothing keep the block shared.
  a.advance(1, 2);
  a.set(4, 7);
  a.merge(b);
  a.floor_with(b);
  VectorClock lower;
  lower.set(1, 1);
  a.merge(lower);
  EXPECT_EQ(b.entries().data(), a.entries().data());

  // The first real change clones; the copy keeps the old values.
  a.advance(1, 9);
  EXPECT_NE(b.entries().data(), a.entries().data());
  EXPECT_EQ(a.get(1), 9u);
  EXPECT_EQ(b.get(1), 3u);

  // An unshared clock mutates in place.
  const auto* before = a.entries().data();
  a.advance(4, 8);
  a.merge(lower);
  EXPECT_EQ(a.entries().data(), before);

  // Merging into an empty clock shares the other's block.
  VectorClock c;
  c.merge(b);
  EXPECT_EQ(c.entries().data(), b.entries().data());
}

using Oracle = std::map<ClientId, std::uint64_t>;

void oracle_set(Oracle& m, ClientId c, std::uint64_t v) {
  if (v == 0) {
    m.erase(c);
  } else {
    m[c] = v;
  }
}

bool oracle_dominates(const Oracle& a, const Oracle& b) {
  return std::all_of(b.begin(), b.end(), [&](const auto& e) {
    auto it = a.find(e.first);
    return it != a.end() && it->second >= e.second;
  });
}

constexpr ClientId kMaxClient = 9;

void expect_matches(const VectorClock& vc, const Oracle& m,
                    const std::string& where) {
  const std::vector<VectorClock::Entry> want(m.begin(), m.end());
  const auto got = vc.entries();
  ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
      << where << ": " << vc.str();
  ASSERT_EQ(vc.size(), m.size()) << where;
  ASSERT_EQ(vc.empty(), m.empty()) << where;
  std::uint64_t total = 0;
  for (const auto& [c, v] : m) total += v;
  ASSERT_EQ(vc.total(), total) << where;
  for (ClientId c = 0; c <= kMaxClient + 1; ++c) {
    auto it = m.find(c);
    ASSERT_EQ(vc.get(c), it == m.end() ? 0u : it->second) << where;
  }
}

// A pool of clocks that share blocks through copies, assignments, moves,
// empty-clock merges and decodes, driven by random mutations. After each
// step every clock must equal its std::map oracle, and every pairwise
// dominates()/== must agree with the oracles'.
TEST(VectorClockCow, RandomOpsOnSharedPoolMatchMapOracle) {
  constexpr std::size_t kPool = 5;
  constexpr int kSeeds = 250;
  constexpr int kSteps = 200;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::vector<VectorClock> pool(kPool);
    std::vector<Oracle> want(kPool);
    const auto pick = [&] { return static_cast<std::size_t>(rng() % kPool); };
    const auto client = [&] {
      return static_cast<ClientId>(rng() % (kMaxClient + 1));
    };
    const auto value = [&] {
      return rng() % 4 == 0 ? 0 : 1 + rng() % 30;
    };
    for (int step = 0; step < kSteps; ++step) {
      const std::size_t i = pick();
      const std::size_t j = pick();
      const int op = static_cast<int>(rng() % 12);
      switch (op) {
        case 0: {  // copy construction, then move assignment
          VectorClock t(pool[j]);
          if (!t.empty()) {
            ASSERT_EQ(t.entries().data(), pool[j].entries().data());
          }
          pool[i] = std::move(t);
          want[i] = want[j];
          break;
        }
        case 1:  // copy assignment (i == j is self-assignment)
          pool[i] = pool[j];
          want[i] = want[j];
          break;
        case 2: {  // move construction from a copy
          VectorClock t = pool[j];
          VectorClock moved(std::move(t));
          pool[i] = moved;
          want[i] = want[j];
          break;
        }
        case 3: {
          const ClientId c = client();
          const std::uint64_t v = value();
          pool[i].set(c, v);
          oracle_set(want[i], c, v);
          break;
        }
        case 4: {
          const ClientId c = client();
          const std::uint64_t v = value();
          pool[i].advance(c, v);
          if (v != 0) want[i][c] = std::max(want[i][c], v);
          break;
        }
        case 5: {
          const WriteId w{client(), 1 + rng() % 30};
          pool[i].observe(w);
          want[i][w.client] = std::max(want[i][w.client], w.seq);
          break;
        }
        case 6:
        case 7:  // merge, weighted up: it is the sharing-heavy call
          pool[i].merge(pool[j]);
          for (const auto& [c, v] : want[j]) {
            want[i][c] = std::max(want[i][c], v);
          }
          break;
        case 8: {
          pool[i].floor_with(pool[j]);
          Oracle out;
          for (const auto& [c, v] : want[i]) {
            auto it = want[j].find(c);
            if (it != want[j].end()) out[c] = std::min(v, it->second);
          }
          want[i] = std::move(out);
          break;
        }
        case 9: {  // canonical wire
          util::Writer w;
          pool[j].encode(w);
          util::Reader r{util::BytesView(w.view())};
          pool[i] = VectorClock::decode(r);
          ASSERT_TRUE(r.at_end());
          want[i] = want[j];
          break;
        }
        case 10: {  // arbitrary wire: unsorted, duplicate and zero entries
          const std::size_t n = rng() % 8;
          util::Writer w;
          w.varint(n);
          Oracle m;
          for (std::size_t k = 0; k < n; ++k) {
            const ClientId c = client();
            const std::uint64_t v = value();
            w.u32(c);
            w.varint(v);
            oracle_set(m, c, v);
          }
          util::Reader r{util::BytesView(w.view())};
          pool[i] = VectorClock::decode(r);
          want[i] = std::move(m);
          break;
        }
        case 11: {  // mutate a short-lived copy; the source must not move
          VectorClock t = pool[j];
          t.set(client(), value());
          t.merge(pool[i]);
          t.floor_with(pool[i]);
          break;
        }
      }
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " op " +
                                std::to_string(op);
      for (std::size_t k = 0; k < kPool; ++k) {
        expect_matches(pool[k], want[k], where + " clock " + std::to_string(k));
        for (std::size_t l = 0; l < kPool; ++l) {
          ASSERT_EQ(pool[k].dominates(pool[l]),
                    oracle_dominates(want[k], want[l]))
              << where;
          ASSERT_EQ(pool[k] == pool[l], want[k] == want[l]) << where;
        }
      }
    }
  }
}

// Clocks that share a block are copied, mutated and released on several
// threads at once; the refcount is the only shared state. Run under
// TSan in CI.
TEST(VectorClockCow, SharedBlockAcrossThreads) {
  VectorClock base;
  for (ClientId c = 1; c <= 64; ++c) base.set(c, c);
  const VectorClock pristine = base;
  constexpr int kThreads = 4;
  std::vector<VectorClock> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base, &results, t] {
      const auto me = static_cast<ClientId>(t + 1);
      VectorClock last;
      for (std::uint64_t k = 1; k <= 2000; ++k) {
        VectorClock mine = base;  // concurrent copies of one block
        mine.advance(me, 1000 + k);
        VectorClock shared = mine;
        shared.merge(base);  // dominated: stays shared with mine
        last = shared;       // previous block released here
      }
      results[static_cast<std::size_t>(t)] = last;  // handed to main
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(base, pristine);
  EXPECT_EQ(base.entries().data(), pristine.entries().data());
  for (int t = 0; t < kThreads; ++t) {
    const VectorClock& r = results[static_cast<std::size_t>(t)];
    EXPECT_EQ(r.get(static_cast<ClientId>(t + 1)), 3000u);
    EXPECT_TRUE(r.dominates(base));
  }
}

}  // namespace
}  // namespace globe::coherence

namespace globe::replication {
namespace {

// The apply path copies a record's dependency clock into the History's
// ApplyEvent and again into the store's WriteLog. Both copies must share
// one block: a deep copy there doubles the memory of every causal run.
TEST(VectorClockSharing, ApplyEventAndLogRecordShareOneBlock) {
  constexpr ObjectId kObj = 1;
  core::ReplicationPolicy policy;
  policy.model = coherence::ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  bed.add_primary(kObj, policy);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  auto& a = bed.add_client(kObj, coherence::ClientModel::kNone, s1.address(),
                           s1.address());
  auto& b = bed.add_client(kObj, coherence::ClientModel::kNone, s2.address(),
                           s2.address());
  for (int k = 0; k < 4; ++k) {
    a.write("a" + std::to_string(k), "x", [](WriteResult) {});
    bed.settle();
    b.read("a" + std::to_string(k), [](ReadResult) {});
    bed.settle();
    b.write("b" + std::to_string(k), "y", [](WriteResult) {});
    bed.settle();
  }
  ASSERT_TRUE(bed.converged(kObj));

  std::size_t checked = 0;
  for (const auto& store : bed.stores()) {
    const StoreId id = store->config().store_id;
    const auto& log = store->write_log(kObj).retained();
    for (const coherence::ApplyEvent& e : bed.history().applies()) {
      if (e.store != id || e.from_snapshot || e.deps.empty()) continue;
      auto rec = std::find_if(log.begin(), log.end(),
                              [&](const web::WriteRecord& r) {
                                return r.wid == e.wid;
                              });
      ASSERT_NE(rec, log.end()) << e.wid.str();
      EXPECT_EQ(rec->deps, e.deps);
      EXPECT_EQ(rec->deps.entries().data(), e.deps.entries().data())
          << "store " << id << " holds " << e.wid.str()
          << "'s deps twice";
      ++checked;
    }
  }
  // Every store applied the writes that carry dependencies.
  EXPECT_GE(checked, 3u * 6u);
}

}  // namespace
}  // namespace globe::replication
