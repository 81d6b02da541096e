// Integration tests for the object-based coherence models of
// Section 3.2.1: each model is deployed on a multi-store topology,
// exercised with concurrent clients, and its recorded history verified
// with the corresponding checker.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using coherence::ObjectModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy policy_for(ObjectModel m) {
  ReplicationPolicy p;
  p.model = m;
  p.instant = core::TransferInstant::kImmediate;
  p.write_set = (m == ObjectModel::kCausal || m == ObjectModel::kEventual)
                    ? core::WriteSet::kMultiple
                    : core::WriteSet::kSingle;
  return p;
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

TEST(SequentialModel, ConcurrentWritersGetOneTotalOrder) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kSequential));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kSequential));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                           policy_for(ObjectModel::kSequential));
  bed.settle();

  auto& alice = bed.add_client(kObj, ClientModel::kNone, s1.address());
  auto& bob = bed.add_client(kObj, ClientModel::kNone, s2.address());
  for (int i = 0; i < 10; ++i) {
    alice.write("board", "alice-" + std::to_string(i), [](WriteResult) {});
    bob.write("board", "bob-" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_object_model(
      bed.history(), ObjectModel::kSequential);
  EXPECT_TRUE(res.ok) << res.summary();
  // Both replicas hold the same final write.
  EXPECT_EQ(s1.document(kObj).get("board")->last_writer,
            s2.document(kObj).get("board")->last_writer);
}

TEST(SequentialModel, WriteAcksCarryGlobalSeq) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kSequential));
  auto& c = bed.add_client(kObj, ClientModel::kNone);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 5; ++i) {
    c.write("p", "v", [&](WriteResult r) { seqs.push_back(r.global_seq); });
  }
  bed.settle();
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);  // dense primary-assigned total order
  }
}

TEST(SequentialModel, ReaderNeverTravelsBackInTime) {
  // A client alternating between two replicas must observe monotonically
  // advancing global state (its read floor travels with it).
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kSequential));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                           policy_for(ObjectModel::kSequential));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                           policy_for(ObjectModel::kSequential));
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  auto& reader = bed.add_client(kObj, ClientModel::kNone, s1.address());
  for (int round = 0; round < 6; ++round) {
    writer.write("p", "v" + std::to_string(round), [](WriteResult) {});
    bed.settle();
    reader.switch_read_store(round % 2 == 0 ? s1.address() : s2.address());
    reader.read("p", [](ReadResult) {});
    bed.settle();
  }
  const auto res = coherence::check_object_model(
      bed.history(), ObjectModel::kSequential);
  EXPECT_TRUE(res.ok) << res.summary();
}

// ---------------------------------------------------------------------
// PRAM / FIFO
// ---------------------------------------------------------------------

TEST(PramModel, TwoWritersPerWriterOrderEverywhere) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kPram));
  bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                policy_for(ObjectModel::kPram));
  bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                policy_for(ObjectModel::kPram));
  bed.settle();

  auto& a = bed.add_client(kObj, ClientModel::kNone);
  auto& b = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 15; ++i) {
    a.write("pa", "a" + std::to_string(i), [](WriteResult) {});
    b.write("pb", "b" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_object_model(
      bed.history(), ObjectModel::kPram);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(PramModel, IncrementalRecordThenFieldUpdate) {
  // The paper's bibliographic-database example: add a record, then
  // update one of its fields; PRAM delays the field update at a store
  // until the record addition has been applied there.
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kPram));
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy_for(ObjectModel::kPram));
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("record-17", "title=Globe", [](WriteResult) {});
  writer.write("record-17", "title=Globe; year=1998", [](WriteResult) {});
  bed.settle();
  EXPECT_EQ(cache.document(kObj).get("record-17")->content,
            "title=Globe; year=1998");
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), ObjectModel::kPram).ok);
}

TEST(FifoModel, SupersededWritesSkipped) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, policy_for(ObjectModel::kFifoPram));
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy_for(ObjectModel::kFifoPram));
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 10; ++i) {
    writer.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_EQ(primary.document(kObj).get("p")->content, "v10");
  EXPECT_EQ(cache.document(kObj).get("p")->content, "v10");
  const auto res = coherence::check_object_model(
      bed.history(), ObjectModel::kFifoPram);
  EXPECT_TRUE(res.ok) << res.summary();
}

// ---------------------------------------------------------------------
// Causal
// ---------------------------------------------------------------------

TEST(CausalModel, ReactionNeverPrecedesArticle) {
  // The paper's Web-forum example: a participant's reaction makes sense
  // only after the message that triggered it; this must hold at every
  // store.
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kCausal));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  bed.settle();

  // Author posts at store 1; replier reads it there, reacts at store 2.
  auto& author = bed.add_client(kObj, ClientModel::kNone, s1.address());
  auto& replier = bed.add_client(kObj, ClientModel::kNone, s2.address());

  author.write("article", "globe is neat", [](WriteResult) {});
  bed.settle();
  replier.switch_read_store(s1.address());
  replier.read("article", [](ReadResult) {});
  bed.settle();
  replier.switch_read_store(s2.address());
  replier.switch_write_store(s2.address());
  replier.write("reply-1", "agreed!", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_object_model(
      bed.history(), ObjectModel::kCausal);
  EXPECT_TRUE(res.ok) << res.summary();
  // Every store that has the reply also has the article.
  for (const auto& s : bed.stores()) {
    if (s->document(kObj).has("reply-1")) {
      EXPECT_TRUE(s->document(kObj).has("article"));
    }
  }
}

TEST(CausalModel, ConcurrentWritesBothSurvive) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kCausal));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  bed.settle();

  auto& a = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  auto& b = bed.add_client(kObj, ClientModel::kNone, s2.address(),
                           s2.address());
  a.write("page-a", "alpha", [](WriteResult) {});
  b.write("page-b", "beta", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  for (const auto& s : bed.stores()) {
    EXPECT_TRUE(s->document(kObj).has("page-a"));
    EXPECT_TRUE(s->document(kObj).has("page-b"));
  }
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), ObjectModel::kCausal).ok);
}

TEST(CausalModel, ChainsAcrossClients) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kCausal));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kCausal));
  bed.settle();

  auto& a = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  auto& b = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s2.address());
  auto& c = bed.add_client(kObj, ClientModel::kNone, s2.address(),
                           s1.address());
  a.write("m1", "first", [](WriteResult) {});
  bed.settle();
  b.read("m1", [](ReadResult) {});
  bed.settle();
  b.write("m2", "second", [](WriteResult) {});
  bed.settle();
  c.read("m2", [](ReadResult) {});
  bed.settle();
  c.write("m3", "third", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), ObjectModel::kCausal).ok);
}

// ---------------------------------------------------------------------
// Eventual
// ---------------------------------------------------------------------

TEST(EventualModel, ConflictingWritesConvergeViaLww) {
  Testbed bed;
  bed.add_primary(kObj, policy_for(ObjectModel::kEventual));
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kEventual));
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                           policy_for(ObjectModel::kEventual));
  bed.settle();

  auto& a = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  auto& b = bed.add_client(kObj, ClientModel::kNone, s2.address(),
                           s2.address());
  // Concurrent conflicting writes to the same page at different stores.
  a.write("p", "from-a", [](WriteResult) {});
  b.write("p", "from-b", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_TRUE(coherence::check_object_model(
      bed.history(), ObjectModel::kEventual).ok);
  const std::string final_content = s1.document(kObj).get("p")->content;
  EXPECT_EQ(s2.document(kObj).get("p")->content, final_content);
}

TEST(EventualModel, LazyPropagationConvergesAfterPeriod) {
  auto p = policy_for(ObjectModel::kEventual);
  p.instant = core::TransferInstant::kLazy;
  p.lazy_period = sim::SimDuration::millis(200);

  Testbed bed;
  auto& primary = bed.add_primary(kObj, p);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  bed.settle();

  auto& c = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  c.write("p", "lazy", [](WriteResult) {});
  // Before the period elapses the primary does not have the write yet.
  bed.run_for(sim::SimDuration::millis(100));
  EXPECT_FALSE(primary.document(kObj).has("p"));
  bed.run_for(sim::SimDuration::millis(300));
  EXPECT_TRUE(primary.document(kObj).has("p"));
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(EventualModel, AntiEntropyPullConverges) {
  auto p = policy_for(ObjectModel::kEventual);
  p.initiative = core::TransferInitiative::kPull;
  p.instant = core::TransferInstant::kLazy;
  p.lazy_period = sim::SimDuration::millis(100);

  Testbed bed;
  bed.add_primary(kObj, p);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  bed.settle();

  auto& a = bed.add_client(kObj, ClientModel::kNone, s1.address(),
                           s1.address());
  auto& b = bed.add_client(kObj, ClientModel::kNone, s2.address(),
                           s2.address());
  a.write("x", "1", [](WriteResult) {});
  b.write("y", "2", [](WriteResult) {});
  bed.run_for(sim::SimDuration::seconds(2));
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
}

// ---------------------------------------------------------------------
// Cross-model property sweep
// ---------------------------------------------------------------------

struct SweepParam {
  ObjectModel model;
  std::uint64_t seed;
};

class ModelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ModelSweep, RandomWorkloadSatisfiesModelAndConverges) {
  const auto param = GetParam();
  TestbedOptions opts;
  opts.seed = param.seed;
  Testbed bed(opts);
  const auto policy = policy_for(param.model);
  bed.add_primary(kObj, policy);
  auto& s1 = bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  auto& s2 = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();

  util::Rng rng(param.seed);
  std::vector<ClientBinding*> clients;
  const bool multi = param.model == ObjectModel::kCausal ||
                     param.model == ObjectModel::kEventual;
  for (int i = 0; i < 4; ++i) {
    const net::Address read =
        i % 2 == 0 ? s1.address() : s2.address();
    clients.push_back(&bed.add_client(kObj, ClientModel::kNone, read,
                                      multi ? read : net::Address{}));
  }

  for (int op = 0; op < 120; ++op) {
    auto& c = *clients[rng.below(clients.size())];
    const std::string page = "p" + std::to_string(rng.below(4));
    if (rng.chance(0.4)) {
      c.write(page, "v" + std::to_string(op), [](WriteResult) {});
    } else {
      c.read(page, [](ReadResult) {});
    }
    if (rng.chance(0.3)) bed.run_for(sim::SimDuration::millis(50));
  }
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_object_model(bed.history(), param.model);
  EXPECT_TRUE(res.ok) << coherence::to_string(param.model) << " seed "
                      << param.seed << ": " << res.summary();
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (auto m : {ObjectModel::kSequential, ObjectModel::kPram,
                 ObjectModel::kFifoPram, ObjectModel::kCausal,
                 ObjectModel::kEventual}) {
    for (std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
      out.push_back({m, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = coherence::to_string(info.param.model);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace globe::replication
