// Golden-digest pins for the shared-batch fan-out. Each scenario used
// to run twice, shared RecordBatches against a per-subscriber copy +
// encode baseline, and compare every store's state byte-for-byte. The
// baseline switch is gone; its output is pinned here instead. Each pin
// is the 64-bit FNV-1a of one store's `store_state_digest` (retained log,
// document snapshot, applied gseq and clock), produced by the
// per-subscriber copy baseline on the same seed and equal to the shared
// path's digest at the time it was captured. The one remaining path must
// still deliver exactly those bytes to every replica.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"
#include "globe/web/record_batch.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

using Scenario = void (*)(Testbed& bed);
using Pins = std::vector<std::uint64_t>;

void expect_pinned(Scenario scenario, const Pins& pins) {
  TestbedOptions opts;
  opts.seed = 7;
  opts.record_history = false;
  opts.wan.base_latency = sim::SimDuration::millis(5);
  Testbed bed(opts);
  scenario(bed);
  EXPECT_TRUE(bed.converged(kObj));
  ASSERT_EQ(bed.stores().size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(util::fnv1a64(store_state_digest(*bed.stores()[i], kObj,
                                               /*mask_wall_clock=*/false)),
              pins[i])
        << "store " << i;
  }
}

void seed_writes(StoreEngine& primary, Testbed& bed, int count) {
  for (int i = 0; i < count; ++i) {
    primary.seed("page" + std::to_string(i % 5) + ".html",
                 "v" + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(2));
  }
  bed.settle();
}

// Immediate and lazy push deliver the same records in the same order, so
// both scenarios pin the same per-store state.
const Pins kPushPins(9, 0xdb70312909718347ull);

TEST(FanoutEquivalence, ImmediatePushFanout) {
  expect_pinned([](Testbed& bed) {
    ReplicationPolicy p;  // PRAM, push, immediate, partial
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 8; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 40);
  }, kPushPins);
}

TEST(FanoutEquivalence, LazyPushSharesQueuedSegments) {
  expect_pinned([](Testbed& bed) {
    ReplicationPolicy p;
    p.instant = core::TransferInstant::kLazy;
    p.lazy_period = sim::SimDuration::millis(20);
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 8; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 40);
  }, kPushPins);
}

TEST(FanoutEquivalence, InvalidatePropagation) {
  expect_pinned([](Testbed& bed) {
    ReplicationPolicy p;
    p.propagation = core::Propagation::kInvalidate;
    p.object_outdate_reaction = core::OutdateReaction::kDemand;
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 4; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 20);
  }, {0x889bf3644a45deaeull, 0x9810f9932039ec1aull, 0x9810f9932039ec1aull,
      0x9810f9932039ec1aull, 0x9810f9932039ec1aull});
}

TEST(FanoutEquivalence, MultiMasterReflectionExclusion) {
  // Multi-master chain: client writes enter at different stores, so
  // records propagate both downstream and upstream and the per-record
  // origin exclusion (never reflect a record back to its sender) is
  // exercised with mixed-origin batches.
  expect_pinned([](Testbed& bed) {
    ReplicationPolicy p;
    p.model = coherence::ObjectModel::kEventual;
    p.write_set = core::WriteSet::kMultiple;
    p.initiative = core::TransferInitiative::kPush;
    auto& primary = bed.add_primary(kObj, p);
    auto& mirror =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    auto& leaf = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p,
                               mirror.address());
    bed.settle();

    auto& wa = bed.add_client(kObj, ClientModel::kNone, primary.address(),
                              primary.address());
    auto& wb = bed.add_client(kObj, ClientModel::kNone, leaf.address(),
                              leaf.address());
    for (int i = 0; i < 15; ++i) {
      wa.write("shared" + std::to_string(i % 3), "a" + std::to_string(i),
               [](WriteResult) {});
      wb.write("shared" + std::to_string(i % 3), "b" + std::to_string(i),
               [](WriteResult) {});
      bed.run_for(sim::SimDuration::millis(15));
    }
    bed.settle();
  }, {0xff689b07e85dd25full, 0xff689b07e85dd25full, 0x3f099b0de7b7f2bcull});
}

TEST(RecordBatch, EncodesSameBytesAsEncodeRecords) {
  std::vector<web::WriteRecord> recs;
  for (int i = 0; i < 7; ++i) {
    web::WriteRecord rec;
    rec.wid = {static_cast<ClientId>(i % 3),
               static_cast<std::uint64_t>(i + 1)};
    rec.page = "p" + std::to_string(i % 4);
    rec.content = std::string(64 + i, 'x');
    rec.lamport = i + 1;
    rec.deps.set(1, i);
    recs.push_back(rec);
  }

  util::Writer reference;
  web::encode_records(reference, recs);

  // Split into two batches; the concatenated encoding must match.
  const auto half = recs.size() / 2;
  std::vector<web::RecordBatchPtr> batches;
  batches.push_back(std::make_shared<const web::RecordBatch>(
      std::span(recs).subspan(0, half), 0));
  batches.push_back(std::make_shared<const web::RecordBatch>(
      std::span(recs).subspan(half), 0));
  util::Writer combined;
  web::encode_batches(combined, batches);

  EXPECT_EQ(reference.view(), combined.view());
  EXPECT_EQ(web::batch_record_count(batches), recs.size());
}

}  // namespace
}  // namespace globe::replication
