// Tests for snapshot-aware checking: replicas that join late (or
// receive full-state transfers) are judged from their snapshot baseline
// rather than from an empty history.
#include <gtest/gtest.h>

#include "globe/coherence/checkers.hpp"

namespace globe::coherence {
namespace {

ApplyEvent snapshot_at(StoreId store, VectorClock clock,
                       std::uint64_t gseq = 0) {
  ApplyEvent e;
  e.store = store;
  e.deps = std::move(clock);
  e.global_seq = gseq;
  e.from_snapshot = true;
  return e;
}

ApplyEvent apply(StoreId store, WriteId wid, std::uint64_t gseq = 0,
                 VectorClock deps = {}) {
  ApplyEvent e;
  e.store = store;
  e.wid = wid;
  e.page = 1;  // arbitrary PageId; these checks never resolve the name
  e.deps = std::move(deps);
  e.global_seq = gseq;
  return e;
}

TEST(SnapshotAware, PramAcceptsLateJoinerStartingMidStream) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  h.record_apply(snapshot_at(2, snap));
  h.record_apply(apply(2, {1, 6}));
  h.record_apply(apply(2, {1, 7}));
  EXPECT_TRUE(check_object_model(h, ObjectModel::kPram).ok);
}

TEST(SnapshotAware, PramStillDetectsGapAfterSnapshot) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  h.record_apply(snapshot_at(2, snap));
  h.record_apply(apply(2, {1, 8}));  // skipped 6 and 7
  EXPECT_FALSE(check_object_model(h, ObjectModel::kPram).ok);
}

TEST(SnapshotAware, PramStillDetectsRegressionAfterSnapshot) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  h.record_apply(snapshot_at(2, snap));
  h.record_apply(apply(2, {1, 3}));  // already covered by the snapshot
  EXPECT_FALSE(check_object_model(h, ObjectModel::kPram).ok);
}

TEST(SnapshotAware, CausalTreatsSnapshotAsDependencyBaseline) {
  History h;
  VectorClock snap;
  snap.set(1, 1);
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(WriteEvent{{}, 1, 2, 0, WriteId{2, 1}, 1, dep, 0});
  h.record_apply(snapshot_at(3, snap));
  h.record_apply(apply(3, {2, 1}, 0, dep));  // dep satisfied via snapshot
  EXPECT_TRUE(check_object_model(h, ObjectModel::kCausal).ok);
}

TEST(SnapshotAware, CausalStillDetectsMissingDependency) {
  History h;
  VectorClock snap;
  snap.set(1, 1);
  VectorClock dep;
  dep.set(9, 9);  // not covered by the snapshot
  h.record_write(WriteEvent{{}, 1, 2, 0, WriteId{2, 1}, 1, dep, 0});
  h.record_apply(snapshot_at(3, snap));
  h.record_apply(apply(3, {2, 1}, 0, dep));
  EXPECT_FALSE(check_object_model(h, ObjectModel::kCausal).ok);
}

TEST(SnapshotAware, SequentialAcceptsSnapshotBaseline) {
  History h;
  h.record_apply(snapshot_at(2, {}, /*gseq=*/10));
  h.record_apply(apply(2, {1, 1}, 11));
  h.record_apply(apply(2, {1, 2}, 12));
  EXPECT_TRUE(check_object_model(h, ObjectModel::kSequential).ok);
}

TEST(SnapshotAware, SequentialDetectsGapAfterSnapshot) {
  History h;
  h.record_apply(snapshot_at(2, {}, 10));
  h.record_apply(apply(2, {1, 1}, 13));  // skipped 11, 12
  EXPECT_FALSE(check_object_model(h, ObjectModel::kSequential).ok);
}

TEST(SnapshotAware, MonotonicWritesUsesSnapshotFloor) {
  History h;
  VectorClock snap;
  snap.set(5, 4);
  h.record_apply(snapshot_at(2, snap));
  h.record_apply(apply(2, {5, 5}));
  EXPECT_TRUE(check_client_models(h, 5, ClientModel::kMonotonicWrites).ok);

  History bad;
  bad.record_apply(snapshot_at(2, snap));
  bad.record_apply(apply(2, {5, 2}));  // regression below the snapshot
  EXPECT_FALSE(check_client_models(bad, 5, ClientModel::kMonotonicWrites).ok);
}

TEST(SnapshotAware, EventualFinalWriteResetByFullTransfer) {
  History h;
  // Store 2 applied an old write, then a full-state transfer replaced
  // everything; the earlier apply must not count as its final content.
  h.record_apply(apply(2, {1, 1}));
  h.record_apply(snapshot_at(2, {}));
  h.record_apply(apply(3, {1, 2}));
  h.record_apply(apply(2, {1, 2}));
  EXPECT_TRUE(check_object_model(h, ObjectModel::kEventual).ok);
}

}  // namespace
}  // namespace globe::coherence
