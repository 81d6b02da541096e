// Byte-budget write-log compaction and the snapshot-cutover /
// compaction counters in the metrics report.
#include <gtest/gtest.h>

#include <string>

#include "globe/replication/testbed.hpp"
#include "globe/replication/write_log.hpp"

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;

web::WriteRecord make_record(ClientId client, std::uint64_t seq,
                             const std::string& page, std::size_t bytes) {
  web::WriteRecord rec;
  rec.wid = coherence::WriteId{client, seq};
  rec.page = page;
  rec.content = std::string(bytes, 'x');
  rec.lamport = seq;
  return rec;
}

TEST(ByteBudgetCompaction, TracksRetainedBytesAndCompactsToBudget) {
  WriteLog log;
  std::size_t expected = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const auto rec = make_record(1, i, "p" + std::to_string(i % 7), 1000);
    log.append(rec);
    expected += WriteLog::record_bytes(rec);
  }
  EXPECT_EQ(log.retained_bytes(), expected);
  ASSERT_GT(expected, 20'000u);

  log.compact_to_bytes(20'000);
  EXPECT_LE(log.retained_bytes(), 20'000u);
  EXPECT_LT(log.size(), 100u);
  EXPECT_GT(log.size(), 0u);

  // The fold is equivalent to count-based compaction: the base clock
  // covers the dropped prefix and near-tip requesters still get exact
  // deltas.
  coherence::VectorClock have;
  have.set(1, 95);
  EXPECT_TRUE(log.can_serve(have, 0));
  EXPECT_EQ(log.records_since(have, 0).size(), 5u);

  coherence::VectorClock behind;  // below the horizon: needs a cutover
  behind.set(1, 1);
  EXPECT_FALSE(log.can_serve(behind, 0));

  // A budget larger than what is retained is a no-op.
  const std::size_t before = log.retained_bytes();
  log.compact_to_bytes(1 << 30);
  EXPECT_EQ(log.retained_bytes(), before);
}

TEST(ByteBudgetCompaction, EngineCompactsOnBytesAndCountsCutovers) {
  TestbedOptions opts;
  opts.seed = 9;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  opts.log_compact_threshold = 0;     // isolate the byte policy
  opts.log_compact_bytes = 32 * 1024;  // ~16 two-KB pages retained
  Testbed bed(opts);

  core::ReplicationPolicy policy;  // PRAM
  policy.initiative = core::TransferInitiative::kPull;
  policy.coherence_transfer = core::CoherenceTransfer::kPartial;
  policy.lazy_period = sim::SimDuration::millis(10);

  auto& primary = bed.add_primary(kObj, policy);
  auto& replica =
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();

  // Cut the replica off, then push the primary's log far past the byte
  // budget so the replica's horizon is compacted away.
  bed.net().partition(primary.address().node, replica.address().node);
  const std::string payload(2048, 'c');
  for (int i = 0; i < 200; ++i) {
    primary.seed("page" + std::to_string(i % 32) + ".html",
                 payload + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(5));
  }
  EXPECT_LE(primary.write_log(kObj).retained_bytes(), opts.log_compact_bytes);
  EXPECT_GT(bed.metrics().log_compactions(), 0u);
  ASSERT_EQ(bed.metrics().snapshot_cutovers(), 0u);

  // Heal: the next pull cannot be served as a delta — the fetch cuts
  // over to a snapshot, and the metrics report counts it.
  bed.net().heal_all();
  bed.run_for(sim::SimDuration::millis(100));
  bed.settle();

  EXPECT_GT(bed.metrics().snapshot_cutovers(), 0u);
  EXPECT_TRUE(bed.converged(kObj));
}

}  // namespace
}  // namespace globe::replication
