// Snapshot-cache invalidation: WebDocument::snapshot() caches the
// encoded document and shares it by reference; every mutation must drop
// the cache, and the cached bytes must always equal the uncached
// reference encoder (encode_snapshot), including across restore() and
// subscriber cutover storms at the engine level.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"
#include "globe/web/document.hpp"

namespace globe::web {
namespace {

WriteRecord put(const std::string& page, const std::string& content,
                coherence::WriteId wid, std::uint64_t lamport = 0) {
  WriteRecord rec;
  rec.op = WriteOp::kPut;
  rec.page = page;
  rec.content = content;
  rec.wid = wid;
  rec.lamport = lamport;
  return rec;
}

WriteRecord del(const std::string& page) {
  WriteRecord rec;
  rec.op = WriteOp::kDelete;
  rec.page = page;
  return rec;
}

void expect_cache_coherent(const WebDocument& doc) {
  EXPECT_EQ(*doc.snapshot(), doc.encode_snapshot());
}

TEST(SnapshotCache, RepeatedSnapshotsShareOneBuffer) {
  WebDocument doc;
  doc.apply(put("a", "alpha", {1, 1}));
  const util::SharedBuffer first = doc.snapshot();
  const util::SharedBuffer second = doc.snapshot();
  EXPECT_EQ(first.get(), second.get());  // cache hit: same buffer
  expect_cache_coherent(doc);
}

TEST(SnapshotCache, EveryMutationKindInvalidates) {
  WebDocument doc;
  doc.apply(put("a", "alpha", {1, 1}, 1));
  expect_cache_coherent(doc);

  const util::SharedBuffer before = doc.snapshot();
  doc.apply(put("a", "alpha2", {1, 2}, 2));  // overwrite
  EXPECT_NE(before.get(), doc.snapshot().get());
  expect_cache_coherent(doc);

  doc.apply(put("b", "beta", {2, 1}, 3));  // new page
  expect_cache_coherent(doc);

  doc.apply(del("b"));  // delete
  expect_cache_coherent(doc);

  // No-op delete: the document did not change, the cache may survive.
  const util::SharedBuffer kept = doc.snapshot();
  EXPECT_FALSE(doc.apply(del("missing")));
  EXPECT_EQ(kept.get(), doc.snapshot().get());
  expect_cache_coherent(doc);

  // LWW rejection: the state kept the newer version; cache stays valid.
  const util::SharedBuffer kept2 = doc.snapshot();
  EXPECT_FALSE(doc.apply_lww(put("a", "stale", {3, 1}, 1)));
  EXPECT_EQ(kept2.get(), doc.snapshot().get());
  expect_cache_coherent(doc);

  // LWW win mutates and must invalidate.
  EXPECT_TRUE(doc.apply_lww(put("a", "fresh", {3, 2}, 99)));
  expect_cache_coherent(doc);
}

TEST(SnapshotCache, RestoreInvalidatesAndRoundTrips) {
  WebDocument a;
  a.apply(put("x", "one", {1, 1}));
  a.apply(put("y", "two", {1, 2}));

  WebDocument b;
  b.apply(put("z", "gone", {2, 1}));
  const util::SharedBuffer stale = b.snapshot();

  // Restore from a's *cached* snapshot while b holds its own cache.
  b.restore(util::view_of(a.snapshot()));
  EXPECT_NE(stale.get(), b.snapshot().get());
  EXPECT_EQ(b, a);
  expect_cache_coherent(b);

  // The earlier shared buffer is still intact for its holders.
  WebDocument c;
  c.restore(util::BytesView(*stale));
  EXPECT_TRUE(c.has("z"));
}

TEST(SnapshotCache, RestoreFromOwnCachedSnapshotIsSafe) {
  // The restore source may be the document's own cache buffer; parsing
  // must finish before the cache reference is dropped.
  WebDocument doc;
  for (int i = 0; i < 8; ++i) {
    doc.apply(put("p" + std::to_string(i), std::string(100, 'v'),
                  {1, static_cast<std::uint64_t>(i + 1)}));
  }
  const util::Buffer oracle = doc.encode_snapshot();
  doc.restore(util::view_of(doc.snapshot()));
  EXPECT_EQ(doc.encode_snapshot(), oracle);
  expect_cache_coherent(doc);
}

TEST(SnapshotCache, InterleavedWritesSnapshotsRestores) {
  WebDocument doc;
  WebDocument mirror;  // replays via restore from doc's shared snapshots
  for (int i = 0; i < 50; ++i) {
    doc.apply(put("page" + std::to_string(i % 7), "v" + std::to_string(i),
                  {1, static_cast<std::uint64_t>(i + 1)},
                  static_cast<std::uint64_t>(i + 1)));
    if (i % 3 == 0) expect_cache_coherent(doc);
    if (i % 5 == 0) {
      mirror.restore(util::view_of(doc.snapshot()));
      EXPECT_EQ(mirror, doc);
      expect_cache_coherent(mirror);
    }
    if (i % 11 == 0) doc.apply(del("page" + std::to_string(i % 7)));
  }
  expect_cache_coherent(doc);
}

}  // namespace
}  // namespace globe::web

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;

TEST(SnapshotCache, ConcurrentSubscriberCutovers) {
  // A compacted primary forces snapshot cutovers: many behind-horizon
  // subscribers join at once (a cutover storm). All must converge, and
  // the primary's cached snapshot must stay coherent with the oracle
  // encoder throughout.
  TestbedOptions opts;
  opts.seed = 23;
  opts.record_history = false;
  opts.log_compact_threshold = 16;  // aggressive: force cutovers
  Testbed bed(opts);

  core::ReplicationPolicy p;  // PRAM push immediate partial
  auto& primary = bed.add_primary(kObj, p);
  for (int i = 0; i < 200; ++i) {
    primary.seed("page" + std::to_string(i % 9) + ".html",
                 "v" + std::to_string(i));
  }
  EXPECT_EQ(*primary.document(kObj).snapshot(),
            primary.document(kObj).encode_snapshot());

  // 12 subscribers join simultaneously, all behind the horizon.
  for (int s = 0; s < 12; ++s) {
    bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));

  // More writes interleaved with late joiners keep the cache churning.
  for (int i = 0; i < 40; ++i) {
    primary.seed("hot.html", "w" + std::to_string(i));
    if (i % 13 == 0) {
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
    }
    bed.run_for(sim::SimDuration::millis(3));
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_EQ(*primary.document(kObj).snapshot(),
            primary.document(kObj).encode_snapshot());
  for (const auto& s : bed.stores()) {
    EXPECT_EQ(*s->document(kObj).snapshot(),
              s->document(kObj).encode_snapshot());
  }
}

}  // namespace
}  // namespace globe::replication
