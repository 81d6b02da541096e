// End-to-end observability over the Testbed: a traced write's full
// lifecycle forms one connected trace (client.write -> wire ->
// store.accept -> order -> apply on every replica -> ack), the derived
// propagation latencies reach the metrics sink, the flight recorder
// samples gauges on the simulated clock, monitor trips annotate the
// trace and dump the preceding window, fault actions annotate, sampling
// is deterministic 1-in-N, and the simulated wire is byte-identical
// across runs when tracing is off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "globe/check/monitor.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/metrics/histogram.hpp"
#include "globe/obs/export.hpp"
#include "globe/obs/trace.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy immediate() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

std::size_t count_kind(const std::vector<obs::Span>& spans,
                       obs::SpanKind kind) {
  std::size_t n = 0;
  for (const obs::Span& s : spans) {
    if (s.kind == kind) ++n;
  }
  return n;
}

TEST(ObsLifecycle, WriteLifecycleFormsOneConnectedTrace) {
  Testbed bed;
  bed.enable_observability();
  auto& primary = bed.add_primary(kObj, immediate());
  bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
  bed.add_store(kObj, naming::StoreClass::kClientInitiated, immediate());
  bed.settle();
  (void)primary;

  auto& client = bed.add_client(kObj, ClientModel::kNone);
  std::optional<WriteResult> res;
  client.write("page", "v1", [&](WriteResult r) { res = r; });
  bed.settle();
  ASSERT_TRUE(res.has_value());
  ASSERT_TRUE(res->ok);
  ASSERT_TRUE(bed.converged(kObj));

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  ASSERT_FALSE(spans.empty());

  // Exactly one root: the client.write span of the only write.
  ASSERT_EQ(count_kind(spans, obs::SpanKind::kClientWrite), 1u);
  std::uint64_t trace = 0;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kClientWrite) trace = s.trace_id;
  }
  EXPECT_EQ(trace, obs::trace_of(kObj, res->wid.client, res->wid.seq));

  // Every span belongs to that one trace.
  std::set<std::uint64_t> ids;
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.trace_id, trace) << obs::to_string(s.kind);
    ids.insert(s.span_id);
  }

  // The whole lifecycle is present...
  EXPECT_GE(count_kind(spans, obs::SpanKind::kStoreAccept), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kOrder), 1u);
  // ...applied at the primary and both subscribed stores...
  EXPECT_GE(count_kind(spans, obs::SpanKind::kApply), 3u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kWireSend), 2u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kWireDeliver), 2u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kAck), 1u);

  // ...and connected: every non-root span's parent is in the trace.
  std::size_t roots = 0;
  for (const obs::Span& s : spans) {
    if (s.parent_id == 0) {
      ++roots;
      EXPECT_EQ(s.kind, obs::SpanKind::kClientWrite);
    } else {
      EXPECT_TRUE(ids.count(s.parent_id) > 0)
          << obs::to_string(s.kind) << " parent " << s.parent_id;
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ObsLifecycle, SameClientSeqOnTwoObjectsYieldsTwoConnectedTraces) {
  // A client numbers its writes per object session, so its first write
  // to each of two objects carries the same (client, seq). The trace id
  // must still tell them apart, or the propagation table pairs one
  // write's accept with the other's applies.
  TestbedOptions opts;
  opts.shards = 1;
  Testbed bed(opts);
  bed.enable_observability();
  bed.add_shard_store(0, naming::StoreClass::kPermanent, immediate(),
                      /*primary=*/true);
  bed.add_shard_store(0, naming::StoreClass::kObjectInitiated, immediate());
  bed.place_objects({1, 2});
  bed.settle();
  auto& client = bed.add_placed_client(ClientModel::kNone);
  std::map<ObjectId, WriteResult> res;
  client.write(1, "p", "a", [&](WriteResult r) { res[1] = r; });
  client.write(2, "p", "b", [&](WriteResult r) { res[2] = r; });
  bed.settle();
  ASSERT_EQ(res.size(), 2u);
  ASSERT_TRUE(res[1].ok && res[2].ok);
  ASSERT_EQ(res[1].wid, res[2].wid);  // the same (client, seq)

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  std::map<std::uint64_t, ObjectId> roots;  // trace id -> written object
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kClientWrite) roots[s.trace_id] = s.object;
  }
  ASSERT_EQ(roots.size(), 2u);
  for (const ObjectId id : {ObjectId{1}, ObjectId{2}}) {
    const std::uint64_t trace =
        obs::trace_of(id, res[id].wid.client, res[id].wid.seq);
    ASSERT_TRUE(roots.count(trace) > 0) << "object " << id;
    EXPECT_EQ(roots[trace], id);
  }
  for (const auto& [trace, object] : roots) {
    std::set<std::uint64_t> ids;
    for (const obs::Span& s : spans) {
      if (s.trace_id == trace) ids.insert(s.span_id);
    }
    std::size_t trace_roots = 0, applies = 0;
    for (const obs::Span& s : spans) {
      if (s.trace_id != trace) continue;
      if (s.parent_id == 0) {
        ++trace_roots;
      } else {
        EXPECT_TRUE(ids.count(s.parent_id) > 0) << obs::to_string(s.kind);
      }
      if (s.kind == obs::SpanKind::kApply) {
        ++applies;
        EXPECT_EQ(s.object, object);  // no span of the other write
      }
    }
    EXPECT_EQ(trace_roots, 1u);
    EXPECT_EQ(applies, 2u);  // primary + secondary
  }
  EXPECT_EQ(bed.harvest_propagation().writes_accepted, 2u);
}

TEST(ObsLifecycle, PropagationLatenciesReachMetricsSink) {
  Testbed bed;
  bed.enable_observability();
  bed.add_primary(kObj, immediate());
  bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
  bed.settle();
  auto& client = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 3; ++i) {
    client.write("p", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();

  const obs::PropagationStats stats = bed.harvest_propagation();
  EXPECT_EQ(stats.writes_accepted, 3u);
  EXPECT_EQ(stats.writes_applied_remotely, 3u);
  EXPECT_EQ(bed.metrics().propagation_first_us().count(), 3u);
  EXPECT_EQ(bed.metrics().propagation_last_us().count(), 3u);
  // Simulated WAN latency: propagation is strictly positive sim time.
  EXPECT_GT(bed.metrics().propagation_first_us().min(), 0.0);

  // Harvest drains: a second harvest adds nothing.
  const obs::PropagationStats again = bed.harvest_propagation();
  EXPECT_EQ(again.writes_accepted, 0u);
  EXPECT_EQ(bed.metrics().propagation_first_us().count(), 3u);
}

TEST(ObsLifecycle, FlightRecorderSamplesGaugesOnSimClock) {
  Testbed bed;
  Testbed::ObservabilityOptions opts;
  opts.gauge_period = sim::SimDuration::millis(20);
  bed.enable_observability(opts);
  bed.add_primary(kObj, immediate());
  bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
  bed.settle();

  ASSERT_NE(bed.recorder(), nullptr);
  EXPECT_GE(bed.recorder()->gauge_count(), 5u);
  const std::uint64_t before = bed.recorder()->samples_taken();
  bed.run_for(sim::SimDuration::seconds(1));
  const std::uint64_t after = bed.recorder()->samples_taken();
  EXPECT_GE(after - before, 40u);  // ~50 periods of 20ms in 1s

  // Gauge timestamps ride the simulated clock, and the store-count
  // gauge reflects this deployment.
  const std::vector<obs::GaugeSeries> snap = bed.recorder()->snapshot();
  bool saw_store_count = false;
  for (const obs::GaugeSeries& g : snap) {
    ASSERT_FALSE(g.points.empty()) << g.name;
    EXPECT_LE(g.points.back().ts_us, bed.sim().now().count_micros());
    if (g.name == "stores.count") {
      saw_store_count = true;
      EXPECT_DOUBLE_EQ(g.points.back().value, 2.0);
    }
  }
  EXPECT_TRUE(saw_store_count);
}

TEST(ObsLifecycle, SamplingIsDeterministicOneInN) {
  const std::uint64_t kEvery = (1u << 20) + 7;
  Testbed bed;
  Testbed::ObservabilityOptions opts;
  opts.sample_every = kEvery;
  bed.enable_observability(opts);
  bed.add_primary(kObj, immediate());
  bed.settle();
  auto& client = bed.add_client(kObj, ClientModel::kNone);

  std::vector<coherence::WriteId> wids;
  for (int i = 0; i < 5; ++i) {
    client.write("p", "v" + std::to_string(i),
                 [&](WriteResult r) { wids.push_back(r.wid); });
  }
  bed.settle();
  ASSERT_EQ(wids.size(), 5u);

  std::size_t expected = 0;
  for (const coherence::WriteId& w : wids) {
    if (obs::trace_of(kObj, w.client, w.seq) % kEvery == 0) ++expected;
  }
  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kClientWrite), expected);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kStoreAccept), expected);
}

#if defined(GLOBE_CHECKED) && GLOBE_CHECKED

TEST(ObsLifecycle, MonitorTripAnnotatesTraceAndDumpsWindow) {
  const std::string dump_path =
      ::testing::TempDir() + "obs_trip_dump_test.obstrace";
  std::remove(dump_path.c_str());

  Testbed bed;
  Testbed::ObservabilityOptions opts;
  opts.trip_dump_path = dump_path;
  opts.gauge_period = sim::SimDuration::millis(20);
  bed.enable_observability(opts);
  bed.add_primary(kObj, immediate());
  bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
  bed.settle();
  auto& client = bed.add_client(kObj, ClientModel::kNone);
  client.write("p", "v", [](WriteResult) {});
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));  // gauge samples

  // Force a gseq regression on a synthetic owner: the testbed's trip
  // observer must annotate the trace and write the window dump even
  // though the test handler (ScopedTripCapture) suppresses the abort.
  {
    check::ScopedTripCapture trips;
    int owner = 0;
    check::note_owner_context(&owner, 99, 4);
    check::on_gseq_apply(&owner, 99, kObj, true, 7);
    check::on_gseq_apply(&owner, 99, kObj, true, 6);
    ASSERT_TRUE(trips.tripped());
    EXPECT_NE(trips.reports().front().context.find("store=99"),
              std::string::npos);
    check::release(&owner);
  }

  // The trip left an annotation span in the trace.
  bool annotated = false;
  for (const obs::Span& s : obs::Tracer::instance().snapshot()) {
    if (s.kind == obs::SpanKind::kAnnotation &&
        std::string(s.label).rfind("trip:", 0) == 0) {
      annotated = true;
    }
  }
  EXPECT_TRUE(annotated);

  // The dump holds the preceding window: lifecycle spans AND gauge rings.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << dump_path;
  std::vector<obs::Span> spans;
  std::vector<obs::GaugeSeries> gauges;
  std::string err;
  ASSERT_TRUE(obs::read_dump(in, &spans, &gauges, &err)) << err;
  EXPECT_GE(count_kind(spans, obs::SpanKind::kClientWrite), 1u);
  EXPECT_GE(count_kind(spans, obs::SpanKind::kApply), 2u);
  ASSERT_FALSE(gauges.empty());
  bool gauge_points = false;
  for (const obs::GaugeSeries& g : gauges) {
    if (!g.points.empty()) gauge_points = true;
  }
  EXPECT_TRUE(gauge_points);
  std::remove(dump_path.c_str());
}

#endif  // GLOBE_CHECKED

TEST(ObsLifecycle, FaultActionsAnnotateTheTrace) {
  Testbed bed;
  bed.enable_observability();
  bed.add_primary(kObj, immediate());
  bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
  bed.settle();

  TestbedFaultHost host(bed);
  fault::ScenarioScript script;
  fault::Action crash;
  crash.kind = fault::ActionKind::kCrash;
  crash.at = sim::SimDuration::millis(10);
  crash.store = 1;
  script.actions.push_back(crash);
  fault::ScenarioEngine engine(std::move(script), host);
  engine.arm(bed.sim());
  bed.run_for(sim::SimDuration::millis(50));
  EXPECT_EQ(engine.stats().crashes, 1u);

  bool annotated = false;
  for (const obs::Span& s : obs::Tracer::instance().snapshot()) {
    if (s.kind == obs::SpanKind::kAnnotation &&
        std::string(s.label) == "fault:crash") {
      annotated = true;
    }
  }
  EXPECT_TRUE(annotated);
}

/// The byte-identical gate, testbed-sized: with tracing off the
/// simulated wire digest is identical run-to-run, and turning tracing
/// on is visible to the digest (so the bench gate actually detects
/// context leakage).
TEST(ObsLifecycle, WireDigestIdenticalAcrossUntracedRuns) {
  auto digest_of = [](bool traced) {
    TestbedOptions o;
    o.seed = 7;
    Testbed bed(o);
    bed.net().enable_wire_digest(true);
    if (traced) bed.enable_observability();
    bed.add_primary(kObj, immediate());
    bed.add_store(kObj, naming::StoreClass::kPermanent, immediate());
    bed.settle();
    auto& client = bed.add_client(kObj, ClientModel::kNone);
    for (int i = 0; i < 3; ++i) {
      client.write("p", "v" + std::to_string(i), [](WriteResult) {});
    }
    bed.settle();
    return bed.net().wire_digest();
  };

  const std::uint64_t off_a = digest_of(false);
  const std::uint64_t off_b = digest_of(false);
  const std::uint64_t on = digest_of(true);
  EXPECT_EQ(off_a, off_b);
  EXPECT_NE(off_a, on);
}

}  // namespace
}  // namespace globe::replication
