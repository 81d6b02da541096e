// Unit tests for the observability layer: the span ring (drop-oldest,
// overflow accounting), deterministic trace ids and sampling, implicit
// context scoping, the envelope trace-context flag (byte-identical wire
// when absent), propagation-latency derivation, the flight recorder
// rings, the .obstrace dump round-trip, Chrome trace export, histogram
// roll-up primitives, and the serialized monitor dump sink with owner
// context stamps.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "globe/check/monitor.hpp"
#include "globe/metrics/histogram.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/obs/export.hpp"
#include "globe/obs/flight_recorder.hpp"
#include "globe/obs/trace.hpp"
#include "globe/util/buffer.hpp"

namespace globe::obs {
namespace {

/// Every test leaves the process tracer disabled and empty: the tracer
/// is a process singleton shared across tests in this binary.
class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().set_clock(nullptr);
  }
};

Span make_span(SpanKind kind, std::uint64_t trace, std::int64_t ts) {
  Span s;
  s.kind = kind;
  s.trace_id = trace;
  s.ts_us = ts;
  return s;
}

TEST_F(TracerTest, RingDropsOldestAndCountsOverflow) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{4, 1});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(t.emit(make_span(SpanKind::kApply, 9, 100 + i)));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.overflow(), 2u);
  const std::vector<Span> snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest two dropped; remaining spans in emission order.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].span_id, ids[i + 2]);
    EXPECT_EQ(snap[i].ts_us, 102 + static_cast<std::int64_t>(i));
  }
}

TEST_F(TracerTest, SnapshotSinceFiltersByTimestamp) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{16, 1});
  t.emit(make_span(SpanKind::kApply, 1, 10));
  t.emit(make_span(SpanKind::kApply, 1, 20));
  t.emit(make_span(SpanKind::kApply, 1, 30));
  const std::vector<Span> snap = t.snapshot(20);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].ts_us, 20);
  EXPECT_EQ(snap[1].ts_us, 30);
}

TEST_F(TracerTest, EmitIsNoopWhenDisabled) {
  Tracer& t = Tracer::instance();
  ASSERT_FALSE(t.enabled());
  EXPECT_EQ(t.emit(make_span(SpanKind::kApply, 1, 1)), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(tracing_enabled());
}

TEST_F(TracerTest, TraceOfIsDeterministicAndNeverZero) {
  EXPECT_EQ(trace_of(1, 3, 17), trace_of(1, 3, 17));
  EXPECT_NE(trace_of(1, 3, 17), trace_of(1, 3, 18));
  EXPECT_NE(trace_of(1, 3, 17), trace_of(1, 4, 17));
  EXPECT_NE(trace_of(1, 3, 17), trace_of(2, 3, 17));
  for (std::uint32_t c = 0; c < 8; ++c) {
    for (std::uint64_t s = 0; s < 64; ++s) {
      EXPECT_NE(trace_of(1, c, s), 0u);
    }
  }
}

TEST_F(TracerTest, SamplingIsDeterministicOneInN) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{16, 4});
  EXPECT_EQ(t.sample_every(), 4u);
  std::size_t sampled = 0;
  for (std::uint64_t id = 1; id <= 400; ++id) {
    if (t.sampled(id)) ++sampled;
    EXPECT_EQ(t.sampled(id), id % 4 == 0);
  }
  EXPECT_EQ(sampled, 100u);
}

TEST_F(TracerTest, SettableClockDrivesTimestamps) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{16, 1});
  std::int64_t fake = 12345;
  t.set_clock([&fake] { return fake; });
  EXPECT_EQ(t.now_us(), 12345);
  fake = 999;
  EXPECT_EQ(t.now_us(), 999);
  t.set_clock(nullptr);  // wall clock again: monotone, not 999
  EXPECT_GE(t.now_us(), 0);
}

TEST_F(TracerTest, ContextScopeNestsAndRestores) {
  EXPECT_FALSE(current_context().valid());
  {
    const ContextScope outer(TraceContext{10, 1});
    EXPECT_EQ(current_context().trace_id, 10u);
    EXPECT_EQ(current_context().span_id, 1u);
    {
      const ContextScope inner(TraceContext{20, 2});
      EXPECT_EQ(current_context().trace_id, 20u);
    }
    EXPECT_EQ(current_context().trace_id, 10u);
    {
      // Installing an invalid context clears the current one.
      const ContextScope cleared(TraceContext{});
      EXPECT_FALSE(current_context().valid());
    }
    EXPECT_EQ(current_context().trace_id, 10u);
  }
  EXPECT_FALSE(current_context().valid());
}

TEST_F(TracerTest, AnnotationAttachesToCurrentTrace) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{16, 1});
  {
    const ContextScope scope(TraceContext{77, 5});
    annotate("fault:crash", 3);
  }
  annotate("free-floating");
  const std::vector<Span> snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, SpanKind::kAnnotation);
  EXPECT_EQ(snap[0].trace_id, 77u);
  EXPECT_EQ(snap[0].actor, 3u);
  EXPECT_STREQ(snap[0].label, "fault:crash");
  EXPECT_EQ(snap[1].trace_id, 0u);
}

TEST_F(TracerTest, SpanLabelTruncatesSafely) {
  Span s;
  s.set_label("a-very-long-label-that-does-not-fit-in-the-slot");
  EXPECT_EQ(std::string(s.label).size(), sizeof(s.label) - 1);
  s.set_label(nullptr);
  EXPECT_STREQ(s.label, "");
}

TEST_F(TracerTest, PropagationDerivedFromAcceptAndRemoteApplies) {
  Tracer& t = Tracer::instance();
  t.enable(TracerOptions{64, 1});
  std::int64_t now = 1000;
  t.set_clock([&now] { return now; });

  const std::uint64_t trace = trace_of(1, 1, 1);
  Span accept = make_span(SpanKind::kStoreAccept, trace, now);
  accept.actor = 1;
  t.emit(accept);

  // A local apply at the accepting store must not count as propagation.
  Span local = make_span(SpanKind::kApply, trace, now);
  local.actor = 1;
  t.emit(local);

  now = 1400;
  Span first = make_span(SpanKind::kApply, trace, now);
  first.actor = 2;
  t.emit(first);

  now = 2000;
  Span last = make_span(SpanKind::kApply, trace, now);
  last.actor = 3;
  t.emit(last);

  metrics::Histogram to_first;
  metrics::Histogram to_last;
  const PropagationStats stats = t.drain_propagation(&to_first, &to_last);
  EXPECT_EQ(stats.writes_accepted, 1u);
  EXPECT_EQ(stats.writes_applied_remotely, 1u);
  ASSERT_EQ(to_first.count(), 1u);
  ASSERT_EQ(to_last.count(), 1u);
  EXPECT_DOUBLE_EQ(to_first.max(), 400.0);
  EXPECT_DOUBLE_EQ(to_last.max(), 1000.0);

  // Draining clears the table: a second drain yields nothing.
  const PropagationStats again = t.drain_propagation(&to_first, &to_last);
  EXPECT_EQ(again.writes_accepted, 0u);
  EXPECT_EQ(to_first.count(), 1u);
}

// ---------------------------------------------------------------------
// Envelope trace context
// ---------------------------------------------------------------------

TEST(EnvelopeTrace, InvalidContextEncodesByteIdentical) {
  util::Writer plain;
  msg::Envelope::encode_header(plain, msg::MsgType::kUpdate, 42, 7);
  util::Writer traced;
  msg::Envelope::encode_header(traced, msg::MsgType::kUpdate, 42, 7,
                               TraceContext{});
  EXPECT_EQ(plain.take(), traced.take());
}

TEST(EnvelopeTrace, ContextRoundTripsThroughDecode) {
  msg::Envelope env;
  env.type = msg::MsgType::kInvokeRequest;
  env.object = 42;
  env.request_id = 9;
  env.trace = TraceContext{0xABCDEF, 0x123};
  env.body = util::to_buffer("payload");
  const util::Buffer wire = env.encode();

  const msg::EnvelopeView view = msg::EnvelopeView::decode(util::BytesView(wire));
  EXPECT_EQ(view.type, msg::MsgType::kInvokeRequest);
  EXPECT_EQ(view.object, 42u);
  EXPECT_EQ(view.request_id, 9u);
  EXPECT_EQ(view.trace.trace_id, 0xABCDEFu);
  EXPECT_EQ(view.trace.span_id, 0x123u);
  EXPECT_EQ(util::to_string(view.body), "payload");

  // The flag costs exactly the two context words.
  msg::Envelope bare = env;
  bare.trace = TraceContext{};
  EXPECT_EQ(wire.size(), bare.encode().size() + 16);
}

TEST(EnvelopeTrace, UntracedDecodeHasInvalidContext) {
  msg::Envelope env;
  env.type = msg::MsgType::kUpdate;
  env.object = 1;
  env.body = util::to_buffer("x");
  const util::Buffer wire = env.encode();
  const msg::EnvelopeView view = msg::EnvelopeView::decode(util::BytesView(wire));
  EXPECT_FALSE(view.trace.valid());
  EXPECT_EQ(util::to_string(view.body), "x");
}

// ---------------------------------------------------------------------
// Histogram roll-up primitives
// ---------------------------------------------------------------------

TEST(HistogramRollup, MergeAppendsExactSamples) {
  metrics::Histogram a;
  metrics::Histogram b;
  a.add(1);
  a.add(3);
  b.add(2);
  b.add(4);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.p50(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_EQ(b.count(), 2u);  // source untouched
}

TEST(HistogramRollup, SnapshotCopiesAndTakeDrains) {
  metrics::Histogram h;
  h.add(5);
  h.add(7);
  const metrics::Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 2u);
  h.add(9);
  EXPECT_EQ(snap.count(), 2u);  // snapshot is independent

  const metrics::Histogram taken = h.take();
  EXPECT_EQ(taken.count(), 3u);
  EXPECT_TRUE(h.empty());
  h.add(1);
  h.reset();
  EXPECT_TRUE(h.empty());
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, RingsDropOldestPerGauge) {
  FlightRecorder rec(3);
  double depth = 0;
  rec.register_gauge("queue.depth", [&depth] { return depth; });
  for (int i = 1; i <= 5; ++i) {
    depth = i;
    rec.sample(i * 10);
  }
  EXPECT_EQ(rec.gauge_count(), 1u);
  EXPECT_EQ(rec.samples_taken(), 5u);
  const std::vector<GaugeSeries> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "queue.depth");
  ASSERT_EQ(snap[0].points.size(), 3u);  // capacity 3 of 5 samples
  EXPECT_EQ(snap[0].points[0].ts_us, 30);
  EXPECT_DOUBLE_EQ(snap[0].points[2].value, 5.0);
}

TEST(FlightRecorderTest, SnapshotSinceRestrictsWindow) {
  FlightRecorder rec(8);
  rec.register_gauge("g", [] { return 1.0; });
  rec.sample(10);
  rec.sample(20);
  rec.sample(30);
  const std::vector<GaugeSeries> snap = rec.snapshot(25);
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].points.size(), 1u);
  EXPECT_EQ(snap[0].points[0].ts_us, 30);
}

// ---------------------------------------------------------------------
// Dump + Chrome export
// ---------------------------------------------------------------------

TEST(DumpFormat, RoundTripsSpansAndGauges) {
  std::vector<Span> spans;
  Span a = make_span(SpanKind::kClientWrite, trace_of(1, 1, 1), 100);
  a.span_id = 11;
  a.dur_us = 50;
  a.object = 42;
  a.detail = 3;
  a.actor = 1;
  a.set_label("timeout");
  spans.push_back(a);
  Span b = make_span(SpanKind::kWireSend, trace_of(1, 1, 1), 110);
  b.span_id = 12;
  b.parent_id = 11;
  b.actor = 2;
  b.set_label("invoke request");  // whitespace must survive tokenization
  spans.push_back(b);
  Span c = make_span(SpanKind::kAnnotation, 0, 120);
  c.span_id = 13;
  spans.push_back(c);  // empty label

  std::vector<GaugeSeries> gauges;
  gauges.push_back(GaugeSeries{"stores.parked_total",
                               {GaugePoint{90, 0.0}, GaugePoint{95, 2.5}}});

  std::stringstream io;
  write_dump(io, spans, gauges);

  std::vector<Span> rspans;
  std::vector<GaugeSeries> rgauges;
  std::string err;
  ASSERT_TRUE(read_dump(io, &rspans, &rgauges, &err)) << err;
  ASSERT_EQ(rspans.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(rspans[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(rspans[i].span_id, spans[i].span_id);
    EXPECT_EQ(rspans[i].parent_id, spans[i].parent_id);
    EXPECT_EQ(rspans[i].ts_us, spans[i].ts_us);
    EXPECT_EQ(rspans[i].dur_us, spans[i].dur_us);
    EXPECT_EQ(rspans[i].object, spans[i].object);
    EXPECT_EQ(rspans[i].detail, spans[i].detail);
    EXPECT_EQ(rspans[i].actor, spans[i].actor);
    EXPECT_EQ(rspans[i].kind, spans[i].kind);
  }
  EXPECT_STREQ(rspans[0].label, "timeout");
  EXPECT_STREQ(rspans[1].label, "invoke_request");  // sanitized
  EXPECT_STREQ(rspans[2].label, "");
  ASSERT_EQ(rgauges.size(), 1u);
  EXPECT_EQ(rgauges[0].name, "stores.parked_total");
  ASSERT_EQ(rgauges[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(rgauges[0].points[1].value, 2.5);
}

TEST(DumpFormat, SkipsUnknownTagsAndRejectsGarbage) {
  std::stringstream ok("obstrace v1\nZ future-tag 1 2 3\n");
  std::vector<Span> spans;
  std::vector<GaugeSeries> gauges;
  std::string err;
  EXPECT_TRUE(read_dump(ok, &spans, &gauges, &err)) << err;
  EXPECT_TRUE(spans.empty());

  std::stringstream bad("not-a-dump\n");
  EXPECT_FALSE(read_dump(bad, &spans, &gauges, &err));
  EXPECT_FALSE(err.empty());
}

TEST(DumpFormat, ParseKindCoversTaxonomy) {
  const SpanKind kinds[] = {
      SpanKind::kClientWrite, SpanKind::kStoreAccept, SpanKind::kOrder,
      SpanKind::kWireSend,    SpanKind::kWireDeliver, SpanKind::kApply,
      SpanKind::kAck,         SpanKind::kAnnotation,
  };
  for (const SpanKind k : kinds) {
    SpanKind parsed{};
    ASSERT_TRUE(parse_kind(to_string(k), &parsed)) << to_string(k);
    EXPECT_EQ(parsed, k);
  }
  SpanKind parsed{};
  EXPECT_FALSE(parse_kind("bogus.kind", &parsed));
}

TEST(ChromeExport, EmitsCompleteInstantAndCounterEvents) {
  std::vector<Span> spans;
  Span x = make_span(SpanKind::kApply, 5, 100);
  x.span_id = 1;
  x.dur_us = 40;
  x.actor = 3;
  spans.push_back(x);
  Span i = make_span(SpanKind::kAnnotation, 5, 120);
  i.span_id = 2;
  i.set_label("trip:gseq");
  spans.push_back(i);
  std::vector<GaugeSeries> gauges{
      GaugeSeries{"window.retransmits", {GaugePoint{100, 7.0}}}};

  std::stringstream out;
  write_chrome_trace(out, spans, gauges);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("apply"), std::string::npos);
  EXPECT_NE(json.find("trip:gseq"), std::string::npos);
  EXPECT_NE(json.find("window.retransmits"), std::string::npos);
}

// ---------------------------------------------------------------------
// Monitor dump sink + owner context (checked builds only)
// ---------------------------------------------------------------------

#if defined(GLOBE_CHECKED) && GLOBE_CHECKED

TEST(MonitorDump, TripReportCarriesOwnerContext) {
  check::ScopedTripCapture trips;
  int owner = 0;
  check::note_owner_context(&owner, 77, 9);
  check::on_gseq_apply(&owner, 77, 42, true, 5);
  check::on_gseq_apply(&owner, 77, 42, true, 4);  // regression
  ASSERT_TRUE(trips.tripped());
  const check::TripReport& r = trips.reports().front();
  EXPECT_NE(r.context.find("store=77"), std::string::npos);
  EXPECT_NE(r.context.find("view_epoch=9"), std::string::npos);
  EXPECT_NE(r.str().find("where:"), std::string::npos);
  check::release(&owner);
}

TEST(MonitorDump, ObserverFiresBeforeHandlerOnEveryTrip) {
  std::vector<std::string> observed;
  check::set_trip_observer([&observed](const check::TripReport& r) {
    observed.push_back(r.monitor);
  });
  {
    check::ScopedTripCapture trips;
    int owner = 0;
    check::on_gseq_apply(&owner, 1, 1, true, 3);
    check::on_gseq_apply(&owner, 1, 1, true, 2);
    EXPECT_TRUE(trips.tripped());
    check::release(&owner);
  }
  check::set_trip_observer(nullptr);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_FALSE(observed[0].empty());
}

TEST(MonitorDump, DumpsSerializeThroughConfiguredSink) {
  std::vector<std::string> sunk;
  check::set_dump_sink([&sunk](const std::string& text) {
    sunk.push_back(text);
  });
  check::emit_dump("dump-one");
  check::emit_dump("dump-two");
  check::set_dump_sink(nullptr);
  check::emit_dump("");  // default sink (stderr); must not crash
  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0], "dump-one");
  EXPECT_EQ(sunk[1], "dump-two");
}

#endif  // GLOBE_CHECKED

}  // namespace
}  // namespace globe::obs
