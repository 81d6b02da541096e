// A6 — self-adaptive policies (the paper's Section 5 future work,
// implemented here): a workload whose write rate changes phase
// (quiet -> bursty -> quiet), run under (a) static immediate push,
// (b) static lazy push, (c) the adaptive controller that switches the
// transfer-instant parameter at runtime.
//
// The adaptive strategy should approach the better static strategy in
// *each* phase: immediate's freshness when quiet, lazy's aggregation
// when bursty.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "globe/replication/adaptive.hpp"

namespace globe::bench {
namespace {

struct AdaptiveResult {
  std::uint64_t msgs = 0;
  double stale_time_ms_mean = 0;
  std::uint64_t switches = 0;
};

AdaptiveResult run_phased(int mode /*0=immediate,1=lazy,2=adaptive*/,
                          std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;
  policy.instant = mode == 1 ? core::TransferInstant::kLazy
                             : core::TransferInstant::kImmediate;
  policy.lazy_period = sim::SimDuration::millis(500);

  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("page", "v0");
  std::vector<net::Address> caches;
  for (int i = 0; i < 6; ++i) {
    caches.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy)
            .address());
  }
  bed.settle();
  bed.net().reset_stats();
  bed.metrics().reset();

  std::optional<replication::AdaptiveController> controller;
  if (mode == 2) {
    replication::AdaptiveOptions aopts;
    aopts.interval = sim::SimDuration::seconds(1);
    aopts.lazy_above_writes_per_s = 4.0;
    aopts.immediate_below_writes_per_s = 1.0;
    aopts.lazy_period = sim::SimDuration::millis(500);
    controller.emplace(bed.sim(), primary, kObj, aopts);
    controller->start();
  }

  auto& writer = bed.add_client(kObj, coherence::ClientModel::kNone);
  std::vector<replication::ClientBinding*> readers;
  for (const auto& c : caches) {
    readers.push_back(
        &bed.add_client(kObj, coherence::ClientModel::kNone, c));
  }

  metrics::Histogram stale_time;
  util::Rng rng(seed);
  std::string committed = "v0";
  std::int64_t committed_at = 0;
  int version = 0;

  auto do_read = [&] {
    auto& r = *readers[rng.below(readers.size())];
    r.read("page", [&](replication::ReadResult res) {
      if (!res.ok) return;
      stale_time.add(res.content == committed
                         ? 0.0
                         : static_cast<double>(
                               bed.sim().now().count_micros() -
                               committed_at) /
                               1000.0);
    });
  };
  auto do_write = [&] {
    committed = "v" + std::to_string(++version);
    writer.write("page", committed, [&](replication::WriteResult) {});
    committed_at = bed.sim().now().count_micros();
  };

  // Phase 1 (8s): quiet — one write every 4s, steady reads.
  // Phase 2 (8s): bursty — ~15 writes/s.
  // Phase 3 (8s): quiet again.
  for (int phase = 0; phase < 3; ++phase) {
    const bool bursty = phase == 1;
    for (int tick = 0; tick < 80; ++tick) {  // 100ms ticks
      if (bursty ? (tick % 1 == 0 && rng.chance(0.9))
                 : (tick % 40 == 20)) {
        do_write();
      }
      if (tick % 3 == 0) do_read();
      bed.run_for(sim::SimDuration::millis(100));
    }
  }
  if (controller) controller->stop();
  bed.settle();

  AdaptiveResult out;
  out.msgs = bed.net().stats().messages_sent;
  out.stale_time_ms_mean = stale_time.mean();
  out.switches = controller ? controller->switches() : 0;
  return out;
}

void emit_table() {
  metrics::TablePrinter table(
      {"strategy", "msgs", "mean stale age ms", "policy switches"});
  const char* names[] = {"static immediate push", "static lazy push (500ms)",
                         "adaptive (immediate <-> lazy)"};
  for (int mode = 0; mode < 3; ++mode) {
    const auto r = run_phased(mode, 61);
    table.add_row({names[mode], metrics::TablePrinter::num(r.msgs),
                   metrics::TablePrinter::num(r.stale_time_ms_mean, 1),
                   metrics::TablePrinter::num(r.switches)});
  }
  std::printf(
      "A6 — self-adaptive transfer instant (Section 5 future work) on a\n"
      "phase-changing workload (quiet / bursty / quiet), 6 caches:\n\n%s\n",
      table.render().c_str());
  std::printf(
      "Expected shape: immediate is freshest but pays a push per write\n"
      "during the burst; lazy aggregates the burst but adds staleness in\n"
      "the quiet phases; adaptive switches to lazy for the burst and\n"
      "back, landing near the better static strategy on both axes.\n");
}

}  // namespace
}  // namespace globe::bench

int main(int argc, char** argv) {
  globe::bench::emit_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
