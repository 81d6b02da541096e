// perfbench driver: runs ONE trial of one benchmark workload on the
// deterministic simulator and prints what it measured as one JSON object.
//
// Every number is taken from outside the library: the driver times its
// own calls into the public API (Testbed builders, ClientBinding,
// Simulator via run_for/settle, the coherence checkers) and reads the
// public counters (MetricsSink, sim::Network::stats, MembershipService::
// stats, ScenarioEngine::stats, StoreEngine/WriteLog accessors, History).
// perfbench/run.py pools several trials into the reported metrics.
//
// Load model: open loop in simulated time. Op i is due at t0 + i/rate
// whether or not earlier ops finished (per-client sessions queue behind
// each other inside the binding); its latency runs from its due time to
// its callback, both in simulated microseconds.
//
// Usage: globe_perf --workload <many_objects|hot_object|churn>
//                   --seed <n> [--size full|tiny] [--trace-out <file>]
// With --trace-out the driver records a span around every call it makes
// into a layer, turns on the library's write-lifecycle tracer, and writes
// the spans as Chrome trace_event JSON to <file>.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/workload/content.hpp"
#include "globe/workload/zipf.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace globe;
using coherence::ClientModel;
using coherence::ObjectModel;
using replication::ClientBinding;
using replication::StoreEngine;
using replication::Testbed;
using replication::TestbedOptions;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------------ sizes

struct Params {
  // many_objects
  int objects = 0;
  int shards = 0;
  // hot_object / churn
  int mirrors = 0;
  int caches = 0;
  int pages = 0;
  std::size_t page_bytes = 0;
  int joiners = 0;  // churn flash crowd
  // all
  int clients = 0;
  int ops = 0;
  double rate_per_s = 0;  // ops due per simulated second
  double write_frac = 0;
};

Params params_for(const std::string& workload, bool tiny) {
  Params p;
  if (workload == "many_objects") {
    p.objects = tiny ? 400 : 10000;
    p.shards = 4;
    p.clients = 16;
    p.ops = tiny ? 1500 : 1700;
    p.rate_per_s = 200;
    p.write_frac = 0.20;
  } else if (workload == "hot_object" || workload == "churn") {
    p.mirrors = tiny ? 2 : 4;
    p.caches = tiny ? 8 : 120;
    p.clients = tiny ? 16 : 240;
    p.pages = 24;
    p.page_bytes = 1024;
    p.joiners = tiny ? 2 : 8;
    p.ops = workload == "churn" ? 2000 : (tiny ? 2600 : 3000);
    // At 100 ops/s about 1% of hot_object's reads queue behind the same
    // client's previous read, which puts read_p99_ms on that knee.
    p.rate_per_s = workload == "churn" ? 100 : 200;
    p.write_frac = 0.10;
  }
  return p;
}

// ------------------------------------------------------------- op record

struct Op {
  bool write = false;
  ObjectId object = 0;
  std::string key;  // "<object>/<page>": the staleness oracle's page key
  std::int64_t due_us = 0;
  std::int64_t done_us = -1;
  bool ok = false;
  coherence::WriteId wid;
};

/// The scenario engine's view of the testbed, passed through unchanged,
/// plus a log of when each store was born mid-run or went down: a write
/// due while a store is down is not charged for that store's recovery.
class RecordingFaultHost final : public fault::FaultHost {
 public:
  explicit RecordingFaultHost(Testbed& bed) : bed_(bed), inner_(bed) {}

  struct Interval {
    std::int64_t from_us = 0;
    std::int64_t to_us = INT64_MAX;
  };
  std::map<StoreId, std::int64_t> born_us;
  std::map<StoreId, std::vector<Interval>> down;

  [[nodiscard]] bool down_at(StoreId store, std::int64_t t_us) const {
    auto it = down.find(store);
    if (it == down.end()) return false;
    for (const Interval& i : it->second) {
      if (i.from_us <= t_us && t_us < i.to_us) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t store_count() const override {
    return inner_.store_count();
  }
  [[nodiscard]] bool store_alive(std::size_t index) const override {
    return inner_.store_alive(index);
  }
  [[nodiscard]] bool store_is_primary(std::size_t index) const override {
    return inner_.store_is_primary(index);
  }
  [[nodiscard]] ShardId store_shard(std::size_t index) const override {
    return inner_.store_shard(index);
  }
  [[nodiscard]] bool store_hosts_object(std::size_t index,
                                        ObjectId object) const override {
    return inner_.store_hosts_object(index, object);
  }
  void crash_store(std::size_t index) override {
    down[id(index)].push_back({now(), INT64_MAX});
    inner_.crash_store(index);
  }
  void recover_store(std::size_t index) override {
    auto& v = down[id(index)];
    if (!v.empty()) v.back().to_us = now();
    inner_.recover_store(index);
  }
  void leave_store(std::size_t index) override {
    down[id(index)].push_back({now(), INT64_MAX});
    inner_.leave_store(index);
  }
  void join_stores(std::size_t count) override {
    const std::size_t before = bed_.stores().size();
    inner_.join_stores(count);
    for (std::size_t i = before; i < bed_.stores().size(); ++i) {
      born_us[id(i)] = now();
    }
  }
  void partition(const std::vector<std::size_t>& side_a,
                 const std::vector<std::size_t>& side_b) override {
    inner_.partition(side_a, side_b);
  }
  void heal() override { inner_.heal(); }

 private:
  [[nodiscard]] StoreId id(std::size_t index) const {
    return bed_.stores().at(index)->id();
  }
  [[nodiscard]] std::int64_t now() { return bed_.sim().now().count_micros(); }

  Testbed& bed_;
  replication::TestbedFaultHost inner_;
};

/// Shared state of one trial: the deployment, the op log and the
/// driver's own counters.
struct Trial {
  std::string workload;
  std::uint64_t seed = 0;
  Params p;
  SpanRecorder spans{false};
  std::unique_ptr<Testbed> bed;
  ObjectModel model = ObjectModel::kPram;
  ClientModel session = ClientModel::kNone;
  std::vector<ClientBinding*> clients;
  std::vector<ObjectId> objects;
  std::map<ObjectId, std::string> page_of;  // many_objects: one page each
  std::vector<std::string> pages;           // hot_object / churn
  std::unique_ptr<RecordingFaultHost> fault_host;
  std::unique_ptr<fault::ScenarioEngine> faults;

  std::vector<Op> ops;
  std::uint64_t stale_reads = 0;
  std::uint64_t scored_reads = 0;
  std::int64_t generator_late_us = 0;
  std::uint64_t input_digest = 1469598103934665603ull;

  // Timings (wall seconds) and counter baselines.
  double setup_s = 0;
  double drive_s = 0;
  double verify_s = 0;
  double converge_s = 0;
  double check_model_s = 0;
  double check_sessions_s = 0;
  double visibility_s = 0;
  std::uint64_t events_before = 0;
  sim::TrafficStats net_before;
  std::uint64_t rebinds_before = 0;
  std::uint64_t applies_before = 0;
  std::uint64_t resubscribes_before = 0;
  membership::MembershipStats members_before;

  std::vector<std::string> violations;
};

void digest(Trial& t, std::uint64_t v) {
  t.input_digest ^= v;
  t.input_digest *= 1099511628211ull;
}

core::ReplicationPolicy sharded_policy() {
  core::ReplicationPolicy policy;  // PRAM, push, immediate
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  return policy;
}

constexpr ObjectId kHotObject = 1;

ClientModel all_guarantees() {
  return ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
         ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;
}

// -------------------------------------------------------------- set-up

void setup_many_objects(Trial& t, TestbedOptions opts) {
  opts.shards = static_cast<std::uint32_t>(t.p.shards);
  t.model = ObjectModel::kPram;
  t.session = ClientModel::kReadYourWrites;
  t.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *t.bed;
  const auto policy = sharded_policy();
  {
    SpanRecorder::Scope s(t.spans, "setup.stores");
    for (ShardId sh = 0; sh < static_cast<ShardId>(t.p.shards); ++sh) {
      bed.add_shard_store(sh, naming::StoreClass::kPermanent, policy,
                          /*primary=*/true);
      bed.add_shard_store(sh, naming::StoreClass::kObjectInitiated, policy);
    }
  }
  for (ObjectId id = 1; id <= static_cast<ObjectId>(t.p.objects); ++id) {
    t.objects.push_back(id);
    // One page per object, named by the object: the History carries no
    // object key, so the page name is what attributes an event.
    t.page_of[id] = "o" + std::to_string(id) + ".html";
  }
  {
    SpanRecorder::Scope s(t.spans, "placement.place");
    bed.place_objects(t.objects);
  }
  {
    // Secondaries finish subscribing before the seed writes, so seeds
    // reach them as page records (attributable) rather than inside
    // subscription snapshots (which name no page).
    SpanRecorder::Scope s(t.spans, "setup.settle");
    bed.settle();
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.seed");
    for (const ObjectId id : t.objects) {
      bed.primary(id).seed(id, t.page_of[id], "base-" + std::to_string(id));
    }
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.settle");
    bed.settle();
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.clients");
    for (int c = 0; c < t.p.clients; ++c) {
      t.clients.push_back(&bed.add_placed_client(t.session));
    }
  }
  SpanRecorder::Scope s(t.spans, "setup.settle");
  bed.settle();
}

/// One object behind the paper's layered store tree: primary, mirrors
/// under it, caches under the mirrors, clients on the caches.
void setup_layered(Trial& t, TestbedOptions opts,
                   const core::ReplicationPolicy& policy) {
  t.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *t.bed;
  t.objects.push_back(kHotObject);
  util::Rng content_rng(t.seed * 7919 + 13);
  for (int i = 0; i < t.p.pages; ++i) {
    t.pages.push_back("page" + std::to_string(i) + ".html");
  }
  StoreEngine* primary = nullptr;
  std::vector<net::Address> mirrors;
  {
    SpanRecorder::Scope s(t.spans, "setup.stores");
    primary = &bed.add_primary(kHotObject, policy);
    for (int i = 0; i < t.p.mirrors; ++i) {
      mirrors.push_back(bed.add_store(kHotObject,
                                      naming::StoreClass::kObjectInitiated,
                                      policy)
                            .address());
    }
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.seed");
    for (const auto& page : t.pages) {
      primary->seed(page, workload::make_content(content_rng, t.p.page_bytes));
    }
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.settle");
    bed.settle();
  }
  std::vector<net::Address> caches;
  {
    SpanRecorder::Scope s(t.spans, "setup.stores");
    for (int i = 0; i < t.p.caches; ++i) {
      caches.push_back(bed.add_store(kHotObject,
                                     naming::StoreClass::kClientInitiated,
                                     policy, mirrors[i % mirrors.size()])
                           .address());
    }
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.settle");
    bed.settle();
  }
  {
    SpanRecorder::Scope s(t.spans, "setup.clients");
    for (int i = 0; i < t.p.clients; ++i) {
      t.clients.push_back(
          &bed.add_client(kHotObject, t.session, caches[i % caches.size()]));
    }
  }
  SpanRecorder::Scope s(t.spans, "setup.settle");
  bed.settle();
}

void setup_hot_object(Trial& t, TestbedOptions opts) {
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  t.model = policy.model;
  t.session = all_guarantees();
  setup_layered(t, opts, policy);
}

/// Fraction of the run length, as a scenario-script time.
std::string at_ms(std::int64_t total_ms, double frac) {
  return std::to_string(static_cast<std::int64_t>(
             frac * static_cast<double>(total_ms))) +
         "ms";
}

void setup_churn(Trial& t, TestbedOptions opts) {
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(100);
  opts.failure_timeout = sim::SimDuration::millis(400);
  opts.client_timeout = sim::SimDuration::millis(300);
  // Enough retries to ride out a partition or a crashed store's
  // downtime: an op delayed by a fault shows in the latency tail instead
  // of failing.
  opts.client_retries = 8;
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kSequential;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  t.model = policy.model;
  t.session = all_guarantees();
  setup_layered(t, opts, policy);
  Testbed& bed = *t.bed;
  // bench_scale's churn scenario scaled to the run length T: three
  // partition/heal cycles cutting off the last mirror, rolling crashes of
  // ~10% of the stores, and a flash-crowd join near the end. Two changes
  // keep every percentile off the cliff between the healthy mode and the
  // fault mode, where it would swing from seed to seed:
  //  - partitions last 5% of T, not 10%, so under a fifth of the writes
  //    wait for a heal and the visibility median stays healthy;
  //  - only 4 of the last mirror's caches (and their clients) go with it.
  //    Cutting all 30 blocked 1-3% of the writes, right on the p99. The
  //    other 26 lose their upstream and re-parent instead.
  const std::int64_t total_ms =
      static_cast<std::int64_t>(t.p.ops * 1000.0 / t.p.rate_per_s);
  const int m = t.p.mirrors;
  std::vector<bool> side_b(static_cast<std::size_t>(1 + m + t.p.caches));
  side_b[static_cast<std::size_t>(m)] = true;  // the last mirror
  for (int i = 0, cut = 0; i < t.p.caches && cut < 4; ++i) {
    if (i % m == m - 1) {
      side_b[static_cast<std::size_t>(1 + m + i)] = true;
      ++cut;
    }
  }
  std::string a, b;
  for (std::size_t s = 0; s < side_b.size(); ++s) {
    std::string& side = side_b[s] ? b : a;
    side += (side.empty() ? "" : ",") + std::to_string(s);
  }
  std::string text;
  for (const double f : {0.10, 0.40, 0.70}) {
    text += "at " + at_ms(total_ms, f) + " partition " + a + "|" + b + "\n";
    text += "at " + at_ms(total_ms, f + 0.05) + " heal\n";
  }
  text += "at " + at_ms(total_ms, 0.52) + " churn period=" +
          at_ms(total_ms, 0.02) + " until=" + at_ms(total_ms, 0.64) +
          " down=" + at_ms(total_ms, 0.03) + " fraction=0.016\n";
  text += "at " + at_ms(total_ms, 0.85) + " join " +
          std::to_string(t.p.joiners) + "\n";
  fault::ScenarioScript script;
  std::string error;
  if (!fault::ScenarioScript::parse(text, &script, &error)) {
    std::fprintf(stderr, "churn script did not parse: %s\n", error.c_str());
    std::exit(2);
  }
  t.fault_host = std::make_unique<RecordingFaultHost>(bed);
  t.faults = std::make_unique<fault::ScenarioEngine>(std::move(script),
                                                     *t.fault_host, t.seed);
}

// ------------------------------------------------------- measured phase

std::uint64_t sum_rebinds(const Trial& t) {
  std::uint64_t n = 0;
  for (const auto* c : t.clients) n += c->rebinds();
  return n;
}

void snapshot_baselines(Trial& t) {
  Testbed& bed = *t.bed;
  bed.metrics().reset();
  t.events_before = bed.sim().events_run();
  t.net_before = bed.net().stats();
  t.rebinds_before = sum_rebinds(t);
  for (const auto& s : bed.stores()) {
    t.applies_before += s->writes_applied();
    t.resubscribes_before += s->resubscribes();
  }
  if (bed.membership_enabled()) t.members_before = bed.membership().stats();
}

void on_read_done(Trial& t, std::size_t i, const replication::ReadResult& r) {
  Op& op = t.ops[i];
  op.done_us = t.bed->sim().now().count_micros();
  op.ok = r.ok;
  if (!r.ok) return;
  SpanRecorder::Scope s(t.spans, "metrics.oracle.score", i + 1);
  const auto score = t.bed->oracle().score(
      op.key, r.store_clock, util::SimTime(op.due_us),
      t.bed->sim().now());
  ++t.scored_reads;
  if (score.versions_behind > 0) ++t.stale_reads;
}

void on_write_done(Trial& t, std::size_t i,
                   const replication::WriteResult& r) {
  Op& op = t.ops[i];
  op.done_us = t.bed->sim().now().count_micros();
  op.ok = r.ok;
  if (!r.ok) return;
  op.wid = r.wid;
  SpanRecorder::Scope s(t.spans, "metrics.oracle.commit", i + 1);
  t.bed->oracle().committed(op.key, r.wid, t.bed->sim().now());
}

void run_ops(Trial& t) {
  Testbed& bed = *t.bed;
  util::Rng rng(t.seed * 0x9E3779B97F4A7C15ull + 0xB3);
  const std::size_t n_keys =
      t.workload == "many_objects" ? t.objects.size() : t.pages.size();
  workload::ZipfGenerator zipf(n_keys, 0.9);
  util::Rng content_rng(t.seed * 31 + 7);
  const auto interval = sim::SimDuration::micros(
      static_cast<std::int64_t>(1e6 / t.p.rate_per_s));
  const util::SimTime t0 = bed.sim().now();
  if (t.faults != nullptr) t.faults->arm(bed.sim());
  t.ops.resize(static_cast<std::size_t>(t.p.ops));

  const auto start = Clock::now();
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const util::SimTime due =
        t0 + sim::SimDuration::micros(interval.count_micros() *
                                      static_cast<std::int64_t>(i));
    if (bed.sim().now() < due) {
      SpanRecorder::Scope s(t.spans, "sim.drive", i + 1);
      bed.sim().run_until(due);
    }
    const std::int64_t late = (bed.sim().now() - due).count_micros();
    if (late > t.generator_late_us) t.generator_late_us = late;

    const std::size_t ci = rng.below(t.clients.size());
    const std::size_t k = zipf.sample(rng);
    const bool write = rng.chance(t.p.write_frac);
    digest(t, ci);
    digest(t, k);
    digest(t, write ? 1 : 0);
    Op& op = t.ops[i];
    op.write = write;
    op.due_us = due.count_micros();
    std::string page;
    if (t.workload == "many_objects") {
      op.object = t.objects[k];
      page = t.page_of[op.object];
    } else {
      op.object = kHotObject;
      page = t.pages[k];
    }
    op.key = std::to_string(op.object) + "/" + page;
    ClientBinding& c = *t.clients[ci];
    if (write) {
      std::string body =
          t.p.page_bytes > 0
              ? workload::make_content(content_rng, t.p.page_bytes)
              : std::string{};
      body += "<!--" + std::to_string(i) + "-->";
      SpanRecorder::Scope s(t.spans, "replication.client.write", i + 1);
      c.write(op.object, page, body, [&t, i](replication::WriteResult r) {
        on_write_done(t, i, r);
      });
    } else {
      SpanRecorder::Scope s(t.spans, "replication.client.read", i + 1);
      c.read(op.object, page, [&t, i](replication::ReadResult r) {
        on_read_done(t, i, r);
      });
    }
  }
  {
    SpanRecorder::Scope s(t.spans, "sim.drive");
    if (t.faults != nullptr) {
      // Cover the scenario tail (recoveries, re-admissions) before the
      // final drain.
      const util::SimTime end = t0 + t.faults->duration() +
                                sim::SimDuration::seconds(3);
      if (bed.sim().now() < end) bed.sim().run_until(end);
    }
    bed.settle();
  }
  t.drive_s = seconds_since(start);
}

// -------------------------------------------------------------- verify

/// Splits a multi-object History into one History per object, keyed by
/// page name (one page per object). Snapshot applies carry no page; in
/// this workload they only occur at placement time, before any write,
/// so an empty-clock one carries no state and is dropped. Anything else
/// cannot be attributed and is reported.
std::map<ObjectId, coherence::History> split_by_object(Trial& t) {
  const coherence::History& h = t.bed->history();
  std::unordered_map<std::string, ObjectId> object_of;
  for (const auto& [id, page] : t.page_of) object_of[page] = id;
  std::map<ObjectId, coherence::History> out;
  const auto target = [&](coherence::PageId page) -> coherence::History* {
    auto it = object_of.find(h.page_name(page));
    return it == object_of.end() ? nullptr : &out[it->second];
  };
  std::size_t unattributed = 0;
  for (auto e : h.writes()) {
    coherence::History* dst = target(e.page);
    if (dst == nullptr) { ++unattributed; continue; }
    e.page = dst->intern(h.page_name(e.page));
    dst->record_write(std::move(e));
  }
  for (auto e : h.reads()) {
    coherence::History* dst = target(e.page);
    if (dst == nullptr) { ++unattributed; continue; }
    e.page = dst->intern(h.page_name(e.page));
    dst->record_read(std::move(e));
  }
  for (auto e : h.applies()) {
    if (e.page == coherence::kNoPage && e.from_snapshot &&
        e.deps.total() == 0 && e.global_seq == 0) {
      continue;
    }
    coherence::History* dst = target(e.page);
    if (dst == nullptr) { ++unattributed; continue; }
    e.page = dst->intern(h.page_name(e.page));
    dst->record_apply(std::move(e));
  }
  if (unattributed > 0) {
    t.violations.push_back(std::to_string(unattributed) +
                           " history events could not be attributed to an "
                           "object");
  }
  return out;
}

void note(Trial& t, const coherence::CheckResult& r, const char* what) {
  if (r.ok) return;
  std::string v = what;
  v += ": ";
  v += r.violations.empty() ? "failed" : r.violations.front();
  t.violations.push_back(v);
}

/// Convergence on every live store, then the object-model and session
/// checkers over the recorded history.
void verify(Trial& t) {
  Testbed& bed = *t.bed;
  SpanRecorder::Scope root(t.spans, "verify");
  const auto start = Clock::now();
  auto phase = Clock::now();
  {
    SpanRecorder::Scope s(t.spans, "coherence.converge");
    std::size_t diverged = 0;
    for (const ObjectId id : t.objects) {
      if (!bed.converged(id)) ++diverged;
    }
    if (diverged > 0) {
      t.violations.push_back(std::to_string(diverged) +
                             " objects did not converge on every live store");
    }
  }
  t.converge_s = seconds_since(phase);

  std::vector<coherence::SessionSpec> specs;
  for (const auto* c : t.clients) specs.push_back({c->id(), t.session});
  std::map<ObjectId, coherence::History> split;
  if (t.workload == "many_objects") split = split_by_object(t);
  const auto for_each_history = [&](auto&& fn) {
    if (t.workload == "many_objects") {
      for (auto& [id, h] : split) fn(h);
    } else {
      fn(bed.history());
    }
  };

  phase = Clock::now();
  {
    SpanRecorder::Scope s(t.spans, "coherence.check_model");
    for_each_history([&](const coherence::History& h) {
      note(t, coherence::check_object_model(h, t.model), "object model");
    });
  }
  t.check_model_s = seconds_since(phase);
  phase = Clock::now();
  {
    SpanRecorder::Scope s(t.spans, "coherence.check_sessions");
    for_each_history([&](const coherence::History& h) {
      for (const auto& r : coherence::check_sessions(h, specs)) {
        note(t, r, "session");
      }
    });
  }
  t.check_sessions_s = seconds_since(phase);
  t.verify_s = seconds_since(start);
}

/// Simulated microseconds from each successful write's due time until
/// every live store hosting its object (and born before the write was
/// due) applied it or applied a snapshot covering it.
std::vector<std::int64_t> visibility(Trial& t, std::size_t* uncovered) {
  SpanRecorder::Scope span(t.spans, "harness.visibility");
  const auto start = Clock::now();
  Testbed& bed = *t.bed;
  const coherence::History& h = bed.history();
  // WriteIds are per-object sessions, so an apply is matched to its op
  // by (object, wid); the object comes from the page name.
  std::map<std::pair<ObjectId, coherence::WriteId>, std::size_t> op_of;
  std::map<ObjectId, std::vector<std::size_t>> writes_of;
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const Op& op = t.ops[i];
    if (!op.write || !op.ok) continue;
    op_of[{op.object, op.wid}] = i;
    writes_of[op.object].push_back(i);
  }
  std::unordered_map<std::string, ObjectId> object_named;
  for (const auto& [id, page] : t.page_of) object_named[page] = id;
  std::unordered_map<coherence::PageId, ObjectId> object_of;  // memo
  const auto object_for = [&](coherence::PageId page) -> ObjectId {
    if (t.page_of.empty()) return kHotObject;
    auto it = object_of.find(page);
    if (it != object_of.end()) return it->second;
    auto named = object_named.find(h.page_name(page));
    const ObjectId id = named == object_named.end() ? 0 : named->second;
    object_of.emplace(page, id);
    return id;
  };

  std::vector<std::int64_t> visible_at(t.ops.size(), 0);
  std::vector<std::size_t> covering(t.ops.size(), 0);  // stores covering
  std::vector<std::size_t> expected(t.ops.size(), 0);
  const RecordingFaultHost* faults = t.fault_host.get();
  for (const auto& store : bed.stores()) {
    if (!store->alive() || store->departed()) continue;
    // Whether this store must cover write op i.
    const auto expects = [&](std::size_t i) {
      if (!store->has_object(t.ops[i].object)) return false;
      if (faults == nullptr) return true;
      const auto born = faults->born_us.find(store->id());
      return (born == faults->born_us.end() ||
              born->second <= t.ops[i].due_us) &&
             !faults->down_at(store->id(), t.ops[i].due_us);
    };
    for (const auto& [obj, idxs] : writes_of) {
      for (const std::size_t i : idxs) {
        if (expects(i)) ++expected[i];
      }
    }
    std::vector<char> seen(t.ops.size(), 0);
    const auto cover = [&](std::size_t i, std::int64_t at) {
      if (seen[i] || !expects(i)) return;
      seen[i] = 1;
      ++covering[i];
      if (at > visible_at[i]) visible_at[i] = at;
    };
    for (const coherence::ApplyEvent* e : h.store_applies(store->id())) {
      const std::int64_t at = e->at.count_micros();
      if (!e->from_snapshot) {
        auto it = op_of.find({object_for(e->page), e->wid});
        if (it != op_of.end()) cover(it->second, at);
        continue;
      }
      // A snapshot covers every write its clock includes. Snapshots name
      // no page, so they are attributable only in one-object workloads.
      if (t.workload == "many_objects") continue;
      for (const std::size_t i : writes_of[kHotObject]) {
        if (e->deps.get(t.ops[i].wid.client) >= t.ops[i].wid.seq) {
          cover(i, at);
        }
      }
    }
  }
  std::vector<std::int64_t> out;
  *uncovered = 0;
  for (const auto& [obj, idxs] : writes_of) {
    for (const std::size_t i : idxs) {
      if (covering[i] < expected[i]) {
        ++*uncovered;
        continue;
      }
      out.push_back(visible_at[i] - t.ops[i].due_us);
    }
  }
  t.visibility_s = seconds_since(start);
  return out;
}

// -------------------------------------------------------------- output

std::string snake(const char* camel) {
  std::string out;
  for (const char* c = camel; *c != '\0'; ++c) {
    if (*c >= 'A' && *c <= 'Z') {
      if (!out.empty()) out += '_';
      out += static_cast<char>(*c - 'A' + 'a');
    } else {
      out += *c;
    }
  }
  return out;
}

void print_samples(const char* name, const std::vector<std::int64_t>& v) {
  std::printf("\"%s\":[", name);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%lld", i == 0 ? "" : ",", static_cast<long long>(v[i]));
  }
  std::printf("]");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int run(const std::string& workload, std::uint64_t seed, bool tiny,
        const std::string& trace_out) {
  Trial t;
  t.workload = workload;
  t.seed = seed;
  t.p = params_for(workload, tiny);
  if (t.p.ops == 0) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const bool traced = !trace_out.empty();
  t.spans = SpanRecorder(traced);

  TestbedOptions opts;
  opts.seed = seed;
  // WAN links with uniform jitter: constant links would make every
  // percentile of a latency the same number of link hops.
  opts.wan.base_latency =
      sim::SimDuration::millis(workload == "churn" ? 5 : 20);
  opts.wan.jitter = sim::SimDuration::millis(workload == "churn" ? 5 : 10);

  const auto setup_start = Clock::now();
  t.spans.begin("testbed.setup");
  if (workload == "many_objects") {
    setup_many_objects(t, opts);
  } else if (workload == "hot_object") {
    setup_hot_object(t, opts);
  } else {
    setup_churn(t, opts);
  }
  if (traced) {
    Testbed::ObservabilityOptions oo;
    oo.trace_capacity = 1 << 18;
    oo.sample_every = 1;
    t.bed->enable_observability(oo);
  }
  snapshot_baselines(t);
  t.spans.end();
  t.setup_s = seconds_since(setup_start);

  t.spans.begin("workload.run");
  run_ops(t);
  t.spans.end();

  Testbed& bed = *t.bed;
  // Counters of the measured phase, read before verification touches
  // anything.
  const std::uint64_t sim_events = bed.sim().events_run() - t.events_before;
  const sim::TrafficStats net = bed.net().stats();
  const auto& sink = bed.metrics();
  std::uint64_t applies = 0, resubscribes = 0, log_bytes = 0;
  for (const auto& s : bed.stores()) {
    applies += s->writes_applied();
    resubscribes += s->resubscribes();
    if (!s->alive() || s->departed()) continue;
    for (const ObjectId id : s->object_ids()) {
      log_bytes += s->write_log(id).retained_bytes();
    }
  }
  applies -= t.applies_before;
  resubscribes -= t.resubscribes_before;
  membership::MembershipStats members;
  if (bed.membership_enabled()) members = bed.membership().stats();
  fault::ScenarioStats faults;
  if (t.faults != nullptr) faults = t.faults->stats();
  double prop_first_p50 = 0, prop_last_p99 = 0;
  std::size_t prop_n = 0;
  if (traced) {
    (void)bed.harvest_propagation();
    prop_n = sink.propagation_first_us().count();
    prop_first_p50 = sink.propagation_first_us().p50();
    prop_last_p99 = sink.propagation_last_us().p99();
  }

  verify(t);
  std::size_t uncovered = 0;
  const std::vector<std::int64_t> visible = visibility(t, &uncovered);
  if (uncovered > 0) {
    t.violations.push_back(std::to_string(uncovered) +
                           " writes never covered on a live store");
  }

  std::uint64_t by_type_msgs = 0, by_type_bytes = 0;
  for (const auto& [type, tr] : sink.traffic_by_type()) {
    by_type_msgs += tr.messages;
    by_type_bytes += tr.bytes;
  }
  if (by_type_msgs != sink.total_traffic().messages ||
      by_type_bytes != sink.total_traffic().bytes) {
    t.violations.push_back("per-type traffic does not sum to the total");
  }
  const std::uint64_t net_msgs = net.messages_sent - t.net_before.messages_sent;
  const std::uint64_t net_bytes = net.bytes_sent - t.net_before.bytes_sent;
  if (sink.total_traffic().messages > net_msgs) {
    t.violations.push_back("endpoints sent more messages than the wire saw");
  }

  std::vector<std::int64_t> read_lat, write_lat;
  std::uint64_t failed = 0;
  for (const Op& op : t.ops) {
    // A failed or unanswered op is recorded as -1: it missed every limit.
    const std::int64_t lat = op.ok && op.done_us >= 0 ? op.done_us - op.due_us
                                                      : -1;
    if (lat < 0) ++failed;
    (op.write ? write_lat : read_lat).push_back(lat);
  }

  if (traced && !t.spans.write_chrome(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 2;
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"size\":\"%s\",",
              workload.c_str(), static_cast<unsigned long long>(seed),
              tiny ? "tiny" : "full");
  std::printf("\"traced\":%s,\"spans\":%zu,", traced ? "true" : "false",
              t.spans.size());
#ifdef GLOBE_CHECKED
  const bool checked = true;
#else
  const bool checked = false;
#endif
  std::printf("\"build\":{\"globe_checked\":%s,\"compiler\":\"%s\","
              "\"flags\":\"%s\",\"build_type\":\"%s\"},",
              checked ? "true" : "false", json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(PERFBENCH_CXX_FLAGS).c_str(),
              json_escape(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("\"stores\":%zu,\"clients\":%zu,\"objects\":%zu,",
              bed.stores().size(), t.clients.size(), t.objects.size());
  std::printf("\"input_digest\":\"%016llx\",",
              static_cast<unsigned long long>(t.input_digest));
  std::printf("\"wall\":{\"setup_s\":%.6f,\"drive_s\":%.6f,\"verify_s\":%.6f,"
              "\"converge_s\":%.6f,\"check_model_s\":%.6f,"
              "\"check_sessions_s\":%.6f,\"visibility_s\":%.6f,"
              "\"peak_rss_mb\":%.3f},",
              t.setup_s, t.drive_s, t.verify_s, t.converge_s, t.check_model_s,
              t.check_sessions_s, t.visibility_s, peak_rss_mb());
  std::printf("\"ops\":{\"attempted\":%zu,\"failed\":%llu,"
              "\"generator_late_us\":%lld,\"stale_reads\":%llu,"
              "\"scored_reads\":%llu},",
              t.ops.size(), static_cast<unsigned long long>(failed),
              static_cast<long long>(t.generator_late_us),
              static_cast<unsigned long long>(t.stale_reads),
              static_cast<unsigned long long>(t.scored_reads));
  std::printf("\"lat_us\":{");
  print_samples("read", read_lat);
  std::printf(",");
  print_samples("write", write_lat);
  std::printf(",");
  print_samples("visible", visible);
  std::printf("},");
  std::printf("\"prop\":{\"writes\":%zu,\"first_p50_us\":%.3f,"
              "\"last_p99_us\":%.3f},",
              prop_n, prop_first_p50, prop_last_p99);
  std::printf("\"sink_mean_us\":{\"read\":%.3f,\"write\":%.3f},",
              sink.read_latency_us().mean(), sink.write_latency_us().mean());
  std::printf("\"traffic\":{\"net_msgs\":%llu,\"net_bytes\":%llu,"
              "\"net_dropped\":%llu,\"sink_msgs\":%llu,\"sink_bytes\":%llu,"
              "\"by_type\":{",
              static_cast<unsigned long long>(net_msgs),
              static_cast<unsigned long long>(net_bytes),
              static_cast<unsigned long long>(net.messages_dropped -
                                              t.net_before.messages_dropped),
              static_cast<unsigned long long>(sink.total_traffic().messages),
              static_cast<unsigned long long>(sink.total_traffic().bytes));
  bool first = true;
  for (const auto& [type, tr] : sink.traffic_by_type()) {
    std::printf("%s\"%s\":[%llu,%llu]", first ? "" : ",",
                snake(msg::to_string(static_cast<msg::MsgType>(type))).c_str(),
                static_cast<unsigned long long>(tr.messages),
                static_cast<unsigned long long>(tr.bytes));
    first = false;
  }
  std::printf("}},");
  std::printf(
      "\"counts\":{\"sim_events\":%llu,\"rebinds\":%llu,\"demands\":%llu,"
      "\"waits\":%llu,\"applies\":%llu,\"resubscribes\":%llu,"
      "\"log_retained_bytes\":%llu,\"log_compactions\":%llu,"
      "\"delta_transfers\":%llu,\"full_transfers\":%llu,"
      "\"snapshot_pages\":%llu,\"view_changes\":%llu,\"evictions\":%llu,"
      "\"rejoins\":%llu,\"horizon_advances\":%llu,\"crashes\":%llu,"
      "\"partitions\":%llu,\"history_events\":%zu},",
      static_cast<unsigned long long>(sim_events),
      static_cast<unsigned long long>(sum_rebinds(t) - t.rebinds_before),
      static_cast<unsigned long long>(sink.session_demands()),
      static_cast<unsigned long long>(sink.session_waits()),
      static_cast<unsigned long long>(applies),
      static_cast<unsigned long long>(resubscribes),
      static_cast<unsigned long long>(log_bytes),
      static_cast<unsigned long long>(sink.log_compactions()),
      static_cast<unsigned long long>(sink.delta_snapshots()),
      static_cast<unsigned long long>(sink.full_snapshots()),
      static_cast<unsigned long long>(sink.snapshot_pages_shipped()),
      static_cast<unsigned long long>(members.view_changes -
                                      t.members_before.view_changes),
      static_cast<unsigned long long>(members.evictions -
                                      t.members_before.evictions),
      static_cast<unsigned long long>(members.rejoins -
                                      t.members_before.rejoins),
      static_cast<unsigned long long>(sink.horizon_advances()),
      static_cast<unsigned long long>(faults.crashes),
      static_cast<unsigned long long>(faults.partitions),
      bed.history().size());
  std::printf("\"violations\":[");
  for (std::size_t i = 0; i < t.violations.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",",
                json_escape(t.violations[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  bool tiny = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--size") {
      tiny = val == "tiny";
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return perfbench::run(workload, seed, tiny, trace_out);
}
