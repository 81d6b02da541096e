// Partition/heal convergence matrix: every coherence model runs the
// same scripted scenario — partition the deployment into two sides,
// issue writes on both sides, heal — and must (a) converge and (b) pass
// the checkers (object model + all four session guarantees)
// with clean verdicts. Multi-master models accept the minority side's
// writes locally and reconcile them through the membership-driven
// resync (re-admission -> re-subscribe -> anti-entropy); single-master
// models fail the cut-off writes cleanly and converge on the majority's
// history.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using coherence::ObjectModel;

constexpr ObjectId kObj = 1;

struct MatrixParam {
  ObjectModel model;
  bool pull = false;  // anti-entropy / poll instead of push
};

std::string param_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string name = coherence::to_string(info.param.model);
  for (char& c : name) {
    if (c == '-' || c == ' ') c = '_';
  }
  return name + (info.param.pull ? "_pull" : "_push");
}

class PartitionMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PartitionMatrix, PartitionWritesBothSidesHealConverges) {
  const MatrixParam param = GetParam();

  TestbedOptions opts;
  opts.seed = 41 + static_cast<std::uint64_t>(param.model);
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(250);
  opts.client_retries = 1;
  Testbed bed(opts);

  core::ReplicationPolicy policy;
  policy.model = param.model;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  if (param.model == ObjectModel::kCausal ||
      param.model == ObjectModel::kEventual) {
    policy.write_set = core::WriteSet::kMultiple;
  }
  if (param.pull) {
    policy.initiative = core::TransferInitiative::kPull;
    policy.lazy_period = sim::SimDuration::millis(50);
  }

  // Deployment: primary + two mirrors, one cache under each mirror.
  // Store indices: 0=primary, 1=mirror-a, 2=mirror-b, 3=cache-a,
  // 4=cache-b. Side A {0,1,3} keeps the primary and the services; side
  // B {2,4} is evicted during the partition and re-admitted after.
  auto& primary = bed.add_primary(kObj, policy);
  const int kPages = 6;
  for (int i = 0; i < kPages; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", "seed");
  }
  auto& mirror_a =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  auto& mirror_b =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  auto& cache_a = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                policy, mirror_a.address());
  auto& cache_b = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                policy, mirror_b.address());
  bed.settle();

  // Writes-follow-reads needs a cross-writer apply order: the causal
  // orderer enforces dependencies (session_test exercises WFR "under
  // causal deps") and the sequential total order subsumes them. The
  // PRAM family and eventual coherence only promise per-writer order —
  // churn-driven resyncs legitimately reorder across writers — so their
  // clients hold MW/RYW/MR but not WFR.
  auto session = ClientModel::kMonotonicWrites |
                 ClientModel::kReadYourWrites | ClientModel::kMonotonicReads;
  if (param.model == ObjectModel::kSequential ||
      param.model == ObjectModel::kCausal) {
    session = session | ClientModel::kWritesFollowReads;
  }
  auto& client_a = bed.add_client(kObj, session, cache_a.address());
  auto& client_b = bed.add_client(kObj, session, cache_b.address());
  bed.run_for(sim::SimDuration::millis(200));

  fault::ScenarioScript script;
  std::string error;
  ASSERT_TRUE(fault::ScenarioScript::parse("at 200ms partition 0,1,3|2,4\n"
                                           "at 2200ms heal\n",
                                           &script, &error))
      << error;
  TestbedFaultHost host(bed);
  fault::ScenarioEngine engine(script, host, opts.seed);
  engine.arm(bed.sim());

  // Workload spanning before, during, and after the partition: both
  // clients write their own pages and read a shared one.
  std::size_t acked_writes = 0;
  std::size_t failed_writes = 0;
  const auto count = [&](WriteResult r) {
    if (r.ok) {
      ++acked_writes;
    } else {
      ++failed_writes;
    }
  };
  for (int i = 0; i < 30; ++i) {
    client_a.write("page0.html", "a" + std::to_string(i), count);
    client_b.write("page1.html", "b" + std::to_string(i), count);
    client_a.read("page2.html", [](ReadResult) {});
    client_b.read("page2.html", [](ReadResult) {});
    bed.run_for(sim::SimDuration::millis(100));
  }
  // Let heartbeats re-admit side B, resubscribes and resyncs drain.
  bed.run_for(sim::SimDuration::seconds(3));
  bed.settle();

  EXPECT_GT(acked_writes, 0u);
  if (param.model == ObjectModel::kCausal ||
      param.model == ObjectModel::kEventual) {
    // Multi-master: the minority side accepted writes locally during
    // the partition; nothing should have failed.
    EXPECT_EQ(failed_writes, 0u);
  }

  // (a) Convergence: every store still in the replica set equals the
  // primary.
  EXPECT_TRUE(bed.converged(kObj))
      << "model=" << coherence::to_string(param.model);
  EXPECT_TRUE(cache_b.document(kObj) == primary.document(kObj));
  EXPECT_TRUE(mirror_b.document(kObj) == primary.document(kObj));

  // (b) Clean verdicts from the checkers.
  const auto object_verdict =
      coherence::check_object_model(bed.history(), param.model);
  EXPECT_TRUE(object_verdict.ok) << object_verdict.summary();
  const std::vector<coherence::SessionSpec> specs = {
      {client_a.id(), session}, {client_b.id(), session}};
  for (const auto& result : coherence::check_sessions(bed.history(), specs)) {
    EXPECT_TRUE(result.ok) << result.summary();
  }

  // The partition actually bit: side B was evicted and re-admitted.
  EXPECT_GE(bed.membership().stats().evictions, 1u);
  EXPECT_GE(bed.membership().stats().rejoins, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PartitionMatrix,
    ::testing::Values(MatrixParam{ObjectModel::kSequential},
                      MatrixParam{ObjectModel::kPram},
                      MatrixParam{ObjectModel::kFifoPram},
                      MatrixParam{ObjectModel::kCausal},
                      MatrixParam{ObjectModel::kEventual},
                      MatrixParam{ObjectModel::kEventual, /*pull=*/true}),
    param_name);

}  // namespace
}  // namespace globe::replication
