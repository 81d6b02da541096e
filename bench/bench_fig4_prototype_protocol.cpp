// FIG4 — Figure 4 of the paper: the Globe implementation of the
// conference example (message flow between client M/U local objects,
// cache M/U, and the Web server's replication objects).
//
// Reproduces the deployment and reports the protocol-level picture the
// figure draws: message counts by type, WiD buffering at the PRAM
// orderers, and how the server's multicast push fans out.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace globe::bench {
namespace {

void emit_table() {
  TestbedOptions opts;
  Testbed bed(opts);
  constexpr ObjectId kConf = 1;
  auto policy = core::ReplicationPolicy::conference_example();
  policy.lazy_period = sim::SimDuration::seconds(1);

  auto& server = bed.add_primary(kConf, policy, "web-server");
  server.seed("program.html", "TBD");
  auto& cache_m = bed.add_store(kConf, naming::StoreClass::kClientInitiated,
                                policy, {}, "cache-M");
  std::vector<net::Address> user_caches;
  for (int i = 0; i < 3; ++i) {
    user_caches.push_back(bed.add_store(kConf,
                                        naming::StoreClass::kClientInitiated,
                                        policy, {}, "cache-U" +
                                            std::to_string(i))
                              .address());
  }
  bed.settle();
  bed.metrics().reset();

  auto& master = bed.add_client(kConf, coherence::ClientModel::kReadYourWrites,
                                cache_m.address(), server.address());
  std::vector<replication::ClientBinding*> users;
  for (const auto& addr : user_caches) {
    users.push_back(&bed.add_client(kConf, coherence::ClientModel::kNone,
                                    addr));
  }

  // The Section 4 interaction pattern: incremental master updates with
  // immediate proof-reads; users browsing continuously.
  util::Rng rng(17);
  for (int round = 0; round < 25; ++round) {
    master.write("program.html", "update-" + std::to_string(round),
                 [](replication::WriteResult) {});
    bed.run_for(sim::SimDuration::millis(80));
    master.read("program.html", [](replication::ReadResult) {});
    for (auto* u : users) {
      u->read("program.html", [](replication::ReadResult) {});
      bed.run_for(sim::SimDuration::millis(60 + rng.below(100)));
    }
  }
  bed.settle();

  metrics::TablePrinter table({"message type", "count", "bytes", "role"});
  const char* roles[] = {
      "",                                    // padding for index alignment
  };
  (void)roles;
  auto role_of = [](msg::MsgType t) -> const char* {
    switch (t) {
      case msg::MsgType::kInvokeRequest: return "client -> local object";
      case msg::MsgType::kInvokeReply: return "store -> client";
      case msg::MsgType::kUpdate: return "server multicast push (WiD-tagged)";
      case msg::MsgType::kFetchRequest: return "cache M demand-update (RYW)";
      case msg::MsgType::kFetchReply: return "server -> cache M";
      case msg::MsgType::kSubscribe: return "cache joins propagation";
      case msg::MsgType::kSubscribeAck: return "initial state transfer";
      default: return "";
    }
  };
  for (const auto& [type, traffic] : bed.metrics().traffic_by_type()) {
    table.add_row({msg::to_string(static_cast<msg::MsgType>(type)),
                   metrics::TablePrinter::num(traffic.messages),
                   metrics::TablePrinter::num(traffic.bytes),
                   role_of(static_cast<msg::MsgType>(type))});
  }
  std::printf(
      "FIG4 — protocol traffic of the Globe prototype implementation\n"
      "(Figure 4): 1 Web server, cache-M + 3 user caches, 25 incremental\n"
      "master updates with RYW proof-reads, continuous user browsing,\n"
      "1s periodic multicast push\n\n%s\n",
      table.render().c_str());

  std::printf("Final PRAM version state (expected_write per client):\n");
  std::printf("  server applied clock : %s\n",
              server.applied_clock(kConf).str().c_str());
  std::printf("  cache-M applied clock: %s\n",
              cache_m.applied_clock(kConf).str().c_str());
  std::printf("Converged: %s\n", bed.converged(kConf) ? "yes" : "no");
}

void BM_PramAdmitDrain(benchmark::State& state) {
  // The WiD buffering path of Figure 4's replication objects: admit a
  // batch of out-of-order writes and drain them.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    replication::PramOrderer orderer;
    std::vector<web::WriteRecord> ready;
    for (int i = n; i >= 1; --i) {  // worst case: fully reversed
      web::WriteRecord rec;
      rec.wid = {1, static_cast<std::uint64_t>(i)};
      rec.page = "p";
      orderer.admit(std::move(rec), ready);
    }
    benchmark::DoNotOptimize(ready);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PramAdmitDrain)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace globe::bench

int main(int argc, char** argv) {
  globe::bench::emit_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
