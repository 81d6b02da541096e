// The paper's Section 4 example, end to end: a conference home page as
// a distributed shared object.
//
//   * Web master (client M) incrementally updates the page, writing
//     directly to the Web server and reading through its own cache M;
//   * interested participants (clients U) read through cache U;
//   * object-based coherence: PRAM at every store layer;
//   * client-based coherence for the master: Read Your Writes;
//   * Table 2 parameters: update propagation, push, lazy (periodic),
//     full access transfer, partial coherence transfer,
//     object-outdate reaction wait, client-outdate reaction demand.
//
// Build & run:   ./build/examples/example_conference_site
#include <cstdio>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

using namespace globe;
using replication::ClientModel;
using replication::Testbed;

int main() {
  std::printf("== ICDCS'98 conference home page (paper Section 4) ==\n\n");

  auto policy = core::ReplicationPolicy::conference_example();
  policy.lazy_period = sim::SimDuration::seconds(5);  // periodic push: 5s
  std::printf("Table 2 replication strategy:\n%s\n\n",
              policy.describe().c_str());

  Testbed bed;
  constexpr ObjectId kConf = 1;
  auto& server = bed.add_primary(kConf, policy, "web-server");
  server.seed("index.html", "ICDCS'98, May 1998, Amsterdam");
  server.seed("program.html", "Technical program: TBD");
  server.seed("registration.html", "Registration opens soon");
  auto& cache_m = bed.add_store(kConf, naming::StoreClass::kClientInitiated,
                                policy, {}, "cache-M");
  auto& cache_u = bed.add_store(kConf, naming::StoreClass::kClientInitiated,
                                policy, {}, "cache-U");
  bed.settle();

  // Client M: the Web master. Writes go directly to the Web server;
  // reads come from cache M, protected by Read Your Writes + demand.
  auto& master = bed.add_client(kConf, ClientModel::kReadYourWrites,
                                cache_m.address(), server.address());
  // Client U: a participant reading via cache U.
  auto& user = bed.add_client(kConf, ClientModel::kNone, cache_u.address());

  auto show = [](const char* who, const replication::ReadResult& r) {
    std::printf("  %-8s reads program.html -> \"%s\" (%.1f ms)\n", who,
                r.content.c_str(), r.latency().count_millis());
  };

  std::printf("[t=%.1fs] Master posts the keynote announcement (writes\n"
              "         directly to the Web server, WiD tagged):\n",
              bed.sim().now().count_seconds());
  master.write("program.html", "Keynote: A.S. Tanenbaum — Globe",
               [&](replication::WriteResult r) {
                 std::printf("  write %s acked by the server, gseq=%llu\n",
                             r.wid.str().c_str(),
                             static_cast<unsigned long long>(r.global_seq));
               });
  bed.run_for(sim::SimDuration::millis(300));

  std::printf("\n[t=%.1fs] Master immediately proof-reads via cache M.\n"
              "         The periodic push (5s) has not fired yet, so cache M\n"
              "         detects the RYW violation and DEMANDS the update:\n",
              bed.sim().now().count_seconds());
  master.read("program.html",
              [&](replication::ReadResult r) { show("master", r); });
  bed.run_for(sim::SimDuration::millis(500));
  std::printf("  (session demand-updates so far: %llu)\n",
              static_cast<unsigned long long>(bed.metrics().session_demands()));

  std::printf("\n[t=%.1fs] Participant reads via cache U — PRAM only, no\n"
              "         session guarantee, so the stale copy is acceptable:\n",
              bed.sim().now().count_seconds());
  user.read("program.html",
            [&](replication::ReadResult r) { show("user", r); });
  bed.run_for(sim::SimDuration::millis(300));

  std::printf("\n[t=%.1fs] ... the periodic push fires ...\n",
              bed.sim().now().count_seconds());
  bed.run_for(sim::SimDuration::seconds(6));

  std::printf("[t=%.1fs] Participant reads again — the update arrived with\n"
              "         the aggregated periodic push:\n",
              bed.sim().now().count_seconds());
  user.read("program.html",
            [&](replication::ReadResult r) { show("user", r); });
  bed.settle();

  // Verify the coherence models actually held over the whole run.
  const auto pram = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kPram);
  const auto ryw = coherence::check_client_models(
      bed.history(), master.id(), ClientModel::kReadYourWrites);
  std::printf("\nCoherence verification over the recorded history:\n");
  std::printf("  object-based PRAM : %s\n", pram.summary().c_str());
  std::printf("  master RYW        : %s\n", ryw.summary().c_str());

  const auto& t = bed.metrics().total_traffic();
  std::printf("\nTraffic: %llu messages / %llu bytes; converged: %s\n",
              static_cast<unsigned long long>(t.messages),
              static_cast<unsigned long long>(t.bytes),
              bed.converged(kConf) ? "yes" : "no");
  return pram.ok && ryw.ok ? 0 : 1;
}
