// Shared whiteboard: the paper's motivating case for strong coherence
// (Section 3.2.1 — "a groupware editor requires strong coherence at
// every store layer"). Several users draw concurrently through
// different replicas; sequential coherence gives them one agreed order.
//
// Build & run:   ./build/examples/example_shared_whiteboard
#include <cstdio>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

using namespace globe;
using replication::ClientModel;
using replication::Testbed;

int main() {
  std::printf("== Shared whiteboard (sequential coherence) ==\n\n");

  auto policy = core::ReplicationPolicy::groupware_sequential();
  std::printf("Strategy:\n%s\n\n", policy.describe().c_str());

  Testbed bed;
  constexpr ObjectId kBoard = 1;
  bed.add_primary(kBoard, policy, "board-server");
  auto& replica_eu = bed.add_store(
      kBoard, naming::StoreClass::kObjectInitiated, policy, {}, "replica-eu");
  auto& replica_us = bed.add_store(
      kBoard, naming::StoreClass::kObjectInitiated, policy, {}, "replica-us");
  bed.settle();

  auto& alice = bed.add_client(kBoard, ClientModel::kNone,
                               replica_eu.address());
  auto& bob = bed.add_client(kBoard, ClientModel::kNone,
                             replica_us.address());

  // Both users scribble on the same page concurrently.
  std::printf("Alice and Bob draw 6 strokes each, concurrently, via\n"
              "different replicas...\n");
  for (int i = 0; i < 6; ++i) {
    alice.write("canvas", "alice-stroke-" + std::to_string(i),
                [i](replication::WriteResult r) {
                  std::printf("  alice stroke %d -> global seq %llu\n", i,
                              static_cast<unsigned long long>(r.global_seq));
                });
    bob.write("canvas", "bob-stroke-" + std::to_string(i),
              [i](replication::WriteResult r) {
                std::printf("  bob   stroke %d -> global seq %llu\n", i,
                            static_cast<unsigned long long>(r.global_seq));
              });
  }
  bed.settle();

  std::printf("\nBoth replicas now show the SAME final stroke:\n");
  std::printf("  replica-eu: \"%s\"\n",
              replica_eu.document(kBoard).get("canvas")->content.c_str());
  std::printf("  replica-us: \"%s\"\n",
              replica_us.document(kBoard).get("canvas")->content.c_str());

  const auto res = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kSequential);
  std::printf("\nSequential-coherence check over the full history: %s\n",
              res.summary().c_str());
  std::printf("Converged: %s\n", bed.converged(kBoard) ? "yes" : "no");
  return res.ok ? 0 : 1;
}
