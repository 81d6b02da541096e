// Web forum with causal coherence: the paper's newsgroup example
// (Section 3.2.1) — "a participant's reaction makes sense only if the
// audience has received the message that triggered the reaction."
//
// Articles and replies are written at *different* stores by different
// participants (multi-master); causal dependency tracking guarantees no
// store ever shows a reply before the article it answers.
//
// Build & run:   ./build/examples/example_news_forum
#include <cstdio>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

using namespace globe;
using replication::ClientModel;
using replication::Testbed;

int main() {
  std::printf("== Web forum (causal coherence, multi-master) ==\n\n");

  auto policy = core::ReplicationPolicy::forum_causal();
  std::printf("Strategy:\n%s\n\n", policy.describe().c_str());

  Testbed bed;
  constexpr ObjectId kForum = 1;
  bed.add_primary(kForum, policy, "forum-hub");
  auto& site_a = bed.add_store(kForum, naming::StoreClass::kObjectInitiated,
                               policy, {}, "site-a");
  auto& site_b = bed.add_store(kForum, naming::StoreClass::kObjectInitiated,
                               policy, {}, "site-b");
  bed.settle();

  // Poster writes at site A; replier reads at A but posts at site B.
  auto& poster =
      bed.add_client(kForum, ClientModel::kNone, site_a.address(),
                     site_a.address());
  auto& replier =
      bed.add_client(kForum, ClientModel::kNone, site_a.address(),
                     site_b.address());

  std::printf("poster: writes the article at site-a\n");
  poster.write("msg-001", "Why per-object coherence strategies?",
               [](replication::WriteResult) {});
  bed.settle();

  std::printf("replier: reads the article at site-a, then posts the\n"
              "         reply at site-b (a causally dependent write)\n");
  replier.read("msg-001", [](replication::ReadResult r) {
    std::printf("  read article: \"%s\"\n", r.content.c_str());
  });
  bed.settle();
  replier.write("msg-002", "Because one size does not fit all Web pages.",
                [](replication::WriteResult r) {
                  std::printf("  reply posted, deps carried: yes (%s)\n",
                              r.wid.str().c_str());
                });
  bed.settle();

  std::printf("\nEvery store that shows the reply also shows the article:\n");
  for (const auto& s : bed.stores()) {
    const bool has_article = s->document(kForum).has("msg-001");
    const bool has_reply = s->document(kForum).has("msg-002");
    std::printf("  store %u: article=%s reply=%s\n", s->id(),
                has_article ? "yes" : "no ", has_reply ? "yes" : "no ");
  }

  const auto res = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kCausal);
  std::printf("\nCausal-coherence check: %s\n", res.summary().c_str());
  std::printf("Converged: %s\n", bed.converged(kForum) ? "yes" : "no");
  return res.ok ? 0 : 1;
}
