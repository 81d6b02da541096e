// Coherence checkers.
//
// The checkers take a recorded History and verify one coherence model
// from the paper. They return a CheckResult listing every violation found
// (not just the first), which makes property-test failures diagnosable.
//
// Object-based models (Section 3.2.1), via check_object_model:
//   PRAM        — per-writer order, contiguous, at every store
//   FIFO-PRAM   — per-writer order, gaps allowed (stale discarded)
//   causal      — store apply order is a linear extension of the
//                 dependency (vector-clock) order
//   sequential  — all stores apply one total order; client reads
//                 respect that order and their own program order
//   eventual    — every store settles on the same final write per page
//                 (quiescent delivery)
//
// Client-based models (Section 3.2.2), verified per flagged client via
// check_sessions / check_client_models: monotonic writes, read your
// writes, monotonic reads, writes follow reads.
//
// One implementation: the post-hoc entry points replay the retained
// History into a StreamingChecker (streaming.hpp) with no horizon, so
// a live check-as-you-record run and an end-of-run check share every
// line of checking logic. The seed implementations are retained under
// `coherence::naive` (driven by the History's full-scan views) as the
// independent oracle: tests and `bench_scale` gate every verdict —
// clean and corrupted histories alike — against them.
#pragma once

#include <string>
#include <vector>

#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

struct CheckResult {
  bool ok = true;
  std::vector<std::string> violations;
  std::size_t events_checked = 0;

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }

  /// Merges another result into this one.
  void merge(const CheckResult& other) {
    ok = ok && other.ok;
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
    events_checked += other.events_checked;
  }

  friend bool operator==(const CheckResult&, const CheckResult&) = default;

  [[nodiscard]] std::string summary(std::size_t max_lines = 5) const;
};

/// Verifies the object-based coherence `model` over the whole history.
CheckResult check_object_model(const History& h, ObjectModel model);

/// One client's session-guarantee request for check_sessions.
struct SessionSpec {
  ClientId client = 0;
  ClientModel models = ClientModel::kNone;
};

/// Verifies every spec'd client's session guarantees in one replay of
/// the history. Returns one CheckResult per spec, in spec order, each
/// merging its guarantees' results in MW, RYW, MR, WFR order. At most
/// one spec per client: a repeated client aborts.
std::vector<CheckResult> check_sessions(const History& h,
                                        const std::vector<SessionSpec>& specs);

/// Checks every client-based guarantee in `models` for `client`.
CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models);

// -- Oracle ---------------------------------------------------------------
// The seed checker implementations, one walk per model and per client
// guarantee over the History's full-scan views (O(clients × events) for
// the session guarantees). They share no code with the StreamingChecker
// and are the reference every verdict gate compares against.
namespace naive {

CheckResult check_pram(const History& h);
CheckResult check_fifo_pram(const History& h);
CheckResult check_causal(const History& h);
CheckResult check_sequential(const History& h);
CheckResult check_eventual_delivery(const History& h);
CheckResult check_object_model(const History& h, ObjectModel model);

CheckResult check_monotonic_writes(const History& h, ClientId client);
CheckResult check_read_your_writes(const History& h, ClientId client);
CheckResult check_monotonic_reads(const History& h, ClientId client);
CheckResult check_writes_follow_reads(const History& h, ClientId client);
CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models);

}  // namespace naive

}  // namespace globe::coherence
