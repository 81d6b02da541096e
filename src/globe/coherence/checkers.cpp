#include "globe/coherence/checkers.hpp"

#include "globe/coherence/streaming.hpp"

namespace globe::coherence {

std::string CheckResult::summary(std::size_t max_lines) const {
  if (ok) {
    return "OK (" + std::to_string(events_checked) + " events checked)";
  }
  std::string out = std::to_string(violations.size()) + " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < max_lines; ++i) {
    out += "\n  " + violations[i];
  }
  if (violations.size() > max_lines) {
    out += "\n  ... (" + std::to_string(violations.size() - max_lines) +
           " more)";
  }
  return out;
}

namespace {

/// Replays a retained History into a StreamingChecker with no horizon
/// (nothing is retired). Every client's ops go first, each client in
/// client_ops() order — the order the checker's own re-check sorts
/// into, so op-index ties need no buffered read clocks — and then every
/// apply in record order, so each flagged client's writes are known
/// before any store applies them.
StreamingChecker replay(const History& h, ObjectModel model,
                        const std::vector<SessionSpec>& specs) {
  StreamingChecker sc(model);
  for (const SessionSpec& spec : specs) sc.add_session(spec);
  for (PageId id = 1; id < h.pages_interned(); ++id) {
    sc.note_page(id, h.page_name(id));
  }
  for (ClientId c : h.clients()) {
    for (const History::ClientOp& op : h.client_ops(c)) {
      if (op.is_write) {
        sc.record_write(*op.write);
      } else {
        sc.record_read(*op.read);
      }
    }
  }
  for (const ApplyEvent& a : h.applies()) sc.record_apply(a);
  return sc;
}

}  // namespace

CheckResult check_object_model(const History& h, ObjectModel model) {
  return replay(h, model, {}).model_result();
}

std::vector<CheckResult> check_sessions(
    const History& h, const std::vector<SessionSpec>& specs) {
  // The model verdict is discarded. The eventual model is the cheapest to
  // carry along: it only tracks each store's final write per page and
  // builds no diagnostics until model_result() is asked for.
  return replay(h, ObjectModel::kEventual, specs).session_results();
}

CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models) {
  return check_sessions(h, {SessionSpec{client, models}}).front();
}

}  // namespace globe::coherence
