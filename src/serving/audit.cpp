#include "serving/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "metrics/export.h"

namespace serve::serving {

namespace {

std::string format_time(sim::Time t) {
  std::ostringstream os;
  os << sim::to_seconds(t) << "s";
  return os.str();
}

}  // namespace

void RequestAuditor::on_submit(Request& req) {
  ++submitted_;
  AuditState& st = req.audit;
  if (st.phase != AuditState::Phase::kUnseen) {
    add_violation(req.id, "duplicate-submit",
                  "request submitted more than once (arrival " + format_time(req.arrival) + ")");
  }
  st = AuditState{.phase = AuditState::Phase::kInFlight, .covered_to = req.arrival};
  // Sampling fate: adopt the incoming context when the client pre-filled one
  // (retry chaining / cascade hops keep the original trace's decision so a
  // trace is never truncated mid-tree); otherwise the deterministic sampler
  // decides from the request id alone, independent of scheduling. The
  // assigned context is written back so downstream spans attach to it.
  bool sampled = false;
  if (causal_ != nullptr && req.trace_ctx.valid()) {
    sampled = req.trace_ctx.sampled;
    req.trace_ctx = causal_->child_of(req.trace_ctx);
  } else {
    sampled = (trace_ != nullptr || causal_ != nullptr) && sampler_.sample(req.id);
    if (causal_ != nullptr) req.trace_ctx = causal_->begin_trace(sampled);
  }
  st.traced = sampled && trace_ != nullptr;
  req.observer = this;
}

void RequestAuditor::on_charge(Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                               std::string_view blame) noexcept {
  AuditState& st = req.audit;
  if (st.phase != AuditState::Phase::kInFlight) {
    add_violation(req.id, "charge-after-completion",
                  std::string(metrics::stage_name(s)) + " charged at " + format_time(end) +
                      " on a request no longer in flight");
    return;
  }
  if (dt < 0) {
    add_violation(req.id, "negative-charge",
                  std::string(metrics::stage_name(s)) + " charged a negative duration at " +
                      format_time(end));
    return;
  }
  const sim::Time begin = std::max<sim::Time>(end - dt, 0);
  st.charged = true;
  if (begin > st.covered_to && begin - st.covered_to > st.max_gap) {
    st.max_gap = begin - st.covered_to;
    st.gap_stage = s;
  }
  st.covered_to = std::max(st.covered_to, end);
  if (st.traced && dt > 0) {
    sim::SpanArgs args;
    if (!blame.empty()) args.emplace_back("blame", std::string(blame));
    if (causal_ != nullptr) {
      causal_->child_span(req.trace_ctx, "req." + std::to_string(req.id),
                          std::string(metrics::stage_name(s)), begin, end, std::move(args));
    } else {
      trace_->span("req." + std::to_string(req.id), std::string(metrics::stage_name(s)), begin,
                   end, std::move(args));
    }
  }
}

void RequestAuditor::on_complete(Request& req) {
  AuditState& st = req.audit;
  if (st.phase != AuditState::Phase::kInFlight) {
    const bool twice = st.phase == AuditState::Phase::kDone;
    add_violation(req.id, twice ? "double-completion" : "untracked-completion",
                  twice ? "request completed twice (done must be set exactly once)"
                        : "completion for a request never submitted");
    return;
  }
  st.phase = AuditState::Phase::kDone;
  if (req.dropped) {
    ++dropped_;
  } else if (req.failed) {
    ++failed_;
  } else {
    ++completed_;
  }
  breakdown_.add(req.stages);
  last_terminal_ = std::max(last_terminal_, std::max(req.completed, req.arrival));
  if (st.traced && causal_ != nullptr && req.completed >= req.arrival) {
    sim::SpanArgs args;
    if (!opts_.run_label.empty()) args.emplace_back("run", opts_.run_label);
    args.emplace_back("request_id", std::to_string(req.id));
    args.emplace_back("result", req.dropped ? std::string("dropped")
                                : req.failed
                                    ? "failed-" + std::string(fail_reason_name(req.fail_reason))
                                    : std::string("ok"));
    if (req.attempt > 1) args.emplace_back("attempt", std::to_string(req.attempt));
    causal_->record(req.trace_ctx, "req." + std::to_string(req.id), "request", req.arrival,
                    req.completed, std::move(args));
  }
  check_request(req);
}

void RequestAuditor::on_lost_handoff(const Request& req, std::string_view where) {
  add_violation(req.id, "lost-handoff",
                "request failed the " + std::string(where) +
                    " queue hand-off and had to be drop-accounted");
}

void RequestAuditor::on_fault_window(std::string_view name, sim::Time begin, sim::Time end) {
  if (trace_ != nullptr && end > begin) trace_->span("faults", std::string(name), begin, end);
}

void RequestAuditor::on_breaker_transition(std::string_view to, sim::Time t) {
  if (trace_ != nullptr) trace_->instant("policies", "breaker -> " + std::string(to), t);
}

void RequestAuditor::check_request(const Request& req) {
  // (4) Monotonicity: arrival <= enqueue_time <= completed.
  if (req.completed < req.arrival) {
    add_violation(req.id, "monotonicity",
                  "completed " + format_time(req.completed) + " before arrival " +
                      format_time(req.arrival));
    return;  // latency is meaningless; skip the conservation check
  }
  if (req.enqueue_time > 0 &&
      (req.enqueue_time < req.arrival || req.enqueue_time > req.completed)) {
    add_violation(req.id, "monotonicity",
                  "enqueue_time " + format_time(req.enqueue_time) + " outside [arrival " +
                      format_time(req.arrival) + ", completed " + format_time(req.completed) + "]");
  }
  // (2) Stage-time conservation: charges must tile the request's lifetime.
  const double latency_s = sim::to_seconds(req.latency());
  const double sum_s = req.stages.total();
  const double tol = opts_.tolerance_s + 1e-9 * std::abs(latency_s);
  const double delta = latency_s - sum_s;
  if (std::abs(delta) > tol) {
    std::ostringstream os;
    os << "sum(stages) " << sum_s << "s vs latency " << latency_s << "s (delta " << delta
       << "s); " << drift_label(req, delta);
    add_violation(req.id, "stage-conservation", os.str());
  }
}

std::string RequestAuditor::drift_label(const Request& req, double delta_s) {
  if (delta_s > 0) {
    // Wall-clock time nobody charged: the stage charged right after the
    // largest uncovered gap failed to account for its wait.
    const AuditState& st = req.audit;
    if (!st.charged) return "no stage was ever charged";
    constexpr std::string_view kCompletion = "completion (nothing charged until done)";
    sim::Time best_gap = st.max_gap;
    std::string_view culprit = best_gap > 0 ? metrics::stage_name(st.gap_stage) : kCompletion;
    if (req.completed > st.covered_to && req.completed - st.covered_to > best_gap) {
      best_gap = req.completed - st.covered_to;
      culprit = kCompletion;
    }
    return "largest uncovered gap " + std::to_string(sim::to_seconds(best_gap)) +
           "s precedes stage '" + std::string(culprit) + "'";
  }
  // Over-accounting: some stage charged time twice. Attribute by the
  // accumulated per-stage durations — a hint, not proof: sequential waits
  // charged at the same instant legitimately overlap.
  std::size_t max_i = 0;
  for (std::size_t i = 1; i < metrics::kStageCount; ++i) {
    if (req.stages[static_cast<metrics::Stage>(i)] >
        req.stages[static_cast<metrics::Stage>(max_i)]) {
      max_i = i;
    }
  }
  return "over-charged; largest contributor is stage '" +
         std::string(metrics::stage_name(static_cast<metrics::Stage>(max_i))) + "'";
}

void RequestAuditor::check_zero(std::string_view what, std::uint64_t value) {
  if (value != 0) {
    add_violation(0, "resource-hygiene",
                  std::string(what) + " = " + std::to_string(value) + " after drain (expected 0)");
  }
}

void RequestAuditor::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (const std::uint64_t leaked = in_flight(); leaked > 0) {
    add_violation(0, "leaked-request",
                  std::to_string(leaked) +
                      " request(s) submitted but never completed, dropped or failed");
    add_violation(0, "request-conservation",
                  "submitted " + std::to_string(submitted_) + " != completed " +
                      std::to_string(completed_) + " + dropped " + std::to_string(dropped_) +
                      " + failed " + std::to_string(failed_) + " (leaked " +
                      std::to_string(leaked) + ")");
  }
  // Publish the full-population per-stage means into the trace itself, so
  // `servescope trace` can cross-check the sampled critical paths against
  // the exhaustive auditor accounting without a side channel.
  if (trace_ != nullptr && breakdown_.count() > 0) {
    sim::SpanArgs args;
    if (!opts_.run_label.empty()) args.emplace_back("run", opts_.run_label);
    args.emplace_back("count", std::to_string(breakdown_.count()));
    args.emplace_back("mean_total_s", metrics::format_double(breakdown_.mean_total()));
    for (std::size_t i = 0; i < metrics::kStageCount; ++i) {
      const auto s = static_cast<metrics::Stage>(i);
      args.emplace_back("stage_" + std::string(metrics::stage_name(s)),
                        metrics::format_double(breakdown_.mean(s)));
    }
    trace_->instant("meta", "audit.breakdown", last_terminal_, std::move(args));
  }
}

void RequestAuditor::add_violation(std::uint64_t id, std::string check, std::string detail) {
  ++violation_count_;
  if (violations_.size() < opts_.max_recorded) {
    violations_.push_back(Violation{id, std::move(check), std::move(detail)});
  }
}

std::vector<std::string> RequestAuditor::report() const {
  std::vector<std::string> lines;
  lines.reserve(violations_.size() + 1);
  for (const Violation& v : violations_) {
    std::string line = v.check;
    if (v.request_id != 0) line += " (request " + std::to_string(v.request_id) + ")";
    line += ": " + v.detail;
    lines.push_back(std::move(line));
  }
  if (violation_count_ > violations_.size()) {
    lines.push_back("... and " + std::to_string(violation_count_ - violations_.size()) +
                    " more violation(s)");
  }
  return lines;
}

}  // namespace serve::serving
