#include "serving/audit.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "metrics/export.h"

namespace serve::serving {

namespace {

constexpr std::size_t kMaxChargesTracked = 256;  ///< per-request gap-analysis cap

std::string format_time(sim::Time t) {
  std::ostringstream os;
  os << sim::to_seconds(t) << "s";
  return os.str();
}

}  // namespace

void RequestAuditor::on_submit(Request& req) {
  ++submitted_;
  if (done_ids_.count(req.id) != 0 || inflight_.count(req.id) != 0) {
    add_violation(req.id, "duplicate-submit",
                  "request id submitted more than once (arrival " + format_time(req.arrival) + ")");
  }
  InFlight& fl = inflight_[req.id];
  fl.arrival = req.arrival;
  // Sampling fate: adopt the incoming context when the client pre-filled one
  // (retry chaining / cascade hops keep the original trace's decision so a
  // trace is never truncated mid-tree); otherwise the deterministic sampler
  // decides from the request id alone, independent of scheduling.
  bool sampled = false;
  if (causal_ != nullptr && req.trace_ctx.valid()) {
    sampled = req.trace_ctx.sampled;
    fl.ctx = causal_->child_of(req.trace_ctx);
  } else {
    sampled = (trace_ != nullptr || causal_ != nullptr) && sampler_.sample(req.id);
    if (causal_ != nullptr) fl.ctx = causal_->begin_trace(sampled);
  }
  if (causal_ != nullptr) req.trace_ctx = fl.ctx;  // downstream spans attach here
  fl.traced = sampled && trace_ != nullptr;
  req.observer = this;
}

void RequestAuditor::on_charge(const Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                               std::string_view blame) noexcept {
  auto it = inflight_.find(req.id);
  if (it == inflight_.end()) {
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
  InFlight& fl = it->second;
  const sim::Time begin = std::max<sim::Time>(end - dt, 0);
  if (fl.charges.size() < kMaxChargesTracked) fl.charges.push_back(Charge{s, begin, end});
  if (fl.traced && dt > 0) {
    sim::SpanArgs args;
    if (!blame.empty()) args.emplace_back("blame", std::string(blame));
    if (causal_ != nullptr) {
      causal_->child_span(fl.ctx, "req." + std::to_string(req.id),
                          std::string(metrics::stage_name(s)), begin, end, std::move(args));
    } else {
      trace_->span("req." + std::to_string(req.id), std::string(metrics::stage_name(s)), begin,
                   end, std::move(args));
    }
  }
}

void RequestAuditor::on_complete(const Request& req) {
  auto it = inflight_.find(req.id);
  if (it == inflight_.end()) {
    add_violation(req.id,
                  done_ids_.count(req.id) != 0 ? "double-completion" : "untracked-completion",
                  done_ids_.count(req.id) != 0
                      ? "request completed twice (done must be set exactly once)"
                      : "completion for a request never submitted");
    return;
  }
  if (req.dropped) {
    ++dropped_;
  } else if (req.failed) {
    ++failed_;
  } else {
    ++completed_;
  }
  breakdown_.add(req.stages);
  last_terminal_ = std::max(last_terminal_, std::max(req.completed, req.arrival));
  InFlight& fl = it->second;
  if (fl.traced && causal_ != nullptr && req.completed >= req.arrival) {
    sim::SpanArgs args;
    if (!opts_.run_label.empty()) args.emplace_back("run", opts_.run_label);
    args.emplace_back("request_id", std::to_string(req.id));
    args.emplace_back("result", req.dropped ? std::string("dropped")
                                : req.failed
                                    ? "failed-" + std::string(fail_reason_name(req.fail_reason))
                                    : std::string("ok"));
    if (req.attempt > 1) args.emplace_back("attempt", std::to_string(req.attempt));
    causal_->record(fl.ctx, "req." + std::to_string(req.id), "request", req.arrival,
                    req.completed, std::move(args));
  }
  check_request(req, fl);
  done_ids_.insert(req.id);
  inflight_.erase(it);
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

void RequestAuditor::check_request(const Request& req, const InFlight& fl) {
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
       << "s); " << drift_label(req, fl, delta);
    add_violation(req.id, "stage-conservation", os.str());
  }
}

std::string RequestAuditor::drift_label(const Request& req, const InFlight& fl, double delta_s) {
  if (delta_s > 0) {
    // Wall-clock time nobody charged: the stage charged right after the
    // largest uncovered gap failed to account for its wait.
    if (fl.charges.empty()) return "no stage was ever charged";
    if (fl.charges.size() >= kMaxChargesTracked) {
      return "drifting stage unknown (charge log capped)";
    }
    std::vector<Charge> sorted = fl.charges;
    std::sort(sorted.begin(), sorted.end(),
              [](const Charge& a, const Charge& b) { return a.begin < b.begin; });
    sim::Time cursor = req.arrival;
    sim::Time best_gap = 0;
    std::string_view culprit = "completion (nothing charged until done)";
    for (const Charge& c : sorted) {
      if (c.begin > cursor) {
        const sim::Time gap = c.begin - cursor;
        if (gap > best_gap) {
          best_gap = gap;
          culprit = metrics::stage_name(c.stage);
        }
      }
      cursor = std::max(cursor, c.end);
    }
    if (req.completed > cursor && req.completed - cursor > best_gap) {
      best_gap = req.completed - cursor;
      culprit = "completion (nothing charged until done)";
    }
    return "largest uncovered gap " + std::to_string(sim::to_seconds(best_gap)) +
           "s precedes stage '" + std::string(culprit) + "'";
  }
  // Over-accounting: some stage charged time twice. Attribute by the
  // accumulated per-stage durations (not the recorded intervals, which are
  // clamped to the sim timeline and capped) — a hint, not proof: sequential
  // waits charged at the same instant legitimately overlap.
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
  for (const auto& [id, fl] : inflight_) {
    add_violation(id, "leaked-request",
                  "submitted at " + format_time(fl.arrival) + " but never completed or dropped");
  }
  if (submitted_ != completed_ + dropped_ + failed_) {
    add_violation(0, "request-conservation",
                  "submitted " + std::to_string(submitted_) + " != completed " +
                      std::to_string(completed_) + " + dropped " + std::to_string(dropped_) +
                      " + failed " + std::to_string(failed_) + " (leaked " +
                      std::to_string(inflight_.size()) + ")");
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
