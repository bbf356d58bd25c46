// Request-lifecycle auditor.
//
// The paper's contribution is an accounting exercise: every millisecond of a
// request must be attributed to exactly one lifecycle stage (ingest, queue,
// preprocess, transfer, inference, postprocess) so that the Fig. 6/7
// breakdowns are trustworthy. This class enforces that promise at runtime:
//
//  1. request conservation — submitted == completed + dropped + failed,
//     every `Request::done` set exactly once, no request leaked at shutdown;
//  2. stage-time conservation — sum(stage charges) == end-to-end latency
//     within a ns-quantization tolerance, flagging the stage that drifted;
//  3. resource hygiene — staging memory, batcher queues, and channel waiter
//     lists must be empty after drain (fed by InferenceServer::shutdown);
//  4. monotonicity — arrival <= enqueue_time <= completed.
//
// Per-request state lives inline on the request (serving::AuditState): its
// lifecycle phase, whether it is traced, and a running covered-to cursor
// with the largest uncovered gap seen so far. The auditor itself holds no
// per-request state, so an untraced audited request allocates nothing and
// memory scales with the requests in flight, not with the requests ever
// submitted. Leaks are detected by count: in_flight() = submitted -
// (completed + dropped + failed), reported once at finalize().
//
// The auditor also doubles as the per-request span source for
// sim::TraceRecorder: each stage charge of a *sampled* request becomes a
// named span on a "req.<id>" track, so latency breakdowns are visually
// debuggable in Perfetto (chrome://tracing). Sampling is deterministic
// (trace::TraceSampler — hash of the request id by default, stride and the
// legacy first-N available via Options::sampler), so same-seed runs trace
// the same requests. With a CausalTracer attached the same spans also carry
// trace/span/parent ids and blame annotations, the request originates (or
// adopts, for chained retries and cascade hops) a trace::SpanContext, and a
// root "request" span is recorded at completion — the input to
// `servescope trace`'s critical-path extraction.
//
// Enable with ServerConfig::audit (or --audit / --trace-out in the bench
// harness). One auditor belongs to one server, and a request is submitted
// to at most one auditor; when several servers share a platform, each
// audits only its own requests, but staging-memory hygiene is meaningful
// only if the sharing servers drain together.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/breakdown.h"
#include "serving/request.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "trace/causal.h"

namespace serve::serving {

class RequestAuditor final : public ChargeObserver {
 public:
  struct Options {
    /// Absolute slack between sum(stage times) and end-to-end latency; a
    /// 1e-9 relative term is added on top (covers ns quantization and
    /// floating-point accumulation across ~10 charges).
    double tolerance_s = 1e-9;
    /// Violations stored verbatim; the total count keeps growing past this.
    std::size_t max_recorded = 64;
    /// Which submitted requests get trace spans (bounds trace size; device
    /// counters are unaffected). Deterministic hash sampling by default;
    /// {.mode = trace::SampleMode::kFirstN} restores the legacy
    /// warmup-biased first-N selection.
    trace::SamplerOptions sampler{};
    /// Stamped on causal root spans and the finalize-time breakdown
    /// metadata, so one trace file can hold several experiment rows.
    std::string run_label{};
  };

  struct Violation {
    std::uint64_t request_id = 0;  ///< 0 = server-level check
    std::string check;             ///< invariant family, e.g. "stage-conservation"
    std::string detail;            ///< measured values backing the verdict
  };

  RequestAuditor() : RequestAuditor(Options{}) {}
  explicit RequestAuditor(Options opts) : opts_(std::move(opts)), sampler_(opts_.sampler) {}

  /// Streams per-request stage spans into `trace` ("req.<id>" tracks).
  /// The recorder must outlive the audited simulation activity.
  void set_trace(sim::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Attaches a causal tracer (usually shared with brokers/pipelines writing
  /// the same recorder): sampled requests then originate/adopt SpanContexts,
  /// spans carry causal ids + blame args, and completion records a root
  /// "request" span. Must outlive the audited activity.
  void set_causal_tracer(trace::CausalTracer* tracer) noexcept { causal_ = tracer; }

  // --- lifecycle hooks (called by InferenceServer) ---------------------------

  /// Registers the request (resetting `req.audit`), decides/adopts its
  /// sampling fate (writing the assigned SpanContext back into
  /// `req.trace_ctx`), and installs this auditor as its charge observer.
  void on_submit(Request& req);

  /// ChargeObserver: advances the request's covered-to cursor for the
  /// drift label and emits the corresponding trace span (with blame when
  /// given).
  void on_charge(Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                 std::string_view blame) noexcept override;

  /// Verifies per-request invariants (conservation, monotonicity, single
  /// completion) and marks the request done. Call after `req.completed` is
  /// set.
  void on_complete(Request& req);

  /// A request failed a scheduler-queue hand-off (it would have been lost
  /// silently before the drop-accounting fix). Always a violation.
  void on_lost_handoff(const Request& req, std::string_view where);

  /// Records an injected fault episode as a span on the "faults" trace
  /// track, so fault windows line up visually with request-latency spans.
  void on_fault_window(std::string_view name, sim::Time begin, sim::Time end);

  /// Records a circuit-breaker state transition ("closed" / "open" /
  /// "half-open") as an instant marker on the "policies" trace track.
  void on_breaker_transition(std::string_view to, sim::Time t);

  // --- terminal checks -------------------------------------------------------

  /// Resource-hygiene check: `value` must be zero after drain.
  void check_zero(std::string_view what, std::uint64_t value);

  /// Request-count conservation + leak detection (one "leaked-request"
  /// violation carrying the in-flight count). Idempotent; further
  /// terminal checks are pointless after this. With a trace attached, also
  /// emits an "audit.breakdown" metadata instant (per-stage mean seconds
  /// over every terminal request) that `servescope trace` cross-checks against
  /// the aggregate critical-path attribution.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  // --- results ---------------------------------------------------------------

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return submitted_ - (completed_ + dropped_ + failed_);
  }

  [[nodiscard]] bool clean() const noexcept { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept { return violation_count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept { return violations_; }

  /// Per-stage aggregation over every terminal request (completed, failed,
  /// dropped) across the whole run — the reference the causal traces'
  /// critical-path shares are validated against.
  [[nodiscard]] const metrics::Breakdown& breakdown() const noexcept { return breakdown_; }
  [[nodiscard]] std::uint64_t traced_requests() const noexcept { return sampler_.sampled_count(); }

  /// Mutable sampler access for triggered capture: the alert engine flips
  /// the sampler into full-sampling while an alert is firing so the
  /// anomalous interval is captured wholesale.
  [[nodiscard]] trace::TraceSampler& sampler() noexcept { return sampler_; }

  /// Formatted violation lines ("check (request N): detail"), capped at
  /// Options::max_recorded with a trailing "... and N more" marker.
  [[nodiscard]] std::vector<std::string> report() const;

 private:
  void add_violation(std::uint64_t id, std::string check, std::string detail);
  void check_request(const Request& req);

  /// Names the stage most likely responsible for a conservation mismatch:
  /// leaked time (sum < latency) points at the charge following the largest
  /// uncovered gap; double-charged time points at the largest per-stage
  /// total. The gap comes from the running covered-to cursor, so a charge
  /// that begins before the cursor (out of begin order) closes no gap: the
  /// label names the in-order charge that opened the gap. The server
  /// charges in begin order, where this equals a sorted sweep. The label is
  /// diagnostic only — the mismatch itself is computed exactly.
  [[nodiscard]] static std::string drift_label(const Request& req, double delta_s);

  Options opts_;
  sim::TraceRecorder* trace_ = nullptr;
  trace::CausalTracer* causal_ = nullptr;
  trace::TraceSampler sampler_{};
  metrics::Breakdown breakdown_{};
  sim::Time last_terminal_ = 0;  ///< timestamp for the finalize metadata event
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;
  bool finalized_ = false;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
};

}  // namespace serve::serving
