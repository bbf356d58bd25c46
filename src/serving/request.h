// Inference request lifecycle object.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "hw/gpu_memory.h"
#include "hw/image_spec.h"
#include "metrics/breakdown.h"
#include "serving/ingress.h"
#include "sim/sync.h"
#include "sim/time.h"
#include "trace/span_context.h"

namespace serve::serving {

struct Request;

/// Why a request finished with `failed = true`.
enum class FailReason : std::uint8_t {
  kNone,           ///< not failed
  kGpuFault,       ///< batch was on a GPU that entered a failure window
  kCorruptPayload, ///< payload failed codec validation at ingest
  kBreakerOpen,    ///< fast-failed by the ingest circuit breaker
  kBrokerPublish,  ///< result publication gave up (no failover configured)
  kShutdown,       ///< submitted after the server stopped accepting
};

[[nodiscard]] constexpr std::string_view fail_reason_name(FailReason r) noexcept {
  switch (r) {
    case FailReason::kNone: return "none";
    case FailReason::kGpuFault: return "gpu-fault";
    case FailReason::kCorruptPayload: return "corrupt-payload";
    case FailReason::kBreakerOpen: return "breaker-open";
    case FailReason::kBrokerPublish: return "broker-publish";
    case FailReason::kShutdown: return "shutdown";
  }
  return "?";
}

/// Hook invoked on every stage charge (request auditing / per-request
/// tracing). `end` is the virtual time the charge was recorded at and `dt`
/// the charged duration, so the charged interval is [end - dt, end].
/// `blame` names what a *wait* charge was waiting on (batch formation, an
/// eviction reload, a fault hold, the open breaker); empty for work charges.
/// The observer may update the request's inline `audit` state.
class ChargeObserver {
 public:
  virtual void on_charge(Request& req, metrics::Stage s, sim::Time end, sim::Time dt,
                         std::string_view blame) noexcept = 0;

 protected:
  ~ChargeObserver() = default;
};

/// Lifecycle-auditor state, kept inline on the request so an audited
/// request costs no heap allocation and the auditor's memory scales with
/// the requests that exist, not with every request ever submitted. Written
/// only by serving::RequestAuditor; `covered_to` and the gap fields track
/// the charged intervals as they arrive, which is all the stage-drift label
/// needs.
struct AuditState {
  enum class Phase : std::uint8_t { kUnseen, kInFlight, kDone };
  Phase phase = Phase::kUnseen;
  bool traced = false;   ///< stage charges become trace spans
  bool charged = false;  ///< at least one stage charge recorded
  metrics::Stage gap_stage = metrics::Stage::kIngest;  ///< stage charged after `max_gap`
  sim::Time covered_to = 0;  ///< largest charge end so far (arrival at submit)
  sim::Time max_gap = 0;     ///< largest uncovered interval before a charge
};

/// One in-flight inference request. Created by a client, threaded through
/// the serving pipeline, completed exactly once. Stage durations accumulate
/// into `stages` as the request moves through the system.
struct Request {
  Request(sim::Simulator& sim_, std::uint64_t id_, hw::ImageSpec image_)
      : sim(&sim_), id(id_), image(image_), arrival(sim_.now()), done(sim_) {}

  sim::Simulator* sim;  ///< owning simulator (timestamps for charge hooks)
  std::uint64_t id;
  hw::ImageSpec image;
  /// Stable hash of the payload bytes (workload::CorpusEntry::content_hash).
  /// Zero means "unique payload": the ingress cache never matches it.
  std::uint64_t content_hash = 0;
  /// Wire format for this request; kServerDefault defers to ServerConfig.
  RequestIngress ingress = RequestIngress::kServerDefault;
  /// Which ingress-cache level satisfied this request (kNone = miss/bypass).
  CacheLevel cache_hit = CacheLevel::kNone;
  sim::Time arrival;
  sim::Time completed = -1;
  metrics::StageTimes stages{};
  hw::GpuMemoryStager::Handle staged = 0;  ///< staging handle, 0 = none
  std::size_t gpu_index = 0;               ///< accelerator this request runs on
  sim::Time enqueue_time = 0;              ///< last scheduler-queue entry time
  bool dropped = false;                    ///< shed by admission control
  /// Cooperative cancellation (set by the fleet balancer when a hedged
  /// sibling already won, or when the request's node crashed). Schedulers
  /// drop the request at the next dispatch point instead of spending GPU
  /// time on it; if it is already past dispatch it completes normally as
  /// wasted work. `cancel_reason` must point at a static string — it blames
  /// the drop's residual queue charge.
  bool cancel_requested = false;
  std::string_view cancel_reason = "cancelled";
  bool failed = false;                     ///< completed exceptionally (fault path)
  FailReason fail_reason = FailReason::kNone;
  int attempt = 1;                         ///< 1-based client retry attempt
  ChargeObserver* observer = nullptr;      ///< optional audit/trace hook
  AuditState audit{};                      ///< owned by the observing auditor
  /// Causal trace identity. Zero (no trace) unless the auditor originates a
  /// trace at submit, or the client pre-fills it to chain a retry attempt
  /// into the previous attempt's trace.
  trace::SpanContext trace_ctx{};
  sim::Event done;                         ///< set exactly once at completion

  /// Adds `dt` (virtual ns) to a lifecycle stage. `blame` annotates wait
  /// charges with their cause (see ChargeObserver).
  void charge(metrics::Stage s, sim::Time dt, std::string_view blame = {}) noexcept {
    stages[s] += sim::to_seconds(dt);
    if (observer != nullptr) observer->on_charge(*this, s, sim->now(), dt, blame);
  }

  [[nodiscard]] sim::Time latency() const noexcept { return completed - arrival; }
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace serve::serving
