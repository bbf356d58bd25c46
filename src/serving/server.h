// Throughput-optimized inference server (TrIS-like) on the simulated node.
//
// Architecture mirrors the system the paper profiles (Figs. 1-2):
//
//   client -> ingest (CPU) -> preprocess (CPU pool | batched GPU pipelines)
//          -> PCIe transfer -> dynamic batcher -> GPU inference instance
//          -> result transfer -> postprocess (CPU) -> client
//
// Every stage charges virtual time to the request's StageTimes so the
// paper's breakdown figures can be regenerated exactly.
//
// handle_request decides each request's route once, after ingest and the
// ingress-cache probe, and then runs each step at most once:
//
//   route                   preprocess   transfer               then
//   tensor-in (1)           -            host+PCIe, tensor (2)  stage -> inference
//   CPU deployment          CPU pool (3) -                      inference
//   degraded GPU (4)        CPU pool (3) host+PCIe, tensor      stage -> inference
//   GPU, tensor-level hit   -            host+PCIe, tensor      stage -> inference
//   GPU preprocessing       -            host+PCIe, JPEG (5)    preprocessing batcher
//
//   (1) inference-only mode, or a raw-tensor request; the cache is not probed
//   (2) a raw tensor on the CPU deployment takes only the host hop and is
//       not staged: it rides the batched staging path at dispatch
//   (3) skipped on a tensor-level hit; an image-level hit skips decode
//   (4) the GPU is in (or within the hysteresis of) a failure window and
//       the degrade policy is on
//   (5) the decoded image on an image-level hit
//
// Preprocess-only mode completes every route but GPU preprocessing right
// after its preprocess step; the preprocessing batcher completes the last.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "hw/devices.h"
#include "metrics/registry.h"
#include "metrics/time_weighted.h"
#include "serving/audit.h"
#include "serving/batcher.h"
#include "serving/config.h"
#include "serving/ingress_cache.h"
#include "serving/request.h"
#include "serving/stats.h"
#include "sim/process.h"
#include "sim/task.h"

namespace serve::serving {

class InferenceServer {
 public:
  /// Ingest circuit-breaker state (CircuitBreakerPolicy).
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// Creates the endpoint and spawns its scheduler processes.
  InferenceServer(hw::Platform& platform, ServerConfig config);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues a request. Completion is signalled through `req->done`.
  /// After shutdown() or while the circuit breaker is open the request is
  /// fail-accounted immediately (done set, counted) instead of processed.
  void submit(RequestPtr req);

  /// Stops accepting requests and lets in-flight work drain.
  void shutdown();

  /// Routes completed-request notifications through `broker` when
  /// ServerConfig::broker_publish.publish_results is set. The broker must
  /// outlive the server. Call before the first submit.
  void set_result_broker(broker::SimBroker<std::uint64_t>* broker) noexcept {
    result_broker_ = broker;
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] hw::Platform& platform() noexcept { return platform_; }

  /// Requests accepted but not yet completed.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return counts_.submitted - counts_.completed - counts_.failed - counts_.dropped;
  }

  /// Lifecycle auditor (nullptr unless ServerConfig::audit is set). To get
  /// per-request trace spans, call auditor()->set_trace(...) before the
  /// first submit.
  [[nodiscard]] RequestAuditor* auditor() noexcept { return auditor_.get(); }

  /// Requests that failed a scheduler-queue hand-off and were drop-accounted
  /// instead of lost (always 0 in a healthy configuration).
  [[nodiscard]] std::uint64_t lost_handoffs() const noexcept { return counts_.handoff_lost; }

  /// Content-addressed preprocess cache (nullptr unless
  /// ServerConfig::ingress_cache.enabled). Exposed so harnesses can read its
  /// counters and drive budget shrinks from a fault plan.
  [[nodiscard]] IngressCache* ingress_cache() noexcept { return ingress_cache_.get(); }

  [[nodiscard]] BreakerState breaker_state() const noexcept { return breaker_state_; }

 private:
  struct GpuState {
    GpuState(sim::Simulator& sim, const Batcher<RequestPtr>::Options& preproc_opts,
             const Batcher<RequestPtr>::Options& inf_opts)
        : preproc_batcher(sim, preproc_opts), inf_batcher(sim, inf_opts) {}
    Batcher<RequestPtr> preproc_batcher;  ///< DALI-style batched GPU preprocessing
    Batcher<RequestPtr> inf_batcher;      ///< dynamic batcher in front of the engine
    // Graceful-degradation state (DegradePolicy): set while the GPU is in a
    // failure window, cleared only after `hysteresis` of continuous health.
    bool degraded = false;
    sim::Time last_unhealthy = 0;
  };

  // Scheduler processes (one set per GPU).
  sim::Process handle_request(RequestPtr req);
  sim::Process gpu_preproc_loop(std::size_t g);
  sim::Process run_gpu_preproc_batch(std::size_t g, std::vector<RequestPtr> batch,
                                     sim::ResourceToken pipeline);
  sim::Process inference_loop(std::size_t g);
  sim::Process finish_request(RequestPtr req);
  /// GPU failure window, entered only while `gpu.failed_now()`: with a
  /// resilience policy on, waits out the window (the caller's batch held)
  /// and returns true; without one returns false and the caller fails its
  /// batch. The fault-free path never allocates this frame.
  sim::Task<bool> hold_through_gpu_fault(hw::GpuModel& gpu);
  /// `blame` annotates the residual queue charge ("shed-deadline" for
  /// admission-control drops, "hedge-cancelled" for balancer cancellations).
  void drop_request(std::size_t gpu, RequestPtr req, std::string_view blame = "shed-deadline");

  /// Terminal failure: releases staged memory, charges the queue residue,
  /// records + signals completion with `failed = true`.
  void fail_request(std::size_t gpu, RequestPtr req, FailReason reason);

  /// Fail/drop prologue: releases staged memory and charges the queue time
  /// since the last queue entry (blamed on `blame`).
  void release_early(std::size_t gpu, Request& req, std::string_view blame);

  /// The one terminal tail of finish/fail/drop: stamps `completed`, counts
  /// the outcome its `failed`/`dropped` flags name, records latency and stage
  /// seconds, hands the request to the auditor, and signals `done`. Callers
  /// set the flags and feed the breaker (record_outcome) first.
  void retire(Request& req);

  // Pipeline fragments shared by the paths above (implemented in server.cpp).
  void enqueue_inference(std::size_t g, RequestPtr req);

  /// Puts `req` into `ch`; a full or closed channel drop-accounts the
  /// request instead of silently destroying it.
  void hand_off(sim::Channel<RequestPtr>& ch, std::size_t g, RequestPtr req,
                std::string_view where);

  // --- resilience machinery ---
  /// Circuit-breaker admission decision for one submission.
  bool breaker_admit();
  void open_breaker();
  /// Feeds the breaker's error EWMA and half-open probe bookkeeping.
  void record_outcome(bool success);
  /// Degradation check with hysteresis; updates per-GPU degrade state.
  bool gpu_degraded(std::size_t g);
  /// Picks the GPU for a new request, skipping degraded ones when the
  /// degrade policy is on (falls back to plain round-robin if all are down).
  std::size_t route_request();
  /// Hold-until-recovery is on when any resilience policy wants batches to
  /// survive a GPU failure window instead of failing.
  [[nodiscard]] bool resilient_hold() const noexcept {
    return config_.retry.enabled || config_.degrade.enabled;
  }
  /// Real decode of the seeded byte-mutated template payload; false when the
  /// codec rejects the corrupted stream.
  [[nodiscard]] bool corrupted_payload_decodes(std::uint64_t stream_seed) const;

  /// Wire format for one request: its own choice, or the server default.
  [[nodiscard]] IngressFormat resolve_ingress(const Request& req) const noexcept {
    if (req.ingress == RequestIngress::kServerDefault) return config_.ingress;
    return req.ingress == RequestIngress::kRawTensor ? IngressFormat::kRawTensor
                                                     : IngressFormat::kCompressedImage;
  }

  /// Registers the serving instruments: a counter_fn over every field of
  /// `counts_`, and the two histograms below.
  void init_telemetry();
  /// Terminal accounting (part of retire()): latency histogram, latency sum
  /// and cumulative per-stage seconds.
  void record_terminal(const Request& req);
  void note_breaker(BreakerState to);

  hw::Platform& platform_;
  ServerConfig config_;
  ServingCounts counts_;
  ServerStats stats_{platform_.sim(), counts_};
  /// Registry distributions, the only serving instruments that need handles
  /// (no-ops when the platform has no registry).
  metrics::HistogramHandle latency_hist_, batch_size_hist_;
  /// Time-weighted occupancy integrals (the L side of Little's law and the
  /// alias-free queue-depth series). Updated unconditionally — one add per
  /// request edge — and exported via counter_fn when a registry is attached.
  metrics::TimeIntegrator inflight_integral_;
  std::vector<metrics::TimeIntegrator> preproc_queue_integral_;  ///< per GPU
  std::vector<metrics::TimeIntegrator> inf_queue_integral_;      ///< per GPU
  std::unique_ptr<IngressCache> ingress_cache_;
  std::unique_ptr<RequestAuditor> auditor_;
  std::vector<std::unique_ptr<GpuState>> gpus_;
  broker::SimBroker<std::uint64_t>* result_broker_ = nullptr;
  std::vector<std::uint8_t> template_jpeg_;  ///< payload-validation template
  std::size_t next_gpu_ = 0;
  bool accepting_ = true;
  // Circuit-breaker state.
  BreakerState breaker_state_ = BreakerState::kClosed;
  sim::Time breaker_open_until_ = 0;
  int half_open_budget_ = 0;     ///< probe admissions left in half-open
  int half_open_successes_ = 0;  ///< successful probes observed
  double error_ewma_ = 0.0;      ///< recent failure rate (EWMA, alpha 0.05)
  std::uint64_t outcome_samples_ = 0;
};

}  // namespace serve::serving
