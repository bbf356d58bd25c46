// Measurement-window statistics for a serving experiment.
#pragma once

#include <cstdint>

#include "metrics/stat_accumulator.h"
#include "metrics/window.h"
#include "serving/request.h"
#include "sim/time.h"

namespace serve::serving {

/// Serving-specific counters on top of the shared measurement window.
/// Warmup requests (completed before `begin()` is called) are not recorded.
class ServerStats {
 public:
  explicit ServerStats(sim::Simulator& sim) : sim_(sim) { window_.open(sim.now()); }

  /// Starts (or restarts) the measurement window, discarding prior samples.
  void begin() {
    window_.open(sim_.now());
    dropped_ = 0;
    failed_ = 0;
    rejected_ = 0;
    degraded_ = 0;
    breaker_opens_ = 0;
    broker_failovers_ = 0;
    cache_tensor_hits_ = 0;
    cache_image_hits_ = 0;
    batch_sizes_.reset();
  }

  void record(const Request& req) {
    if (req.dropped) {
      ++dropped_;
      return;
    }
    if (req.failed) {
      ++failed_;
      if (req.fail_reason == FailReason::kBreakerOpen) ++rejected_;
      return;
    }
    window_.record(sim::to_seconds(req.latency()), req.stages);
    if (req.cache_hit == CacheLevel::kTensor) ++cache_tensor_hits_;
    if (req.cache_hit == CacheLevel::kImage) ++cache_image_hits_;
  }

  /// Resilience-event counters (always counted; windowed like records).
  void record_degraded() { ++degraded_; }
  void record_breaker_open() { ++breaker_opens_; }
  void record_broker_failover() { ++broker_failovers_; }

  void record_batch_size(int b) { batch_sizes_.add(static_cast<double>(b)); }

  [[nodiscard]] std::uint64_t completed() const noexcept { return window_.count(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Failed specifically by the open circuit breaker (subset of failed()).
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t degraded() const noexcept { return degraded_; }
  /// Completed requests satisfied from the ingress cache, by level.
  [[nodiscard]] std::uint64_t cache_tensor_hits() const noexcept { return cache_tensor_hits_; }
  [[nodiscard]] std::uint64_t cache_image_hits() const noexcept { return cache_image_hits_; }
  /// Fraction of completed requests satisfied from either cache level.
  [[nodiscard]] double cache_hit_rate() const noexcept {
    return completed() ? static_cast<double>(cache_tensor_hits_ + cache_image_hits_) /
                             static_cast<double>(completed())
                       : 0.0;
  }
  [[nodiscard]] std::uint64_t breaker_opens() const noexcept { return breaker_opens_; }
  [[nodiscard]] std::uint64_t broker_failovers() const noexcept { return broker_failovers_; }
  /// Fraction of finished requests that were shed.
  [[nodiscard]] double drop_rate() const noexcept {
    const auto total = completed() + dropped_;
    return total ? static_cast<double>(dropped_) / static_cast<double>(total) : 0.0;
  }
  [[nodiscard]] double window_seconds() const noexcept { return window_.seconds(sim_.now()); }
  [[nodiscard]] double throughput() const noexcept { return window_.throughput(sim_.now()); }
  [[nodiscard]] const metrics::Histogram& latency() const noexcept { return window_.latency(); }
  [[nodiscard]] const metrics::Breakdown& breakdown() const noexcept {
    return window_.breakdown();
  }
  [[nodiscard]] const metrics::Window& window() const noexcept { return window_; }
  [[nodiscard]] const metrics::StatAccumulator& batch_sizes() const noexcept {
    return batch_sizes_;
  }

 private:
  sim::Simulator& sim_;
  metrics::Window window_;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t broker_failovers_ = 0;
  std::uint64_t cache_tensor_hits_ = 0;
  std::uint64_t cache_image_hits_ = 0;
  metrics::StatAccumulator batch_sizes_;
};

}  // namespace serve::serving
