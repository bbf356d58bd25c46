// Serving event counts and their measurement-window view.
#pragma once

#include <array>
#include <cstdint>

#include "metrics/breakdown.h"
#include "metrics/stat_accumulator.h"
#include "metrics/window.h"
#include "serving/request.h"
#include "sim/time.h"

namespace serve::serving {

/// Every serving event, counted once where the server sees it, cumulative
/// from construction and never reset. The registry reads these fields
/// through counter_fn; ServerStats windows them by difference.
struct ServingCounts {
  std::uint64_t submitted = 0, completed = 0, failed = 0, dropped = 0;
  std::uint64_t rejected = 0;  ///< failed by the open circuit breaker (subset of failed)
  std::uint64_t degraded = 0, handoff_lost = 0, broker_retries = 0, broker_failovers = 0;
  std::uint64_t breaker_to_open = 0, breaker_to_half_open = 0, breaker_to_closed = 0;
  /// Completed requests served from the ingress cache, by level.
  std::uint64_t cache_tensor_hits = 0, cache_image_hits = 0;
  /// Latency and per-stage seconds summed over every terminal request. The
  /// latency sum is the λ·W side of the capacity plane's Little's-law audit.
  double latency_sum_s = 0.0;
  std::array<double, metrics::kStageCount> stage_seconds{};
};

/// Measurement-window view of a server. Event counts are the server's
/// cumulative ServingCounts minus a copy taken at `begin()`. Completions
/// also feed the window's latency histogram and stage breakdown, and
/// dispatched batches a batch-size mean; `begin()` discards those samples.
class ServerStats {
 public:
  ServerStats(sim::Simulator& sim, const ServingCounts& counts)
      : sim_(sim), counts_(counts), base_(counts) {
    window_.open(sim.now());
  }

  /// Starts (or restarts) the measurement window, discarding prior samples.
  void begin() {
    window_.open(sim_.now());
    base_ = counts_;
    batch_sizes_.reset();
  }

  void record_completed(const Request& req) {
    window_.record(sim::to_seconds(req.latency()), req.stages);
  }
  void record_batch_size(int b) { batch_sizes_.add(static_cast<double>(b)); }

  [[nodiscard]] std::uint64_t completed() const noexcept { return window_.count(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return counts_.dropped - base_.dropped; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return counts_.failed - base_.failed; }
  /// Failed specifically by the open circuit breaker (subset of failed()).
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return counts_.rejected - base_.rejected;
  }
  [[nodiscard]] std::uint64_t degraded() const noexcept {
    return counts_.degraded - base_.degraded;
  }
  /// Completed requests satisfied from the ingress cache, by level.
  [[nodiscard]] std::uint64_t cache_tensor_hits() const noexcept {
    return counts_.cache_tensor_hits - base_.cache_tensor_hits;
  }
  [[nodiscard]] std::uint64_t cache_image_hits() const noexcept {
    return counts_.cache_image_hits - base_.cache_image_hits;
  }
  /// Fraction of completed requests satisfied from either cache level.
  [[nodiscard]] double cache_hit_rate() const noexcept {
    return completed() ? static_cast<double>(cache_tensor_hits() + cache_image_hits()) /
                             static_cast<double>(completed())
                       : 0.0;
  }
  [[nodiscard]] std::uint64_t breaker_opens() const noexcept {
    return counts_.breaker_to_open - base_.breaker_to_open;
  }
  [[nodiscard]] std::uint64_t broker_failovers() const noexcept {
    return counts_.broker_failovers - base_.broker_failovers;
  }
  /// Fraction of finished requests that were shed.
  [[nodiscard]] double drop_rate() const noexcept {
    const auto total = completed() + dropped();
    return total ? static_cast<double>(dropped()) / static_cast<double>(total) : 0.0;
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
  const ServingCounts& counts_;
  ServingCounts base_;  ///< counts_ at the last begin()
  metrics::Window window_;
  metrics::StatAccumulator batch_sizes_;
};

}  // namespace serve::serving
