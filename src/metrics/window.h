// Measurement-window accounting shared by every workload runner.
//
// A run warms up, then opens the window; completions recorded while it is
// open feed a count, a latency histogram and a per-stage breakdown, and
// rates divide by the window's virtual length. An empty (zero-length)
// window reports a rate of 0, never 0/0.
#pragma once

#include <cstdint>

#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "sim/time.h"

namespace serve::metrics {

class Window {
 public:
  /// Starts (or restarts) the window at `now`, discarding prior samples.
  void open(sim::Time now) noexcept {
    start_ = now;
    count_ = 0;
    latency_.reset();
    breakdown_.reset();
    measuring_ = true;
  }

  [[nodiscard]] bool measuring() const noexcept { return measuring_; }

  /// Records one completion; ignored while the window is not open.
  void record(double latency_s, const StageTimes& stages) noexcept {
    if (!measuring_) return;
    record(latency_s);
    breakdown_.add(stages);
  }
  /// Records one completion without a stage decomposition.
  void record(double latency_s) noexcept {
    if (!measuring_) return;
    ++count_;
    latency_.add(latency_s);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const Histogram& latency() const noexcept { return latency_; }
  [[nodiscard]] const Breakdown& breakdown() const noexcept { return breakdown_; }
  [[nodiscard]] sim::Time start() const noexcept { return start_; }

  [[nodiscard]] double seconds(sim::Time now) const noexcept {
    return sim::to_seconds(now - start_);
  }
  /// `n` events per window second at `now` (0 for a zero-length window).
  [[nodiscard]] double rate(std::uint64_t n, sim::Time now) const noexcept {
    const double w = seconds(now);
    return w > 0.0 ? static_cast<double>(n) / w : 0.0;
  }
  /// Recorded completions per window second at `now`.
  [[nodiscard]] double throughput(sim::Time now) const noexcept { return rate(count_, now); }

 private:
  sim::Time start_ = 0;
  bool measuring_ = false;
  std::uint64_t count_ = 0;
  Histogram latency_;
  Breakdown breakdown_;
};

}  // namespace serve::metrics
