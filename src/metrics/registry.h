// Unified telemetry registry: typed named instruments with label sets.
//
// The registry is the single naming authority for everything the serving
// stack measures. Components register instruments once (at construction) and
// update them through cheap handles on the hot path:
//
//   - Counter    monotone accumulator (requests, bytes, evictions, retries);
//                relaxed-atomic add, safe from real worker threads;
//   - Gauge      last-value instrument (queue depth, in-flight, budget);
//   - Histogram  log-bucketed distribution (latency, batch size); sim-thread
//                only — the underlying metrics::Histogram is not atomic.
//
// Callback variants (counter_fn / gauge_fn) sample a component's existing
// internal state instead of duplicating it: the flight recorder and the
// exporters evaluate the callback at snapshot time. freeze_callbacks()
// converts them to plain values so a registry can safely outlive the
// components it observed (the experiment runner calls it before tearing the
// platform down).
//
// Which kind to use: a simulator-thread component counts each event once in
// a plain field of its own and registers counter_fn over it (its windows are
// differences of that field). Counter handles are for real-thread components
// (codec worker pools, the file-log broker), where a callback would read
// across threads, and for instruments that exist only in the registry.
//
// Disabled-cost contract: every handle is a single pointer; a
// default-constructed handle makes all operations no-ops, so instrumented
// code pays one predictable branch when no registry is attached.
//
// Identity rules (enforced, tested):
//   - one (name, label set) pair maps to exactly one instrument; repeated
//     registration returns the existing one;
//   - a name is bound to one instrument type and one label *key set*
//     forever; re-registering with a different type or different label keys
//     throws (the "label collision" Prometheus forbids).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/histogram.h"

namespace serve::metrics {

/// Label set: key/value pairs ("stage" -> "queue", "device" -> "gpu0").
/// Order-insensitive: the registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class InstrumentType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr std::string_view instrument_type_name(InstrumentType t) noexcept {
  switch (t) {
    case InstrumentType::kCounter: return "counter";
    case InstrumentType::kGauge: return "gauge";
    case InstrumentType::kHistogram: return "histogram";
  }
  return "?";
}

class Registry;

/// Monotone accumulator handle. Thread-safe (relaxed atomic add): real
/// worker pools (codec, file-log broker) update counters concurrently.
class Counter {
 public:
  Counter() = default;
  void inc(double d = 1.0) noexcept {
    if (cell_ != nullptr) cell_->fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return cell_ != nullptr; }
  [[nodiscard]] double value() const noexcept {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<double>* cell) noexcept : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Last-value handle. Thread-safe store/add.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) noexcept {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(double d) noexcept {
    if (cell_ != nullptr) cell_->fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return cell_ != nullptr; }
  [[nodiscard]] double value() const noexcept {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<double>* cell) noexcept : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Distribution handle. NOT thread-safe — observe() only from the simulation
/// thread (all current histogram instruments are sim-side).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  void observe(double v) noexcept {
    if (hist_ != nullptr) hist_->add(v);
  }
  /// Observe with a trace exemplar (no-op trace_id 0 degrades to observe(v)).
  void observe(double v, std::uint64_t trace_id) noexcept {
    if (hist_ != nullptr) hist_->add(v, trace_id);
  }
  [[nodiscard]] bool enabled() const noexcept { return hist_ != nullptr; }
  [[nodiscard]] const Histogram* get() const noexcept { return hist_; }

 private:
  friend class Registry;
  explicit HistogramHandle(Histogram* h) noexcept : hist_(h) {}
  Histogram* hist_ = nullptr;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- registration ----------------------------------------------------------

  Counter counter(std::string name, Labels labels = {});

  /// Counter whose value is wall-clock-derived (telemetry self-overhead):
  /// excluded from flight-recorder series and from JSON/CSV exports by
  /// default so recorded runs stay bit-reproducible.
  Counter wall_clock_counter(std::string name, Labels labels = {});

  Gauge gauge(std::string name, Labels labels = {});

  /// Callback-backed instruments: `fn` is evaluated at sample/snapshot time.
  /// Re-registering the same (name, labels) replaces the callback — a second
  /// experiment run re-binds the instrument to its new component.
  void counter_fn(std::string name, Labels labels, std::function<double()> fn);
  void gauge_fn(std::string name, Labels labels, std::function<double()> fn);

  HistogramHandle histogram(std::string name, Labels labels = {},
                            const Histogram::Options& opts = {});

  // --- snapshotting ----------------------------------------------------------

  struct HistogramBucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
    std::uint64_t exemplar_trace_id = 0;  ///< 0 = no exemplar retained
    double exemplar_value = 0.0;
  };

  struct InstrumentSnapshot {
    std::string name;
    Labels labels;
    InstrumentType type = InstrumentType::kCounter;
    bool wall_clock = false;
    double value = 0.0;  ///< counter/gauge value; histogram sample count
    // Histogram-only payload (empty otherwise). Buckets carry their exact
    // layout edges so exporters can emit cumulative (`le`) form without
    // re-deriving the geometric layout.
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<HistogramBucket> buckets;  ///< non-empty buckets, ascending
  };

  /// All instruments, in registration order (deterministic).
  [[nodiscard]] std::vector<InstrumentSnapshot> snapshot() const;

  /// Replaces every callback instrument with its current value. Call before
  /// destroying the observed components; afterwards the registry is
  /// self-contained.
  void freeze_callbacks();

  [[nodiscard]] std::size_t size() const;

  // --- flight-recorder access (stable indices, registration order) -----------

  struct InstrumentInfo {
    const std::string& name;
    const Labels& labels;
    InstrumentType type;
    bool wall_clock;
  };
  [[nodiscard]] InstrumentInfo info(std::size_t i) const;

  /// Bulk read: resizes `out` to size() and fills every instrument's sampled
  /// value (registration order; histograms report their count) under one
  /// lock. The flight recorder's per-tick read, which its listeners share.
  void sample_values(std::vector<double>& out) const;

  /// Looks an instrument up by exact name + labels; nullopt when absent.
  [[nodiscard]] std::optional<InstrumentSnapshot> find(const std::string& name,
                                                      const Labels& labels = {}) const;

  /// (total count, samples <= threshold) for histogram instrument `i`;
  /// {0, 0} when `i` is not a histogram. Allocation-free — this is the alert
  /// engine's per-tick burn-rate read: bucket counts are not part of the
  /// recorder's sample.
  [[nodiscard]] std::pair<std::uint64_t, double> histogram_count_below(std::size_t i,
                                                                       double threshold) const;

 private:
  struct Instrument {
    std::string name;
    Labels labels;  ///< sorted by key
    InstrumentType type = InstrumentType::kCounter;
    bool wall_clock = false;
    std::atomic<double> cell{0.0};
    std::function<double()> callback;  ///< overrides cell when set
    std::unique_ptr<Histogram> hist;

    [[nodiscard]] double value() const {
      if (callback) return callback();
      if (type == InstrumentType::kHistogram) return static_cast<double>(hist->count());
      return cell.load(std::memory_order_relaxed);
    }
  };

  Instrument& intern(std::string name, Labels labels, InstrumentType type, bool wall_clock);
  [[nodiscard]] InstrumentSnapshot snapshot_one(const Instrument& ins) const;

  mutable std::mutex mu_;
  // Registration order; linear scans are fine at the dozens-of-instruments
  // scale this registry serves, and the order doubles as the deterministic
  // export/sampling order.
  std::vector<std::unique_ptr<Instrument>> instruments_;
};

}  // namespace serve::metrics
