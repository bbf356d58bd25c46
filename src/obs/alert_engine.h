// Deterministic SLO watch plane: declarative alert rules evaluated on the
// flight-recorder cadence.
//
// The registry (PR 4) exports what happened and the tracer (PR 5) explains
// single requests, but nothing *watches* the running system. The AlertEngine
// closes that gap as a sensor layer: rules over registry instruments are
// evaluated at every FlightRecorder tick — exact virtual-time multiples on
// the simulation thread — so alerts fire and clear at deterministic
// sim-times and two same-seed runs produce byte-identical alert logs. That
// determinism is what makes alerting testable here and what the Packrat-style
// online reconfiguration controller (ROADMAP) needs as its input signal.
//
// Three rule families:
//
//   - ThresholdRule   gauge value or counter derivative (rate/s) vs a
//                     threshold, with hysteresis (separate clear level,
//                     consecutive-tick debounce). Aggregation: sum or max
//                     over the matched instruments, or per-instrument — the
//                     latter turns one rule into one alert instance per
//                     matched instrument (e.g. per-node fleet health).
//   - BurnRateRule    multi-window SLO burn rate over a latency histogram
//                     (Google SRE workbook style): the fraction of requests
//                     over the SLO in a short AND a long trailing window,
//                     both normalized by the error budget (1 - target), must
//                     exceed the threshold to fire. The short window makes
//                     detection fast; the long window keeps blips from
//                     paging.
//   - StallRule       a progress counter that stops advancing for N ticks
//                     while an optional arming gauge shows outstanding work —
//                     the "server is wedged, not idle" watchdog.
//
// On fire/resolve the engine appends to an in-memory deterministic log,
// emits a trace instant event on the "alerts" track, increments
// obs_alerts_{fired,resolved}_total{alert=...} counters, and records a
// labeled snapshot of the top contributing instruments in the log line. A
// firing alert can also flip a trace::TraceSampler into full sampling
// (triggered capture) for the alert window plus a hold-off, so the causal
// traces of the anomalous interval are captured wholesale.
//
// Rules read the recorder's per-tick sample (and the one before it for
// rates and interval audits), never the registry: only burn-rate rules make
// their own read, of histogram bucket counts, which the sample does not
// carry. The recorder times the engine into a wall-clock counter
// (obs_alert_engine_self_seconds_total), excluded from deterministic
// exports like the recorder's own self-time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "obs/little.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "trace/span_context.h"

namespace serve::obs {

/// Threshold / derivative rule over counters and gauges.
struct ThresholdRule {
  std::string name;              ///< alert name, e.g. "queue-depth-high"
  std::string instrument;        ///< registry instrument name to watch
  metrics::Labels label_filter;  ///< subset match; empty matches all instances

  /// kValue watches the sampled value (gauges); kRate watches the per-second
  /// derivative between consecutive ticks (counters). An instrument's first
  /// sampled tick is its baseline: no rate yet, so it cannot breach.
  enum class Signal : std::uint8_t { kValue, kRate };
  Signal signal = Signal::kValue;

  /// How multiple matched instruments combine: one aggregate alert over the
  /// sum or max, or an independent alert instance per instrument (the alert
  /// name then carries the instrument's labels, e.g. "node-unhealthy{node=1}").
  enum class Agg : std::uint8_t { kSum, kMax, kPerInstrument };
  Agg agg = Agg::kSum;

  // Exactly one direction must be set. Hysteresis: an above-rule clears only
  // when the signal drops to clear_below (defaults to the fire level); a
  // below-rule clears at clear_above.
  double fire_above = std::numeric_limits<double>::infinity();
  double fire_below = -std::numeric_limits<double>::infinity();
  double clear_below = std::numeric_limits<double>::quiet_NaN();
  double clear_above = std::numeric_limits<double>::quiet_NaN();

  int for_ticks = 1;        ///< consecutive breaching ticks before firing
  int clear_for_ticks = 1;  ///< consecutive clear ticks before resolving
};

/// Multi-window SLO burn-rate rule over a latency histogram.
struct BurnRateRule {
  std::string name;  ///< e.g. "slo-burn-rate"
  std::string histogram = "serving_request_latency_seconds";
  metrics::Labels label_filter;

  double slo_s = 0.25;     ///< latency objective (seconds)
  double target = 0.99;    ///< attainment objective (fraction <= slo_s)
  /// Burn = (observed error rate) / (error budget). 1.0 = burning exactly at
  /// budget; both windows must exceed this to fire.
  double burn_threshold = 4.0;
  int short_window_ticks = 5;
  int long_window_ticks = 30;
  int clear_for_ticks = 3;  ///< short-window burn below threshold this long
};

/// Little's-law audit: per-tick comparison of the two integral counters
///
///   L   = Δ(occupancy time integral) / dt     (time-average in-system count)
///   λ·W = Δ(completion-charged latency sum) / dt
///
/// Every completed request contributes its full latency to `latency_sum` at
/// its terminal instant and exactly that much area to `occupancy_integral`
/// spread over its lifetime — so in steady state the per-tick derivatives
/// agree and L ≈ λ·W holds tick by tick. The two split apart only while
/// backlog is growing (L > λ·W: area accrues now, charge lands later) or
/// draining (the reverse) — precisely the transients fault windows cause.
/// The audit therefore doubles as a conservation check on the telemetry
/// itself *and* a backlog-transient detector.
struct LittleLawRule {
  std::string name = "littles-law";
  /// Counter: time integral of in-system requests (value-seconds).
  std::string occupancy_integral = "serving_in_flight_seconds_total";
  /// Counter: sum of request latencies charged at completion (seconds).
  std::string latency_sum = "serving_latency_seconds_total";
  metrics::Labels label_filter;  ///< applied to both instruments
  double tolerance = kLittleTolerance;        ///< see obs/little.h
  double min_occupancy = kLittleMinOccupancy;  ///< near-idle floor
  int for_ticks = 2;
  int clear_for_ticks = 2;
};

/// Progress watchdog: fires when `progress` stops advancing while work is
/// outstanding.
struct StallRule {
  std::string name;         ///< e.g. "progress-stall"
  std::string progress;     ///< counter that must keep advancing
  std::string armed_gauge;  ///< only watch while this gauge > armed_above
  double armed_above = 0.0;
  int for_ticks = 5;
  int clear_for_ticks = 1;
};

/// One fire/resolve transition, in evaluation order.
struct AlertEvent {
  sim::Time t = 0;
  std::string alert;   ///< instance name (rule name + labels when per-instrument)
  bool firing = false; ///< true = FIRING, false = RESOLVED
  double value = 0.0;  ///< signal value at the transition
  double threshold = 0.0;
  std::string detail;  ///< top contributing instruments / window breakdown
};

class AlertEngine {
 public:
  explicit AlertEngine(metrics::Registry& registry);

  // Rule registration (before or after attach; instruments may register
  // later and join evaluation when they appear).
  void add_threshold(ThresholdRule rule);
  void add_burn_rate(BurnRateRule rule);
  void add_stall(StallRule rule);
  void add_littles_law(LittleLawRule rule);

  /// Rides the recorder's cadence: every rule is evaluated against each
  /// tick's sample (drive ticks with FlightRecorder::step or start). The
  /// engine must outlive the recorder's sampling window.
  void attach(metrics::FlightRecorder& recorder);

  /// Alert transitions also become instant events on the "alerts" track.
  void set_trace(sim::TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Triggered capture: while any alert is firing (plus `hold_ticks` after
  /// the last one resolves) the sampler is forced into full sampling.
  void set_triggered_sampler(trace::TraceSampler* sampler, int hold_ticks = 5);
  /// Drops the sampler binding (the runner calls this before the sampler's
  /// owner is destroyed).
  void release_triggered_sampler() noexcept;

  [[nodiscard]] const std::vector<AlertEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t active_alerts() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t fired_total() const noexcept { return fired_total_; }
  /// True when any event (past or present) fired under this instance name.
  [[nodiscard]] bool ever_fired(const std::string& alert) const;
  /// Ticks spent with the sampler forced (triggered-capture window length).
  [[nodiscard]] std::uint64_t capture_ticks() const noexcept { return capture_ticks_; }

  /// Deterministic text log, one line per transition:
  ///   t=<s> FIRING <alert> value=<v> threshold=<t> <detail>
  /// Same seed, same rules => byte-identical text.
  void write_log(std::ostream& out) const;
  [[nodiscard]] std::string log_text() const;

  /// Wall-clock seconds the recorder spent in this engine's tick listener
  /// (self-overhead; excluded from deterministic exports).
  [[nodiscard]] double self_seconds() const noexcept { return self_time_.value(); }

 private:
  // Shared fire/clear hysteresis state machine.
  struct AlertState {
    bool firing = false;
    int breach_ticks = 0;
    int clear_ticks = 0;
  };

  /// obs_alerts_{fired,resolved}_total{alert=<rule name>}.
  struct AlertCounters {
    metrics::Counter fired;
    metrics::Counter resolved;
  };
  [[nodiscard]] AlertCounters counters_for(const std::string& rule_name);

  /// Incremental instrument matcher (instruments only append and indices
  /// are stable, so each tick classifies only the newly registered ones).
  /// Matches `name` with `filter` as a label subset; `unlabeled_only` rules
  /// watch instruments without labels. Wall-clock instruments never match.
  struct Matcher {
    Matcher() = default;
    Matcher(std::string n, metrics::Labels f, bool unlabeled = false)
        : name(std::move(n)), filter(std::move(f)), unlabeled_only(unlabeled) {}

    std::string name;
    metrics::Labels filter;
    bool unlabeled_only = false;
    std::vector<std::size_t> matched;  ///< registry indices, registration order
    std::size_t scanned_until = 0;
  };

  struct ThresholdState {
    ThresholdRule rule;
    AlertCounters counters;
    AlertState agg_state;  ///< kSum / kMax
    Matcher match;
    std::vector<AlertState> per_state;  ///< kPerInstrument; aligned with match.matched
  };

  struct BurnWindowSample {
    std::uint64_t count = 0;  ///< cumulative histogram count at this tick
    double bad = 0.0;         ///< cumulative samples above slo (interpolated)
  };

  struct BurnState {
    BurnRateRule rule;
    AlertCounters counters;
    AlertState state;
    Matcher match;
    std::deque<BurnWindowSample> window;  ///< trailing long_window_ticks + 1
  };

  struct StallState {
    StallRule rule;
    AlertCounters counters;
    AlertState state;
    int stalled_ticks = 0;
    Matcher progress;  ///< the first match is watched
    Matcher armed;     ///< the first match arms the rule (unused when unnamed)
  };

  struct LittleState {
    LittleLawRule rule;
    AlertCounters counters;
    /// obs_little_law_deviation_ticks_total{alert=...}: every breaching tick,
    /// independent of the hysteresis machine — the audit's raw signal.
    metrics::Counter deviation_ticks;
    AlertState state;
    Matcher occ;  ///< occupancy-integral instruments
    Matcher lat;  ///< latency-sum instruments
  };

  /// Classifies the instruments registered since the last scan; `n` is the
  /// tick's instrument count.
  void scan(Matcher& m, std::size_t n) const;
  void evaluate(const metrics::Tick& tick);
  void evaluate_threshold(ThresholdState& st, const metrics::Tick& tick);
  void evaluate_burn(BurnState& st, const metrics::Tick& tick);
  void evaluate_stall(StallState& st, const metrics::Tick& tick);
  void evaluate_little(LittleState& st, const metrics::Tick& tick);

  /// Advances the hysteresis state machine; returns +1 on fire, -1 on
  /// resolve, 0 otherwise.
  static int step_state(AlertState& state, bool breach, bool clear_ok, int for_ticks,
                        int clear_for_ticks);

  void transition(sim::Time now, const std::string& alert, bool firing, double value,
                  double threshold, std::string detail, AlertCounters& counters);
  [[nodiscard]] std::string instance_name(const ThresholdRule& rule, std::size_t reg_index) const;
  /// "top: a{x=1}=3 b=2" — top matched instruments by sampled value, for the
  /// log line.
  [[nodiscard]] std::string top_contributors(const metrics::Tick& tick,
                                             const std::vector<std::size_t>& matched,
                                             std::size_t limit = 3) const;

  metrics::Registry& registry_;
  sim::TraceRecorder* trace_ = nullptr;
  trace::TraceSampler* sampler_ = nullptr;
  int capture_hold_ticks_ = 5;
  std::uint64_t last_active_tick_ = 0;
  bool capture_on_ = false;
  std::uint64_t capture_ticks_ = 0;

  std::vector<ThresholdState> thresholds_;
  std::vector<BurnState> burns_;
  std::vector<StallState> stalls_;
  std::vector<LittleState> littles_;

  std::vector<AlertEvent> events_;
  std::size_t active_ = 0;
  std::uint64_t fired_total_ = 0;

  metrics::Gauge active_gauge_;
  metrics::Counter self_time_;  ///< wall-clock, excluded from exports
};

}  // namespace serve::obs
