#include "obs/alert_engine.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "metrics/export.h"

namespace serve::obs {

namespace {

std::string flat_labels(const metrics::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace

AlertEngine::AlertEngine(metrics::Registry& registry) : registry_(registry) {
  active_gauge_ = registry_.gauge("obs_alerts_active");
  self_time_ = registry_.wall_clock_counter("obs_alert_engine_self_seconds_total");
}

AlertEngine::AlertCounters AlertEngine::counters_for(const std::string& rule_name) {
  return {registry_.counter("obs_alerts_fired_total", {{"alert", rule_name}}),
          registry_.counter("obs_alerts_resolved_total", {{"alert", rule_name}})};
}

void AlertEngine::add_threshold(ThresholdRule rule) {
  const bool has_above = std::isfinite(rule.fire_above);
  const bool has_below = std::isfinite(rule.fire_below);
  if (has_above == has_below) {
    throw std::invalid_argument("ThresholdRule '" + rule.name +
                                "': set exactly one of fire_above / fire_below");
  }
  ThresholdState st;
  st.counters = counters_for(rule.name);
  st.match = {rule.instrument, rule.label_filter};
  st.rule = std::move(rule);
  thresholds_.push_back(std::move(st));
}

void AlertEngine::add_burn_rate(BurnRateRule rule) {
  if (!(rule.target > 0.0) || !(rule.target < 1.0)) {
    throw std::invalid_argument("BurnRateRule '" + rule.name + "': target must be in (0, 1)");
  }
  if (rule.short_window_ticks <= 0 || rule.long_window_ticks < rule.short_window_ticks) {
    throw std::invalid_argument("BurnRateRule '" + rule.name +
                                "': require 0 < short_window_ticks <= long_window_ticks");
  }
  BurnState st;
  st.counters = counters_for(rule.name);
  st.match = {rule.histogram, rule.label_filter};
  st.rule = std::move(rule);
  burns_.push_back(std::move(st));
}

void AlertEngine::add_stall(StallRule rule) {
  StallState st;
  st.counters = counters_for(rule.name);
  // Name-only rules: they watch unlabeled instruments.
  st.progress = {rule.progress, {}, /*unlabeled=*/true};
  st.armed = {rule.armed_gauge, {}, /*unlabeled=*/true};
  st.rule = std::move(rule);
  stalls_.push_back(std::move(st));
}

void AlertEngine::add_littles_law(LittleLawRule rule) {
  if (!(rule.tolerance > 0.0)) {
    throw std::invalid_argument("LittleLawRule '" + rule.name + "': tolerance must be > 0");
  }
  LittleState st;
  st.counters = counters_for(rule.name);
  st.deviation_ticks =
      registry_.counter("obs_little_law_deviation_ticks_total", {{"alert", rule.name}});
  st.occ = {rule.occupancy_integral, rule.label_filter};
  st.lat = {rule.latency_sum, rule.label_filter};
  st.rule = std::move(rule);
  littles_.push_back(std::move(st));
}

void AlertEngine::attach(metrics::FlightRecorder& recorder) {
  recorder.add_tick_listener([this](const metrics::Tick& tick) { evaluate(tick); }, self_time_);
}

void AlertEngine::set_triggered_sampler(trace::TraceSampler* sampler, int hold_ticks) {
  sampler_ = sampler;
  capture_hold_ticks_ = hold_ticks < 0 ? 0 : hold_ticks;
}

void AlertEngine::release_triggered_sampler() noexcept {
  if (sampler_ != nullptr && capture_on_) sampler_->set_forced(false);
  sampler_ = nullptr;
  capture_on_ = false;
}

void AlertEngine::scan(Matcher& m, std::size_t n) const {
  for (std::size_t i = m.scanned_until; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock || info.name != m.name) continue;
    if (m.unlabeled_only && !info.labels.empty()) continue;
    const bool has_filter = std::all_of(m.filter.begin(), m.filter.end(), [&](const auto& want) {
      return std::find(info.labels.begin(), info.labels.end(), want) != info.labels.end();
    });
    if (has_filter) m.matched.push_back(i);
  }
  m.scanned_until = n;
}

int AlertEngine::step_state(AlertState& state, bool breach, bool clear_ok, int for_ticks,
                            int clear_for_ticks) {
  if (!state.firing) {
    if (breach) {
      if (++state.breach_ticks >= for_ticks) {
        state.firing = true;
        state.breach_ticks = 0;
        state.clear_ticks = 0;
        return +1;
      }
    } else {
      state.breach_ticks = 0;
    }
  } else {
    if (clear_ok) {
      if (++state.clear_ticks >= clear_for_ticks) {
        state.firing = false;
        state.breach_ticks = 0;
        state.clear_ticks = 0;
        return -1;
      }
    } else {
      state.clear_ticks = 0;
    }
  }
  return 0;
}

std::string AlertEngine::instance_name(const ThresholdRule& rule, std::size_t reg_index) const {
  const auto info = registry_.info(reg_index);
  const std::string flat = flat_labels(info.labels);
  if (flat.empty()) return rule.name;
  return rule.name + '{' + flat + '}';
}

std::string AlertEngine::top_contributors(const metrics::Tick& tick,
                                          const std::vector<std::size_t>& matched,
                                          std::size_t limit) const {
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(matched.size());
  for (const std::size_t i : matched) ranked.emplace_back(tick.values[i], i);
  // Descending by value; registry index breaks ties so the order (and the
  // log bytes) stay deterministic.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (ranked.size() > limit) ranked.resize(limit);
  std::string out = "top:";
  for (const auto& [v, i] : ranked) {
    const auto info = registry_.info(i);
    out += ' ';
    out += info.name;
    const std::string flat = flat_labels(info.labels);
    if (!flat.empty()) {
      out += '{';
      out += flat;
      out += '}';
    }
    out += '=';
    out += metrics::format_double(v);
  }
  return out;
}

void AlertEngine::transition(sim::Time now, const std::string& alert, bool firing, double value,
                             double threshold, std::string detail, AlertCounters& counters) {
  AlertEvent ev;
  ev.t = now;
  ev.alert = alert;
  ev.firing = firing;
  ev.value = value;
  ev.threshold = threshold;
  ev.detail = std::move(detail);
  if (firing) {
    ++active_;
    ++fired_total_;
    counters.fired.inc();
  } else {
    if (active_ > 0) --active_;
    counters.resolved.inc();
  }
  if (trace_ != nullptr) {
    trace_->instant("alerts", alert + (firing ? " firing" : " resolved"), now,
                    {{"value", metrics::format_double(value)},
                     {"threshold", metrics::format_double(threshold)},
                     {"detail", ev.detail}});
  }
  events_.push_back(std::move(ev));
}

void AlertEngine::evaluate_threshold(ThresholdState& st, const metrics::Tick& tick) {
  scan(st.match, tick.values.size());
  const std::vector<std::size_t>& matched = st.match.matched;
  st.per_state.resize(matched.size());
  const ThresholdRule& r = st.rule;
  const bool above = std::isfinite(r.fire_above);
  const double fire_level = above ? r.fire_above : r.fire_below;
  const double clear_level = above ? (std::isnan(r.clear_below) ? r.fire_above : r.clear_below)
                                   : (std::isnan(r.clear_above) ? r.fire_below : r.clear_above);

  // Per-instrument signal (value or rate); a rate needs a baseline.
  const auto signal_at = [&](std::size_t i) -> std::pair<double, bool> {
    if (r.signal == ThresholdRule::Signal::kValue) return {tick.values[i], true};
    if (!tick.has_prev(i) || tick.dt_s <= 0.0) return {0.0, false};
    return {(tick.values[i] - tick.prev[i]) / tick.dt_s, true};
  };

  const auto judge = [&](double v, bool valid) -> std::pair<bool, bool> {
    if (!valid) return {false, true};  // no signal: no breach, clears freely
    const bool breach = above ? v > fire_level : v < fire_level;
    const bool clear_ok = above ? v <= clear_level : v >= clear_level;
    return {breach, clear_ok};
  };

  if (r.agg == ThresholdRule::Agg::kPerInstrument) {
    for (std::size_t k = 0; k < matched.size(); ++k) {
      const auto [v, valid] = signal_at(matched[k]);
      const auto [breach, clear_ok] = judge(v, valid);
      const int step = step_state(st.per_state[k], breach, clear_ok, r.for_ticks,
                                  r.clear_for_ticks);
      if (step != 0) {
        transition(tick.now, instance_name(r, matched[k]), step > 0, v, fire_level,
                   top_contributors(tick, {matched[k]}, 1), st.counters);
      }
    }
    return;
  }

  double agg = r.agg == ThresholdRule::Agg::kMax ? -std::numeric_limits<double>::infinity() : 0.0;
  bool any = false;
  for (const std::size_t i : matched) {
    const auto [v, valid] = signal_at(i);
    if (!valid) continue;
    any = true;
    if (r.agg == ThresholdRule::Agg::kMax) {
      agg = std::max(agg, v);
    } else {
      agg += v;
    }
  }
  if (!any) agg = 0.0;
  const auto [breach, clear_ok] = judge(agg, any);
  const int step = step_state(st.agg_state, breach, clear_ok, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    transition(tick.now, r.name, step > 0, agg, fire_level, top_contributors(tick, matched),
               st.counters);
  }
}

void AlertEngine::evaluate_burn(BurnState& st, const metrics::Tick& tick) {
  scan(st.match, tick.values.size());
  const BurnRateRule& r = st.rule;

  // Cumulative (count, over-SLO count) across the matched histograms at this
  // tick; windows difference these cumulative samples, so a flight-recorder
  // ring wrap cannot perturb them — the engine owns its trailing window.
  BurnWindowSample cur;
  for (const std::size_t i : st.match.matched) {
    const auto [count, good] = registry_.histogram_count_below(i, r.slo_s);
    cur.count += count;
    cur.bad += static_cast<double>(count) - good;
  }
  st.window.push_back(cur);
  const std::size_t keep = static_cast<std::size_t>(r.long_window_ticks) + 1;
  while (st.window.size() > keep) st.window.pop_front();

  const auto burn_over = [&](int ticks) -> double {
    const std::size_t len = st.window.size();
    if (len < 2) return 0.0;
    const std::size_t back = std::min<std::size_t>(static_cast<std::size_t>(ticks), len - 1);
    const BurnWindowSample& old = st.window[len - 1 - back];
    const double dcount = static_cast<double>(cur.count - old.count);
    if (dcount <= 0.0) return 0.0;
    const double dbad = std::max(0.0, cur.bad - old.bad);
    return (dbad / dcount) / (1.0 - r.target);
  };

  const double burn_short = burn_over(r.short_window_ticks);
  const double burn_long = burn_over(r.long_window_ticks);
  const bool breach = burn_short >= r.burn_threshold && burn_long >= r.burn_threshold;
  const bool clear_ok = burn_short < r.burn_threshold;
  const int step = step_state(st.state, breach, clear_ok, /*for_ticks=*/1, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "burn_short=" + metrics::format_double(burn_short) +
                         " burn_long=" + metrics::format_double(burn_long) +
                         " slo_s=" + metrics::format_double(r.slo_s) + ' ' +
                         top_contributors(tick, st.match.matched);
    transition(tick.now, r.name, step > 0, burn_short, r.burn_threshold, std::move(detail),
               st.counters);
  }
}

void AlertEngine::evaluate_stall(StallState& st, const metrics::Tick& tick) {
  scan(st.progress, tick.values.size());
  const StallRule& r = st.rule;
  if (st.progress.matched.empty()) return;
  const std::size_t p_idx = st.progress.matched.front();
  const double p = tick.values[p_idx];
  bool armed = true;
  double outstanding = 0.0;
  if (!r.armed_gauge.empty()) {
    scan(st.armed, tick.values.size());
    if (!st.armed.matched.empty()) outstanding = tick.values[st.armed.matched.front()];
    armed = outstanding > r.armed_above;
  }
  const bool breach = tick.has_prev(p_idx) && armed && p == tick.prev[p_idx];
  st.stalled_ticks = breach ? st.stalled_ticks + 1 : 0;
  const int step = step_state(st.state, breach, !breach, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "progress=" + metrics::format_double(p) +
                         " stalled_ticks=" + std::to_string(st.stalled_ticks) +
                         " outstanding=" + metrics::format_double(outstanding);
    transition(tick.now, r.name, step > 0, p, 0.0, std::move(detail), st.counters);
  }
}

void AlertEngine::evaluate_little(LittleState& st, const metrics::Tick& tick) {
  scan(st.occ, tick.values.size());
  scan(st.lat, tick.values.size());
  const LittleLawRule& r = st.rule;
  const std::vector<std::size_t>& occ = st.occ.matched;
  const std::vector<std::size_t>& lat = st.lat.matched;
  // The interval needs a baseline: the first matched instrument of each
  // kind sampled last tick. Later joiners count from 0.
  if (occ.empty() || lat.empty() || !tick.has_prev(occ.front()) ||
      !tick.has_prev(lat.front()) || tick.dt_s <= 0.0) {
    return;
  }
  const auto growth = [&tick](const std::vector<std::size_t>& matched) {
    double now = 0.0, before = 0.0;
    for (const std::size_t i : matched) {
      now += tick.values[i];
      if (tick.has_prev(i)) before += tick.prev[i];
    }
    return now - before;
  };
  // L and λW are both time-averages over this tick's interval, derived from
  // monotone counters — immune to sampling phase by construction.
  const LittleSample ls =
      little_sample(growth(occ), growth(lat), tick.dt_s, r.tolerance, r.min_occupancy);
  if (ls.violated) st.deviation_ticks.inc();
  const int step =
      step_state(st.state, ls.violated, !ls.violated, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "L=" + metrics::format_double(ls.l) +
                         " lambda_w=" + metrics::format_double(ls.lambda_w) +
                         " deviation=" + metrics::format_double(ls.deviation);
    transition(tick.now, r.name, step > 0, ls.deviation, r.tolerance, std::move(detail),
               st.counters);
  }
}

void AlertEngine::evaluate(const metrics::Tick& tick) {
  for (auto& st : thresholds_) evaluate_threshold(st, tick);
  for (auto& st : burns_) evaluate_burn(st, tick);
  for (auto& st : stalls_) evaluate_stall(st, tick);
  for (auto& st : littles_) evaluate_little(st, tick);

  active_gauge_.set(static_cast<double>(active_));

  if (sampler_ != nullptr) {
    if (active_ > 0) {
      last_active_tick_ = tick.index;
      capture_on_ = true;
    } else if (capture_on_ &&
               tick.index > last_active_tick_ + static_cast<std::uint64_t>(capture_hold_ticks_)) {
      capture_on_ = false;
    }
    sampler_->set_forced(capture_on_);
    if (capture_on_) ++capture_ticks_;
  }
}

bool AlertEngine::ever_fired(const std::string& alert) const {
  for (const auto& ev : events_) {
    if (ev.firing && ev.alert == alert) return true;
  }
  return false;
}

void AlertEngine::write_log(std::ostream& out) const {
  for (const auto& ev : events_) {
    out << "t=" << metrics::format_double(sim::to_seconds(ev.t)) << ' '
        << (ev.firing ? "FIRING" : "RESOLVED") << ' ' << ev.alert
        << " value=" << metrics::format_double(ev.value)
        << " threshold=" << metrics::format_double(ev.threshold);
    if (!ev.detail.empty()) out << ' ' << ev.detail;
    out << '\n';
  }
}

std::string AlertEngine::log_text() const {
  std::ostringstream out;
  write_log(out);
  return out.str();
}

}  // namespace serve::obs
