#include "obs/capacity_plane.h"

#include <algorithm>
#include <cmath>

namespace serve::obs {

metrics::Stage stage_for_resource(std::string_view device, std::string_view engine) noexcept {
  using metrics::Stage;
  if (engine == "preproc_workers" || engine == "preproc") return Stage::kPreprocess;
  if (engine == "compute") return Stage::kInference;
  if (engine == "pcie" || engine == "copy_h2d" || engine == "copy_d2h") return Stage::kTransfer;
  if (device == "broker" || engine == "io") return Stage::kBroker;
  return Stage::kIngest;  // host cores & anything unknown: web-stack work
}

CapacityPlane::CapacityPlane(metrics::Registry& registry, Options opts)
    : registry_(registry), opts_(opts) {
  violations_m_ = registry_.counter("obs_capacity_little_violations_total");
  self_time_ = registry_.wall_clock_counter("obs_capacity_plane_self_seconds_total");
}

void CapacityPlane::attach(metrics::FlightRecorder& recorder) {
  period_s_ = sim::to_seconds(recorder.period());
  recorder.add_tick_listener([this](const metrics::Tick& tick) { observe(tick); }, self_time_);
}

std::size_t CapacityPlane::resource_slot(const std::string& device, const std::string& engine) {
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (resources_[i].device == device && resources_[i].engine == engine) return i;
  }
  ResourceTimeline tl;
  tl.device = device;
  tl.engine = engine;
  // Back-fill intervals observed before this resource registered: absent
  // means "not yet modeled", which for attribution equals idle.
  tl.busy_frac.assign(binding_.size(), 0.0);
  tl.queue_mean.assign(binding_.size(), 0.0);
  resources_.push_back(std::move(tl));
  states_.emplace_back();
  return resources_.size() - 1;
}

void CapacityPlane::scan_new_instruments(std::size_t n) {
  for (std::size_t i = scanned_until_; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock) continue;
    const std::string& name = info.name;
    const bool is_busy = name == "hw_resource_busy_seconds_total";
    const bool is_queue = name == "hw_resource_queue_seconds_total";
    const bool is_cap = name == "hw_resource_capacity";
    if (is_busy || is_queue || is_cap) {
      std::string device, engine;
      for (const auto& [k, v] : info.labels) {
        if (k == "device") device = v;
        else if (k == "engine") engine = v;
      }
      const std::size_t slot = resource_slot(device, engine);
      if (is_busy) states_[slot].busy_idx = i;
      else if (is_queue) states_[slot].queue_idx = i;
      else states_[slot].capacity_idx = i;
      continue;
    }
    if (info.labels.empty()) {
      if (name == opts_.demand_counter) demand_idx_ = i;
      else if (name == "serving_in_flight_seconds_total") occ_idx_ = i;
      else if (name == "serving_latency_seconds_total") lat_idx_ = i;
    }
  }
  scanned_until_ = n;
}

void CapacityPlane::observe(const metrics::Tick& tick) {
  scan_new_instruments(tick.values.size());
  if (tick.dt_s <= 0.0) return;  // the first tick is every counter's baseline
  const double dt_s = tick.dt_s;
  // Growth of counter `i` over the interval; 0 while it has no baseline
  // (kNoIndex, or instruments that appeared this tick).
  const auto delta = [&tick](std::size_t i) {
    return tick.has_prev(i) ? tick.values[i] - tick.prev[i] : 0.0;
  };

  std::size_t best = kIdle;
  double best_frac = opts_.idle_floor;
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const ResourceState& st = states_[r];
    double frac = 0.0, qmean = 0.0;
    if (st.busy_idx != kNoIndex) {
      const double cap =
          st.capacity_idx != kNoIndex ? std::max(1.0, tick.values[st.capacity_idx]) : 1.0;
      frac = std::clamp(delta(st.busy_idx) / (dt_s * cap), 0.0, 1.0);
      qmean = std::max(0.0, delta(st.queue_idx) / dt_s);
      resources_[r].capacity = cap;
    }
    resources_[r].busy_frac.push_back(frac);
    resources_[r].queue_mean.push_back(qmean);
    // Argmax with strict > : ties (and everything under the floor) resolve
    // toward the earlier registration — deterministic by construction.
    if (frac > best_frac) {
      best_frac = frac;
      best = r;
    }
  }
  binding_.push_back(best);

  // Demand rate λ for the headroom estimator.
  lambda_.push_back(std::max(0.0, delta(demand_idx_) / dt_s));

  // Little's-law audit sample.
  LittleSample ls;
  if (tick.has_prev(occ_idx_) && tick.has_prev(lat_idx_)) {
    ls = little_sample(delta(occ_idx_), delta(lat_idx_), dt_s, opts_.little_tolerance,
                       opts_.little_min_occupancy);
  }
  if (ls.violated) {
    ++violations_;
    violations_m_.inc();
  }
  little_.push_back(ls);
}

std::vector<BindingSegment> CapacityPlane::segments() const {
  std::vector<BindingSegment> out;
  for (std::size_t i = 0; i < binding_.size(); ++i) {
    if (!out.empty() && out.back().resource == binding_[i]) {
      out.back().end = i + 1;
    } else {
      out.push_back(BindingSegment{i, i + 1, binding_[i]});
    }
  }
  return out;
}

std::size_t CapacityPlane::dominant_resource() const {
  std::vector<std::size_t> counts(resources_.size(), 0);
  for (const std::size_t b : binding_) {
    if (b != kIdle) ++counts[b];
  }
  std::size_t best = kIdle, best_count = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (counts[r] > best_count) {
      best_count = counts[r];
      best = r;
    }
  }
  return best;
}

metrics::Stage CapacityPlane::dominant_stage() const {
  const std::size_t r = dominant_resource();
  if (r == kIdle) return metrics::Stage::kIngest;
  return stage_for_resource(resources_[r].device, resources_[r].engine);
}

std::vector<std::size_t> CapacityPlane::violation_intervals() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < little_.size(); ++i) {
    if (little_[i].violated) out.push_back(i);
  }
  return out;
}

double CapacityPlane::sustainable_rps() const {
  std::vector<double> estimates;
  for (std::size_t i = 0; i < binding_.size(); ++i) {
    const std::size_t b = binding_[i];
    if (b == kIdle || i >= lambda_.size()) continue;
    const double u = resources_[b].busy_frac[i];
    if (u < opts_.headroom_min_util || u > opts_.headroom_max_util) continue;
    if (lambda_[i] <= 0.0) continue;
    estimates.push_back(lambda_[i] / u);
  }
  if (estimates.empty()) return 0.0;
  // Deterministic median (lower-of-two for even counts): robust against the
  // warmup and drain intervals that an average would let skew the knee.
  std::sort(estimates.begin(), estimates.end());
  return estimates[(estimates.size() - 1) / 2];
}

metrics::CapacitySnapshot CapacityPlane::snapshot() const {
  metrics::CapacitySnapshot snap;
  snap.period_s = period_s_;
  snap.resources.reserve(resources_.size());
  for (const auto& r : resources_) {
    metrics::CapacitySnapshot::Resource res;
    res.device = r.device;
    res.engine = r.engine;
    res.capacity = r.capacity;
    res.busy_frac = r.busy_frac;
    res.queue_mean = r.queue_mean;
    snap.resources.push_back(std::move(res));
  }
  for (const auto& seg : segments()) {
    metrics::CapacitySnapshot::Segment s;
    s.begin = seg.begin;
    s.end = seg.end;
    s.resource = seg.resource == kIdle ? "idle" : resources_[seg.resource].label();
    snap.segments.push_back(std::move(s));
  }
  snap.little_l.reserve(little_.size());
  snap.little_lambda_w.reserve(little_.size());
  for (const auto& ls : little_) {
    snap.little_l.push_back(ls.l);
    snap.little_lambda_w.push_back(ls.lambda_w);
  }
  for (const std::size_t v : violation_intervals()) snap.violation_intervals.push_back(v);
  snap.sustainable_rps = sustainable_rps();
  const std::size_t dom = dominant_resource();
  snap.binding = dom == kIdle ? "idle" : resources_[dom].label();
  snap.binding_stage = std::string(metrics::stage_name(dominant_stage()));
  return snap;
}

}  // namespace serve::obs
