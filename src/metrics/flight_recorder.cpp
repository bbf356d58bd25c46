#include "metrics/flight_recorder.h"

#include <chrono>
#include <utility>

namespace serve::metrics {

FlightRecorder::FlightRecorder(Registry& registry, Options opts)
    : registry_(registry), opts_(opts) {
  if (opts_.period <= 0) opts_.period = sim::milliseconds(100);
  if (opts_.capacity == 0) opts_.capacity = 1;
  self_time_ = registry_.wall_clock_counter("telemetry_self_seconds_total");
}

void FlightRecorder::start(sim::Simulator& sim) {
  running_ = true;
  start_time_ = sim.now();
  step(sim.now());
  sim.schedule_after(opts_.period, [this, &sim] { tick(sim); });
}

void FlightRecorder::tick(sim::Simulator& sim) {
  if (!running_) return;  // stopped while this event was pending
  step(sim.now());
  sim.schedule_after(opts_.period, [this, &sim] { tick(sim); });
}

void FlightRecorder::step(sim::Time now) {
  std::swap(prev_, scratch_);
  sample();
  const Tick tick{.now = now,
                  .index = ticks_,
                  .dt_s = ticks_ == 0 ? 0.0 : sim::to_seconds(now - prev_now_),
                  .values = scratch_,
                  .prev = prev_};
  ++ticks_;
  prev_now_ = now;
  for (auto& l : listeners_) {
    const auto t0 = std::chrono::steady_clock::now();
    l.fn(tick);
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    l.self_time.inc(dt.count());
  }
}

void FlightRecorder::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  registry_.sample_values(scratch_);  // one lock for the whole tick
  const std::size_t n = scratch_.size();
  if (rings_.size() < n) {
    // Instruments registered after start() join mid-flight: their first
    // retained sample is this tick, earlier ticks are simply absent.
    rings_.resize(n);
    for (auto& ring : rings_) {
      if (ring.total == 0 && ring.buf.empty()) ring.first_tick = ticks_;
    }
  }
  // The wall-clock flag is fixed at registration; cache it per index so the
  // steady-state tick never re-reads instrument metadata.
  while (wall_clock_.size() < n) {
    wall_clock_.push_back(registry_.info(wall_clock_.size()).wall_clock ? 1 : 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (wall_clock_[i] != 0) continue;
    Ring& ring = rings_[i];
    const double v = scratch_[i];
    if (ring.buf.size() < opts_.capacity) {
      ring.buf.push_back(v);
    } else {
      // Overwrite the oldest slot; the ring's logical start advances.
      ring.buf[ring.total % opts_.capacity] = v;
      ++ring.first_tick;
    }
    ++ring.total;
  }
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  self_time_.inc(dt.count());
}

std::vector<FlightRecorder::Series> FlightRecorder::series() const {
  std::vector<Series> out;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock) continue;
    const Ring& ring = rings_[i];
    Series s;
    s.name = info.name;
    s.labels = info.labels;
    s.type = info.type;
    s.start_tick = ring.first_tick;
    s.total_samples = ring.total;
    if (ring.buf.size() < opts_.capacity) {
      s.samples = ring.buf;
    } else {
      // Unroll the ring: oldest retained sample sits at total % capacity.
      const std::size_t head = static_cast<std::size_t>(ring.total % opts_.capacity);
      s.samples.reserve(ring.buf.size());
      s.samples.insert(s.samples.end(), ring.buf.begin() + static_cast<std::ptrdiff_t>(head),
                       ring.buf.end());
      s.samples.insert(s.samples.end(), ring.buf.begin(),
                       ring.buf.begin() + static_cast<std::ptrdiff_t>(head));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace serve::metrics
