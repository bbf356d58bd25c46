// Platform-level tracing: streams every device engine's occupancy into a
// TraceRecorder as Chrome-trace counters.
#pragma once

#include <string>
#include <string_view>

#include "hw/devices.h"
#include "sim/trace.h"

namespace serve::hw {

namespace detail {

/// Interns `track` once; each occupancy change then records a POD sample
/// keyed by the id, with no string copy.
inline void attach_counter(sim::Simulator& sim, sim::TraceRecorder& trace, sim::Resource& res,
                           std::string_view track) {
  const sim::TrackId id = trace.track_id(track);
  trace.counter(id, 0.0, sim.now());
  res.set_change_observer([&sim, &trace, id](std::size_t in_use) {
    trace.counter(id, static_cast<double>(in_use), sim.now());
  });
}

}  // namespace detail

/// Attaches occupancy counters for every engine of the platform. The
/// recorder must outlive the platform's simulation activity.
inline void attach_tracer(Platform& platform, sim::TraceRecorder& trace) {
  auto& sim = platform.sim();
  detail::attach_counter(sim, trace, platform.cpu().cores(), "cpu.cores");
  detail::attach_counter(sim, trace, platform.cpu().preproc_workers(), "cpu.preproc_workers");
  detail::attach_counter(sim, trace, platform.host_link(), "pcie.host");
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) {
    const std::string prefix = "gpu" + std::to_string(i) + ".";
    GpuModel& g = platform.gpu(i);
    detail::attach_counter(sim, trace, g.compute(), prefix + "compute");
    detail::attach_counter(sim, trace, g.preproc(), prefix + "preproc");
    detail::attach_counter(sim, trace, g.copy_h2d(), prefix + "copy_h2d");
    detail::attach_counter(sim, trace, g.copy_d2h(), prefix + "copy_d2h");
  }
}

}  // namespace serve::hw
