// One run lifecycle shared by every workload runner (single server, fleet,
// face pipeline, video pipeline).
//
// A runner builds its world on Run::sim(), registers its servers, spawns
// its load, and hands execute() the few steps that differ. Run owns the
// measurement protocol, so every workload is measured the same way:
//
//   start recorder -> warmup -> open window -> measure -> stop recorder at
//   the window edge -> close window -> drain (stop load, run dry, shut the
//   servers and close channels, run dry) -> sum audits -> release the alert
//   engine's sampler binding -> freeze the registry callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "obs/alert_engine.h"
#include "serving/server.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "trace/causal.h"

namespace serve::core {

/// Optional telemetry and fault schedule a run is wired to (all may be null).
struct RunHooks {
  sim::TraceRecorder* trace = nullptr;
  trace::CausalTracer* tracer = nullptr;
  const sim::FaultPlan* faults = nullptr;
  metrics::Registry* registry = nullptr;
  metrics::FlightRecorder* recorder = nullptr;
  obs::AlertEngine* alerts = nullptr;
};

/// The per-runner steps of the lifecycle; any may be left out.
struct Phases {
  std::function<void()> open_window = [] {};   ///< warmup over: reset window accounting
  std::function<void()> close_window = [] {};  ///< measure over: read window-scoped results
  std::function<void()> stop_load = [] {};     ///< drain begins: issue no new work
  std::function<void()> close = [] {};         ///< load drained: close channels
};

/// Violations summed over every registered server's auditor, whole run.
struct AuditVerdict {
  std::uint64_t violations = 0;
  std::vector<std::string> report{};
};

class Run {
 public:
  using FaultEdge = std::function<void(const sim::FaultWindow&, bool begin)>;

  explicit Run(const RunHooks& hooks) : hooks_(hooks) {}

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

  /// Registers a server: its auditor streams spans into the hooks' trace
  /// and tracer, its stats window opens with the run's, the drain shuts it
  /// down, and its violations join the verdict.
  void add_server(serving::InferenceServer& server);

  /// Wires the fault plan: window open/close instants on the trace's
  /// "faults" track, fault spans on the first server's auditor, and
  /// `on_edge` at every window edge. No-op without a non-empty plan.
  void wire_faults(const FaultEdge& on_edge);

  /// Runs the whole lifecycle (see the file comment).
  [[nodiscard]] AuditVerdict execute(sim::Time warmup, sim::Time measure, const Phases& phases);

 private:
  sim::Simulator sim_;
  RunHooks hooks_;
  std::vector<serving::InferenceServer*> servers_;
};

}  // namespace serve::core
