#include "core/run.h"

namespace serve::core {

void Run::add_server(serving::InferenceServer& server) {
  if (auto* audit = server.auditor()) {
    if (hooks_.trace != nullptr) audit->set_trace(hooks_.trace);
    if (hooks_.tracer != nullptr) audit->set_causal_tracer(hooks_.tracer);
  }
  servers_.push_back(&server);
}

void Run::wire_faults(const FaultEdge& on_edge) {
  const sim::FaultPlan* faults = hooks_.faults;
  if (faults == nullptr || faults->empty()) return;
  if (hooks_.trace != nullptr) faults->annotate(*hooks_.trace);
  if (auto* audit = servers_.empty() ? nullptr : servers_.front()->auditor()) {
    for (const auto& w : faults->windows()) {
      audit->on_fault_window(sim::fault_kind_name(w.kind), w.begin, w.end);
    }
  }
  faults->schedule_transitions(sim_, on_edge);
}

AuditVerdict Run::execute(sim::Time warmup, sim::Time measure, const Phases& phases) {
  if (hooks_.recorder != nullptr) hooks_.recorder->start(sim_);

  // Warmup fills queues and reaches steady state; the window then opens.
  sim_.run_until(warmup);
  for (auto* s : servers_) s->stats().begin();
  phases.open_window();

  sim_.run_until(warmup + measure);
  // Stop sampling at the window edge: the drain runs the simulator dry, and
  // a still-armed recorder would re-schedule its tick forever.
  if (hooks_.recorder != nullptr) hooks_.recorder->stop();
  phases.close_window();

  // Drain: stop the load, let in-flight work reach a terminal state, then
  // close the servers and channels so their processes exit cleanly.
  phases.stop_load();
  sim_.run();
  for (auto* s : servers_) s->shutdown();
  phases.close();
  sim_.run();

  AuditVerdict v;
  for (auto* s : servers_) {
    if (auto* audit = s->auditor()) {
      v.violations += audit->violation_count();
      for (auto& line : audit->report()) v.report.push_back(std::move(line));
    }
  }
  // The triggered-capture binding points into an auditor, which dies with
  // its server once the runner returns; the engine must not outlive it armed.
  if (hooks_.alerts != nullptr) hooks_.alerts->release_triggered_sampler();
  // Callback instruments capture the runner's world by reference; convert
  // them to plain values while it is still alive so the registry can be
  // read (and exported) after the runner returns.
  if (hooks_.registry != nullptr) hooks_.registry->freeze_callbacks();
  return v;
}

}  // namespace serve::core
