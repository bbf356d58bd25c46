#include "core/experiment.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "broker/broker.h"
#include "core/run.h"
#include "hw/tracing.h"

namespace serve::core {

namespace {

void reset_platform_stats(hw::Platform& platform) {
  platform.cpu().cores().reset_stats();
  platform.cpu().preproc_workers().reset_stats();
  platform.host_link().reset_stats();
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) {
    auto& g = platform.gpu(i);
    g.compute().reset_stats();
    g.preproc().reset_stats();
    g.copy_h2d().reset_stats();
    g.copy_d2h().reset_stats();
    g.stall().reset_stats();
  }
}

std::uint64_t total_evictions(hw::Platform& platform) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) n += platform.gpu(i).stager().evictions();
  return n;
}

/// Experiment-only telemetry wiring: the trace's memory-bound accounting in
/// the registry, and the SLO watch plane's trace track and — when auditing
/// with a causal tracer — the auditor's sampler for triggered capture.
void wire_telemetry(const ExperimentSpec& spec, serving::InferenceServer& server) {
  if (spec.trace != nullptr && spec.registry != nullptr) {
    sim::TraceRecorder* rec = spec.trace;
    spec.registry->counter_fn("trace_events_recorded_total", {},
                              [rec] { return static_cast<double>(rec->event_count()); });
    spec.registry->counter_fn("trace_events_dropped_total", {},
                              [rec] { return static_cast<double>(rec->dropped_events()); });
  }
  if (spec.alerts != nullptr) {
    if (spec.trace != nullptr) spec.alerts->set_trace(spec.trace);
    if (server.auditor() != nullptr && spec.tracer != nullptr) {
      spec.alerts->set_triggered_sampler(&server.auditor()->sampler());
    }
  }
}

/// Staging-budget shrink windows scale every targeted GPU's staging budget
/// and, as host memory pressure, the ingress cache's byte budgets.
void apply_memory_shrink(hw::Platform& platform, serving::InferenceServer& server,
                         const sim::FaultWindow& w, bool begin) {
  if (w.kind != sim::FaultKind::kGpuMemoryShrink) return;
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    if (w.target != sim::FaultWindow::kAllTargets && static_cast<int>(g) != w.target) continue;
    auto& gpu = platform.gpu(g);
    const std::int64_t full = gpu.calib().staging_budget_bytes;
    const auto shrunk = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(full) * w.magnitude));
    gpu.stager().set_budget(begin ? shrunk : full);
  }
  if (auto* cache = server.ingress_cache()) cache->set_budget_scale(begin ? w.magnitude : 1.0);
}

/// One body for closed- and open-loop runs, generic over the client type.
template <typename Clients>
ExperimentResult run_serving(const ExperimentSpec& spec, typename Clients::Options client_opts) {
  Run run{{.trace = spec.trace,
           .tracer = spec.tracer,
           .faults = spec.faults,
           .registry = spec.registry,
           .recorder = spec.recorder,
           .alerts = spec.alerts}};
  auto& sim = run.sim();
  hw::Platform platform{sim,
                        {.calib = spec.calib,
                         .gpu_count = spec.gpu_count,
                         .faults = spec.faults,
                         .registry = spec.registry}};
  if (spec.trace != nullptr) hw::attach_tracer(platform, *spec.trace);
  serving::InferenceServer server{platform, spec.server};
  run.add_server(server);
  wire_telemetry(spec, server);
  // The optional result broker shares the fault plan so outages hit it.
  std::optional<broker::SimBroker<std::uint64_t>> result_broker;
  if (spec.server.broker_publish.publish_results) {
    result_broker.emplace(sim, broker::redis_profile(spec.calib.broker), spec.faults,
                          spec.registry);
    server.set_result_broker(&*result_broker);
  }
  run.wire_faults([&platform, &server](const sim::FaultWindow& w, bool begin) {
    apply_memory_shrink(platform, server, w, begin);
  });
  client_opts.image_source =
      spec.image_source ? spec.image_source : serving::fixed_image(spec.image);
  client_opts.seed = spec.seed;
  Clients clients{server, std::move(client_opts)};
  clients.start();

  ExperimentResult r;
  const auto* cache = server.ingress_cache();
  std::uint64_t evictions_before = 0;
  std::uint64_t cache_evictions_before = 0;
  const auto& stats = server.stats();
  auto verdict = run.execute(
      spec.warmup, spec.measure,
      {.open_window =
           [&] {
             reset_platform_stats(platform);
             evictions_before = total_evictions(platform);
             cache_evictions_before = cache != nullptr ? cache->evictions() : 0;
           },
       .close_window =
           [&] {
             r.throughput_rps = stats.throughput();
             r.completed = stats.completed();
             r.mean_latency_s = stats.latency().mean();
             r.p50_latency_s = stats.latency().p50();
             r.p99_latency_s = stats.latency().p99();
             r.mean_batch = stats.batch_sizes().mean();
             r.breakdown = stats.breakdown();
             r.energy = hw::measure_energy(platform, stats.window().start(), sim.now());
             r.gpu_evictions = total_evictions(platform) - evictions_before;
             r.cache_tensor_hits = stats.cache_tensor_hits();
             r.cache_image_hits = stats.cache_image_hits();
             r.cache_hit_rate = stats.cache_hit_rate();
             if (cache != nullptr) r.cache_evictions = cache->evictions() - cache_evictions_before;
             r.dropped = stats.dropped();
             r.failed = stats.failed();
             r.rejected = stats.rejected();
             r.breaker_opens = stats.breaker_opens();
             r.degraded = stats.degraded();
             r.broker_failovers = stats.broker_failovers();
             r.client_retries = clients.retries();
             r.client_timeouts = clients.timeouts();
           },
       .stop_load = [&] { clients.stop(); }});
  r.audit_violations = verdict.violations;
  r.audit_report = std::move(verdict.report);
  return r;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  return run_serving<serving::ClosedLoopClients>(spec, {.concurrency = spec.concurrency});
}

ExperimentResult run_open_loop(const ExperimentSpec& spec,
                               serving::OpenLoopClients::Interarrival interarrival) {
  return run_serving<serving::OpenLoopClients>(spec, {.interarrival = std::move(interarrival)});
}

ExperimentResult run_zero_load(ExperimentSpec spec) {
  spec.concurrency = 1;
  // One request at a time: a modest window gives thousands of samples.
  if (spec.measure > sim::seconds(5.0)) spec.measure = sim::seconds(5.0);
  return run_experiment(spec);
}

void HarnessOptions::apply(ExperimentSpec& spec, sim::TraceRecorder& trace,
                           trace::CausalTracer* tracer) const {
  if (auditing()) spec.server.audit = true;
  if (tracing()) {
    spec.trace = &trace;
    if (trace_max_events > 0) trace.set_max_events(trace_max_events);
    if (tracer != nullptr) {
      tracer->set_recorder(&trace);
      spec.tracer = tracer;
    }
  }
}

HarnessOptions parse_harness_options(int argc, const char* const* argv) {
  HarnessOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--audit") {
      opts.audit = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) throw std::invalid_argument("--trace-out requires a file path");
      opts.trace_out = argv[++i];
    } else if (arg == "--trace-max-events") {
      if (i + 1 >= argc) throw std::invalid_argument("--trace-max-events requires a count");
      const std::string v = argv[++i];
      // Digits only: std::stoull would accept " 7", "+3", and "-1" (which
      // it wraps to 2^64 - 1, silently lifting the event cap).
      unsigned long long n = 0;
      if (!v.empty() && v.find_first_not_of("0123456789") == std::string::npos) {
        try {
          n = std::stoull(v);
        } catch (const std::out_of_range&) {
          n = 0;
        }
      }
      if (n == 0) {
        throw std::invalid_argument("--trace-max-events needs a positive integer, got '" + v + "'");
      }
      opts.trace_max_events = static_cast<std::size_t>(n);
    } else {
      throw std::invalid_argument(
          "unknown flag '" + std::string(arg) +
          "' (supported: --audit, --trace-out <path>, --trace-max-events <n>)");
    }
  }
  return opts;
}

std::uint64_t report_audit(const ExperimentResult& r, const std::string& label) {
  if (r.audit_violations == 0) return 0;
  std::cerr << "AUDIT FAILED [" << label << "]: " << r.audit_violations << " violation(s)\n";
  for (const auto& line : r.audit_report) std::cerr << "  " << line << "\n";
  return r.audit_violations;
}

bool finish_harness(const HarnessOptions& opts, const sim::TraceRecorder& trace,
                    std::uint64_t total_violations) {
  bool trace_ok = true;
  if (opts.tracing()) {
    std::ofstream out{opts.trace_out};
    if (out) {
      trace.write_chrome_json(out);
      std::cerr << "# trace: " << opts.trace_out << " (" << trace.span_count() << " spans, "
                << trace.counter_count() << " counter samples";
      if (trace.dropped_events() > 0) {
        std::cerr << ", " << trace.dropped_events() << " events dropped at the "
                  << trace.max_events() << "-event cap";
      }
      std::cerr << ")\n";
    } else {
      // The sweep already ran; losing the trace should not look like a crash.
      std::cerr << "error: cannot open trace output " << opts.trace_out << '\n';
      trace_ok = false;
    }
  }
  if (opts.auditing()) {
    std::cerr << "# audit: "
              << (total_violations == 0
                      ? "clean (conservation, hygiene, monotonicity all hold)"
                      : std::to_string(total_violations) + " violation(s)")
              << "\n";
  }
  return trace_ok && total_violations == 0;
}

}  // namespace serve::core
