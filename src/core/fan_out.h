// Pieces shared by the two fan-out pipelines (face identification, video
// classification). A closed-loop client submits one job at a time; the job
// fans out into `width` downstream units and completes when the last unit
// does. One finalize charges the residual queue time, records the window,
// and closes the job's causal root span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/run.h"
#include "hw/devices.h"
#include "metrics/window.h"
#include "sim/channel.h"
#include "sim/sync.h"
#include "trace/causal.h"

namespace serve::core::fan_out {

struct Job {
  Job(sim::Simulator& sim, std::uint64_t id_, int width_)
      : id(id_), width(width_), remaining(width_), arrival(sim.now()), done(sim) {}
  std::uint64_t id;
  int width;      ///< downstream units: faces of a frame, sampled frames of a clip
  int remaining;  ///< units not yet finished
  sim::Time arrival;
  metrics::StageTimes stages{};
  trace::SpanContext ctx{};  ///< causal root (zero when untraced/unsampled)
  sim::Event done;
};

/// Platform, window and tracing state of one pipeline. `kind` names its jobs
/// ("frame", "clip"): the root span, the "<kind>.<id>" trace track and the
/// "<kind>_id" span arg; `width_arg`, when set, also puts the width there.
struct Pipeline {
  /// `spec` is the pipeline's spec: calibration and causal-tracing fields.
  template <typename Spec>
  Pipeline(sim::Simulator& sim_, const Spec& spec, std::string kind_, const char* width_arg_)
      : sim(sim_),
        platform(sim_, {.calib = spec.calib, .gpu_count = 1}),
        kind(std::move(kind_)),
        width_arg(width_arg_),
        tracer(spec.tracer),
        sampler(spec.trace_sampler),
        label(spec.trace_label) {}

  sim::Simulator& sim;
  hw::Platform platform;
  std::string kind;
  const char* width_arg;
  trace::CausalTracer* tracer;
  trace::TraceSampler sampler;
  const std::string& label;
  metrics::Window window;
  std::uint64_t units_done = 0;     ///< units of every finished job, cumulative
  std::uint64_t units_at_open = 0;  ///< `units_done` when the window opened
  std::uint64_t next_id = 1;
  bool stopping = false;

  /// Originates the job's causal trace (the sampling fate derives from the
  /// job id alone, so same-seed runs trace the same jobs) and covers the
  /// wait since arrival, which would otherwise surface as root self time.
  void begin_trace(Job& job, const char* pickup_blame) {
    if (tracer == nullptr) return;
    job.ctx = tracer->begin_trace(sampler.sample(job.id));
    if (sim.now() > job.arrival) {
      span(job, "queue", job.arrival, sim.now(), {{"blame", pickup_blame}});
    }
  }

  /// Records a span under `parent` on job `id`'s track. No-op without a
  /// tracer; the tracer itself skips unsampled contexts.
  void span(const trace::SpanContext& parent, std::uint64_t id, std::string name,
            sim::Time begin, sim::Time end, sim::SpanArgs args = {}) {
    if (tracer != nullptr && parent.valid()) {
      tracer->child_span(parent, kind + "." + std::to_string(id), std::move(name), begin, end,
                         std::move(args));
    }
  }
  void span(const Job& job, std::string name, sim::Time begin, sim::Time end,
            sim::SpanArgs args = {}) {
    span(job.ctx, job.id, std::move(name), begin, end, std::move(args));
  }

  void finalize(Job& job, sim::Time batch_span) {
    job.stages[metrics::Stage::kInference] += sim::to_seconds(batch_span);
    const sim::Time latency = sim.now() - job.arrival;
    // Whatever is not attributed to a named stage is scheduler queueing.
    const double other = sim::to_seconds(latency) - job.stages.total();
    if (other > 0.0) job.stages[metrics::Stage::kQueue] += other;
    units_done += static_cast<std::uint64_t>(job.width);
    window.record(sim::to_seconds(latency), job.stages);
    if (tracer != nullptr && job.ctx.valid()) {
      sim::SpanArgs args;
      if (!label.empty()) args.emplace_back("run", label);
      args.emplace_back(kind + "_id", std::to_string(job.id));
      if (width_arg != nullptr) args.emplace_back(width_arg, std::to_string(job.width));
      tracer->record(job.ctx, kind + "." + std::to_string(job.id), kind, job.arrival, sim.now(),
                     std::move(args));
    }
    job.done.set();
  }
};

/// Closed-loop client: keeps one job outstanding, `width()` units wide.
template <typename J, typename Width>
sim::Process client(Pipeline& p, sim::Channel<std::shared_ptr<J>>& in, Width width) {
  while (!p.stopping) {
    auto job = std::make_shared<J>(p.sim, p.next_id++, width());
    in.try_put(job);
    co_await job->done.wait();
  }
}

/// Starts `concurrency` clients feeding `in` and runs the lifecycle; the
/// drain closes `in` once the clients have stopped. `Result` lists, in
/// order: jobs/s, units/s, mean and p99 latency, jobs, stage breakdown.
template <typename Result, typename J, typename Width>
Result run_closed_loop(Run& run, Pipeline& p, sim::Channel<std::shared_ptr<J>>& in,
                       int concurrency, Width width, sim::Time warmup, sim::Time measure) {
  for (int i = 0; i < concurrency; ++i) p.sim.spawn(client<J>(p, in, width));
  Result r;
  (void)run.execute(warmup, measure,
                    {.open_window =
                         [&] {
                           p.window.open(p.sim.now());
                           p.units_at_open = p.units_done;
                         },
                     .close_window =
                         [&] {
                           const auto& w = p.window;
                           r = {w.throughput(p.sim.now()),
                                w.rate(p.units_done - p.units_at_open, p.sim.now()),
                                w.latency().mean(), w.latency().p99(), w.count(),
                                w.breakdown()};
                         },
                     .stop_load = [&] { p.stopping = true; },
                     .close = [&] { in.close(); }});
  return r;
}

}  // namespace serve::core::fan_out
