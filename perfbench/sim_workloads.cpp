// The three simulator workloads. Each repeats one seeded call into core
// (run_experiment, run_fleet, run_face_pipeline) and times only that call:
// host CPU time (the simulator is single-threaded), every heap allocation,
// and the sim frame-pool counters across it. Every call must reproduce the
// first call's virtual-time digest, and the default seed's digest must equal
// the recorded one.
#include <cstdio>
#include <functional>
#include <optional>

#include "core/experiment.h"
#include "core/face_pipeline.h"
#include "core/fleet.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "obs/alert_engine.h"
#include "obs/capacity_plane.h"
#include "perfbench.h"
#include "sim/pool.h"
#include "trace/causal.h"

namespace perfbench {
namespace {

using namespace serve;

/// Host cost of one timed call into core.
struct Sample {
  double cpu_s = 0.0;
  std::uint64_t ops = 0;     ///< completed requests or frames
  std::uint64_t failed = 0;  ///< simulated requests dropped or failed
  std::uint64_t allocs = 0;  ///< every operator new during the call
  sim::AllocStats pool{};    ///< sim frame-pool deltas during the call

  [[nodiscard]] double per_op(double v) const { return v / static_cast<double>(ops); }
  [[nodiscard]] double ops_per_cpu_s() const { return static_cast<double>(ops) / cpu_s; }
  [[nodiscard]] double allocs_per_op() const { return per_op(static_cast<double>(allocs)); }
};

/// One call: its host cost, its virtual-time digest and the layer counters
/// read from the objects the call used.
struct Call {
  Sample sample;
  double speed = kReferenceSpeed;  ///< host_speed() around the call
  std::string digest;
  std::vector<Metric> counters;

  /// Completed operations per CPU second at the reference host speed.
  [[nodiscard]] double ref_rate() const {
    return rate_at_reference(sample.ops_per_cpu_s(), speed);
  }
  /// CPU ns per operation at the reference host speed.
  [[nodiscard]] double ref_ns_per_op() const { return 1e9 / ref_rate(); }
  [[nodiscard]] double allocs_per_op() const { return sample.allocs_per_op(); }
  [[nodiscard]] double raw_rate() const { return sample.ops_per_cpu_s(); }
  [[nodiscard]] double speed_of() const { return speed; }

  [[nodiscard]] double counter(const std::string& name) const {
    for (const auto& m : counters)
      if (m.name == name) return m.value;
    return 0.0;
  }
};

/// Times `fn` (which returns {ops, failed}) and records a span around it
/// when `spans` is set.
template <class Fn>
Sample timed(SpanLog* spans, const std::string& span_name, Fn&& fn) {
  const sim::AllocStats pool0 = sim::alloc_stats();
  const std::uint64_t a0 = heap_allocs();
  const double w0 = wall_now();
  const double c0 = cpu_now();
  const auto [ops, failed] = fn();
  Sample s;
  s.cpu_s = cpu_now() - c0;
  const double w1 = wall_now();
  s.allocs = heap_allocs() - a0;
  const sim::AllocStats& pool1 = sim::alloc_stats();
  s.pool.frame_allocs = pool1.frame_allocs - pool0.frame_allocs;
  s.pool.frame_pool_hits = pool1.frame_pool_hits - pool0.frame_pool_hits;
  s.pool.frame_heap_allocs = pool1.frame_heap_allocs - pool0.frame_heap_allocs;
  s.pool.action_heap_allocs = pool1.action_heap_allocs - pool0.action_heap_allocs;
  s.ops = ops;
  s.failed = failed;
  if (spans != nullptr) spans->add(span_name, w0, w1);
  return s;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string breakdown_digest(const metrics::Breakdown& b) {
  std::string d;
  for (std::size_t i = 0; i < metrics::kStageCount; ++i) {
    const auto s = static_cast<metrics::Stage>(i);
    d += " " + std::string(metrics::stage_name(s)) + "=" + fmt("%.17g", b.mean(s));
  }
  return d;
}

// A leg is one configuration of a workload: called with a seed, a virtual
// window scale (1 = the timed window, smaller for warm-up) and an optional
// span log, it builds its objects, makes one timed call and checks it.
using Leg = std::function<Call(std::uint64_t seed, double scale, SpanLog* spans, Result& out)>;

/// Calls `leg` for `seconds` of host time, and at least three times. Every
/// call must reproduce the first call's digest.
std::vector<Call> repeat(const Leg& leg, std::uint64_t seed, double seconds, SpanLog* spans,
                         Result& out) {
  std::vector<Call> calls;
  double speed = host_speed().cpu;
  const double end = wall_now() + seconds;
  while (calls.size() < 3 || wall_now() < end) {
    calls.push_back(leg(seed, 1.0, spans, out));
    const double after = host_speed().cpu;
    calls.back().speed = interval_speed(speed, after);
    speed = after;
  }
  for (const Call& c : calls) {
    out.check(c.digest == calls.front().digest,
              "same-seed calls disagree: " + c.digest + " vs " + calls.front().digest);
  }
  return calls;
}

/// Calls `leg` alternately with and without spans for `seconds` (at least
/// three of each), so host noise hits the traced and untraced calls alike.
/// Returns {traced, untraced}; all must share one digest.
std::pair<std::vector<Call>, std::vector<Call>> repeat_paired(const Leg& leg, std::uint64_t seed,
                                                              double seconds, SpanLog& spans,
                                                              Result& out) {
  std::vector<Call> traced, untraced;
  double speed = host_speed().cpu;
  const auto call = [&](std::vector<Call>& calls, SpanLog* log) {
    calls.push_back(leg(seed, 1.0, log, out));
    const double after = host_speed().cpu;
    calls.back().speed = interval_speed(speed, after);
    speed = after;
  };
  const double end = wall_now() + seconds;
  while (untraced.size() < 3 || wall_now() < end) {
    call(traced, &spans);
    call(untraced, nullptr);
  }
  for (const auto* calls : {&traced, &untraced}) {
    for (const Call& c : *calls) {
      out.check(c.digest == traced.front().digest,
                "same-seed calls disagree: " + c.digest + " vs " + traced.front().digest);
    }
  }
  return {std::move(traced), std::move(untraced)};
}

double median_of(const std::vector<Call>& calls, double (Call::*fn)() const) {
  std::vector<double> v;
  for (const Call& c : calls) v.push_back((c.*fn)());
  return median(v);
}

void count_ops(const std::vector<Call>& calls, Result& out) {
  for (const Call& c : calls) {
    out.attempted += c.sample.ops + c.sample.failed;
    out.failed += c.sample.failed;
  }
}

/// Compares the workload configuration's default-seed digest with the
/// recorded one; `calls` (made with opt.seed) supply it when the seeds agree.
void check_default_seed(const Options& opt, const Leg& leg, const std::vector<Call>& calls,
                        Result& r) {
  const std::string digest = opt.seed == kDefaultSeed
                                 ? calls.front().digest
                                 : leg(kDefaultSeed, 1.0, nullptr, r).digest;
  check_recorded_digest(opt, digest, r);
}

/// End-to-end run of a sim workload: set-up (three times; objects plus a
/// quarter-window warm-up call that fills the frame pool), the timed calls,
/// then the default-seed digest check. The codec_* metrics of a sim workload
/// come from a separate codec-medium-pool process (see run.py).
Result run_end_to_end(const Options& opt, const Leg& leg) {
  Result r;
  std::vector<double> setup_s;
  double speed = host_speed().cpu;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = wall_now();
    (void)leg(opt.seed, 0.25, nullptr, r);
    const double t1 = wall_now();
    const double after = host_speed().cpu;
    setup_s.push_back((t1 - t0) * interval_speed(speed, after) / kReferenceSpeed);
    speed = after;
  }
  const std::vector<Call> calls = repeat(leg, opt.seed, opt.seconds, nullptr, r);
  count_ops(calls, r);
  r.add("sim_req_per_s", median_of(calls, &Call::ref_rate), "req/s");
  r.add("heap_allocs_per_req", median_of(calls, &Call::allocs_per_op), "allocs");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("setup_s", median(setup_s), "s");
  r.notes.push_back("host speed " + fmt("%.0f", median_of(calls, &Call::speed_of)) +
                    " ops/s (reference " + fmt("%.0f", kReferenceSpeed) +
                    "); unscaled sim_req_per_s " + fmt("%.0f", median_of(calls, &Call::raw_rate)));
  r.notes.push_back(std::to_string(calls.size()) + " timed calls; digest: " +
                    calls.front().digest);

  check_default_seed(opt, leg, calls, r);
  return r;
}

/// Per-layer metrics every sim workload reports from its own configuration.
void add_sim_layer(const std::vector<Call>& calls, Result& r) {
  const Sample& s = calls.front().sample;  // pool counters repeat exactly once warm
  const double frames = static_cast<double>(s.pool.frame_allocs);
  r.add("sim.frame_allocs_per_req", s.per_op(frames), "allocs/req");
  r.add("sim.pool_hit_rate",
        frames > 0 ? static_cast<double>(s.pool.frame_pool_hits) / frames : 0.0, "ratio");
  r.add("sim.heap_fallthrough_per_req",
        s.per_op(static_cast<double>(s.pool.frame_heap_allocs + s.pool.action_heap_allocs)),
        "allocs/req");
}

/// 1 - traced rate / untraced rate, both from this run.
void add_tracing_overhead(const std::vector<Call>& traced, const std::vector<Call>& untraced,
                          Result& r) {
  const double t = median_of(traced, &Call::ref_rate);
  const double u = median_of(untraced, &Call::ref_rate);
  r.add("tracing_overhead", 1.0 - t / u, "ratio");
  r.notes.push_back("tracing overhead base: untraced " + fmt("%.0f", u) + " req/s, traced " +
                    fmt("%.0f", t) + " req/s");
}

// --- vit-closed-observed -------------------------------------------------

// The layer ladder: each step adds one observability layer to the previous.
enum Level : int { kBare, kAudit, kRegistry, kRecorder, kCapacity, kAlerts, kTracer, kLevels };
constexpr const char* kLevelName[kLevels] = {"bare",     "audit",  "registry", "recorder",
                                             "capacity", "alerts", "tracer"};

std::string experiment_digest(const core::ExperimentResult& r) {
  return "completed=" + std::to_string(r.completed) + " tput=" + fmt("%.17g", r.throughput_rps) +
         " mean=" + fmt("%.17g", r.mean_latency_s) + " p50=" + fmt("%.17g", r.p50_latency_s) +
         " p99=" + fmt("%.17g", r.p99_latency_s) + " batch=" + fmt("%.17g", r.mean_batch) +
         " dropped=" + std::to_string(r.dropped) + " failed=" + std::to_string(r.failed) +
         " evictions=" + std::to_string(r.gpu_evictions) + breakdown_digest(r.breakdown);
}

/// ViT-Base, GPU preprocessing, dynamic batching, 256 closed-loop clients
/// (the paper's Fig. 5 operating point), medium images; `level` picks how
/// many observability layers ride along (kTracer = all of them).
Call vit_call(std::uint64_t seed, double scale, SpanLog* spans, Result& out, int level) {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.concurrency = 256;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(40.0 * scale);
  spec.seed = seed;
  spec.server.audit = level >= kAudit;

  std::optional<metrics::Registry> registry;
  std::optional<metrics::FlightRecorder> recorder;
  std::optional<obs::CapacityPlane> capacity;
  std::optional<obs::AlertEngine> alerts;
  sim::TraceRecorder trace;
  trace::CausalTracer tracer;
  if (level >= kRegistry) spec.registry = &registry.emplace();
  if (level >= kRecorder) spec.recorder = &recorder.emplace(*registry);
  if (level >= kCapacity) capacity.emplace(*registry).attach(*recorder);
  if (level >= kAlerts) {
    alerts.emplace(*registry);
    obs::BurnRateRule burn;
    burn.name = "slo-burn-rate";
    burn.slo_s = 0.5;
    alerts->add_burn_rate(burn);
    alerts->add_littles_law(obs::LittleLawRule{});
    alerts->attach(*recorder);
    spec.alerts = &*alerts;
  }
  if (level >= kTracer) {
    tracer.set_recorder(&trace);
    spec.trace = &trace;
    spec.tracer = &tracer;
  }

  core::ExperimentResult r;
  Call c;
  c.sample = timed(spans, std::string("core.run_experiment+") + kLevelName[level], [&] {
    r = core::run_experiment(spec);
    return std::pair{r.completed, r.dropped + r.failed};
  });
  out.check(r.completed > 0, "vit: no request completed");
  out.check(r.audit_violations == 0,
            "vit: " + std::to_string(r.audit_violations) + " audit violations" +
                (r.audit_report.empty() ? "" : ": " + r.audit_report.front()));
  c.digest = experiment_digest(r);
  c.counters = {
      {"serving.mean_batch", r.mean_batch, "count"},
      {"serving.completed", static_cast<double>(r.completed), "count"},
      {"serving.dropped", static_cast<double>(r.dropped), "count"},
      {"serving.failed", static_cast<double>(r.failed), "count"},
      {"recorder.self_s", recorder ? recorder->self_seconds() : 0.0, "s"},
      {"recorder.ticks", recorder ? static_cast<double>(recorder->ticks()) : 0.0, "count"},
      {"capacity.self_s", capacity ? capacity->self_seconds() : 0.0, "s"},
      {"alerts.self_s", alerts ? alerts->self_seconds() : 0.0, "s"},
      {"alerts.fired_total", alerts ? static_cast<double>(alerts->fired_total()) : 0.0, "count"},
      {"tracer.spans_recorded", static_cast<double>(tracer.spans_recorded()), "count"},
  };
  return c;
}

Leg vit_leg(int level) {
  return [level](std::uint64_t seed, double scale, SpanLog* spans, Result& out) {
    return vit_call(seed, scale, spans, out, level);
  };
}

/// Traced run: the ladder bare -> +audit -> ... -> +tracer on one seed, each
/// step's marginal CPU ns, allocations and high-water RSS per request; the
/// full configuration alternates traced and untraced calls for the tracing
/// overhead.
Result vit_traced(const Options& opt) {
  Result r;
  SpanLog spans;
  (void)vit_call(opt.seed, 0.25, nullptr, r, kBare);  // fills the frame pool
  std::vector<std::vector<Call>> steps;
  std::vector<Call> untraced;
  std::vector<double> rss;
  for (int level = 0; level < kLevels; ++level) {
    if (level < kTracer) {
      steps.push_back(repeat(vit_leg(level), opt.seed, 0.1 * opt.seconds, &spans, r));
    } else {
      auto [traced, plain] = repeat_paired(vit_leg(level), opt.seed, 0.4 * opt.seconds, spans, r);
      steps.push_back(std::move(traced));
      untraced = std::move(plain);
    }
    rss.push_back(peak_rss_mb());
    r.check(steps.back().front().digest == steps.front().front().digest,
            std::string("vit ladder: +") + kLevelName[level] + " changed the digest");
  }
  for (const auto& s : steps) count_ops(s, r);
  count_ops(untraced, r);

  double prev_ns = 0.0, prev_allocs = 0.0, prev_rss = 0.0;
  const double bare_ns = median_of(steps[kBare], &Call::ref_ns_per_op);
  std::string table = "ladder (CPU ns/req, allocs/req, high-water RSS MB; marginal over the "
                      "previous step, bare is the base):";
  for (int level = 0; level < kLevels; ++level) {
    const double ns = median_of(steps[static_cast<std::size_t>(level)], &Call::ref_ns_per_op);
    const double allocs =
        median_of(steps[static_cast<std::size_t>(level)], &Call::allocs_per_op);
    const double mb = rss[static_cast<std::size_t>(level)];
    const std::string prefix = std::string("ladder.") + kLevelName[level];
    r.add(prefix + ".ns_per_req", ns - prev_ns, "ns/req");
    r.add(prefix + ".allocs_per_req", allocs - prev_allocs, "allocs/req");
    r.add(prefix + ".rss_mb", mb - prev_rss, "MB");
    table += std::string(" ") + kLevelName[level] + " " + fmt("%+.1f", ns - prev_ns) + "/" +
             fmt("%+.2f", allocs - prev_allocs) + "/" + fmt("%+.1f", mb - prev_rss) + ";";
    prev_ns = ns;
    prev_allocs = allocs;
    prev_rss = mb;
  }
  r.add("ladder.full_over_bare", prev_ns / bare_ns, "ratio");
  r.notes.push_back(table + " full " + fmt("%.1f", prev_ns) + " ns/req over bare " +
                    fmt("%.1f", bare_ns) + " ns/req");

  const Call& full = steps[kTracer].front();
  for (const Metric& m : full.counters) r.add(m.name, m.value, m.unit);
  add_sim_layer(steps[kTracer], r);
  add_tracing_overhead(steps[kTracer], untraced, r);
  write_spans(opt, spans, r);
  check_default_seed(opt, vit_leg(kTracer), untraced, r);
  return r;
}

// --- tinyvit-fleet-open ----------------------------------------------------

/// TinyViT, CPU preprocessing, four one-GPU nodes behind a p2c balancer with
/// health checks and hedging; open-loop Poisson arrivals at ~80% of the
/// fleet's closed-loop knee.
Call fleet_call(std::uint64_t seed, double scale, SpanLog* spans, Result& out, bool audit) {
  core::FleetSpec spec;
  spec.server.model = models::tiny_vit();
  spec.server.preproc = serving::PreprocDevice::kCpu;
  spec.server.balancer.policy = core::BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(9);
  spec.gpus_per_node = {1, 1, 1, 1};
  spec.rate_rps = 19'800.0;
  spec.arrivals = workload::ArrivalKind::kPoisson;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0 * scale);
  spec.seed = seed;
  spec.audit = audit;

  core::FleetResult r;
  Call c;
  c.sample = timed(spans, audit ? "core.run_fleet+audit" : "core.run_fleet", [&] {
    r = core::run_fleet(spec);
    return std::pair{r.completed, r.failed};
  });
  out.check(r.completed > 0, "fleet: no request completed");
  out.check(r.conserved(), "fleet: issued " + std::to_string(r.issued) + " != completed " +
                               std::to_string(r.completed) + " + failed " +
                               std::to_string(r.failed));
  out.check(r.audit_violations == 0,
            "fleet: " + std::to_string(r.audit_violations) + " audit violations" +
                (r.audit_report.empty() ? "" : ": " + r.audit_report.front()));
  c.digest = r.digest();
  const double n = static_cast<double>(r.completed);
  c.counters = {
      {"fleet.hedges_per_req", static_cast<double>(r.hedges) / n, "ratio"},
      {"fleet.hedge_win_rate",
       r.hedges > 0 ? static_cast<double>(r.hedge_wins) / static_cast<double>(r.hedges) : 0.0,
       "ratio"},
      {"fleet.hedges_denied_per_req", static_cast<double>(r.hedges_denied) / n, "ratio"},
      {"fleet.cancelled_per_req", static_cast<double>(r.cancelled) / n, "ratio"},
      {"fleet.probes_per_req", static_cast<double>(r.probes) / n, "ratio"},
      {"fleet.imbalance", r.imbalance(), "ratio"},
      {"serving.completed", n, "count"},
      {"serving.dropped", static_cast<double>(r.cancelled), "count"},
      {"serving.failed", static_cast<double>(r.failed), "count"},
  };
  return c;
}

Leg fleet_leg(bool audit) {
  return [audit](std::uint64_t seed, double scale, SpanLog* spans, Result& out) {
    return fleet_call(seed, scale, spans, out, audit);
  };
}

/// Traced run: bare (auditing off) against the workload's audited fleet,
/// whose calls alternate traced and untraced for the tracing overhead.
Result fleet_traced(const Options& opt) {
  Result r;
  SpanLog spans;
  (void)fleet_call(opt.seed, 0.25, nullptr, r, false);
  const auto bare = repeat(fleet_leg(false), opt.seed, 0.4 * opt.seconds, &spans, r);
  const double bare_rss = peak_rss_mb();
  const auto [audited, untraced] = repeat_paired(fleet_leg(true), opt.seed, 0.6 * opt.seconds,
                                                 spans, r);
  const double audit_rss = peak_rss_mb();
  r.check(bare.front().digest == audited.front().digest, "fleet: auditing changed the digest");
  count_ops(bare, r);
  count_ops(audited, r);
  count_ops(untraced, r);

  const double bare_ns = median_of(bare, &Call::ref_ns_per_op);
  const double audit_ns = median_of(audited, &Call::ref_ns_per_op);
  const double bare_allocs = median_of(bare, &Call::allocs_per_op);
  r.add("ladder.bare.ns_per_req", bare_ns, "ns/req");
  r.add("ladder.bare.allocs_per_req", bare_allocs, "allocs/req");
  r.add("ladder.bare.rss_mb", bare_rss, "MB");
  r.add("ladder.audit.ns_per_req", audit_ns - bare_ns, "ns/req");
  r.add("ladder.audit.allocs_per_req", median_of(audited, &Call::allocs_per_op) - bare_allocs,
        "allocs/req");
  r.add("ladder.audit.rss_mb", audit_rss - bare_rss, "MB");
  r.add("fleet.ns_per_req", audit_ns, "ns/req");
  r.notes.push_back("fleet ladder base: bare " + fmt("%.1f", bare_ns) + " ns/req, audited " +
                    fmt("%.1f", audit_ns) + " ns/req");
  for (const Metric& m : audited.front().counters) r.add(m.name, m.value, m.unit);
  add_sim_layer(audited, r);
  add_tracing_overhead(audited, untraced, r);
  write_spans(opt, spans, r);
  check_default_seed(opt, fleet_leg(true), untraced, r);
  return r;
}

// --- face-kafka-fanout -----------------------------------------------------

/// The F11 face pipeline: 25 faces per frame, 8 frames in flight, results
/// through `broker` (Kafka for the workload, Fused as the no-broker leg).
Call face_call(std::uint64_t seed, double scale, SpanLog* spans, Result& out,
               core::BrokerKind broker) {
  core::FacePipelineSpec spec;
  spec.broker = broker;
  spec.faces_per_frame = 25;
  spec.concurrency = 8;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(600.0 * scale);
  spec.seed = seed;

  core::FacePipelineResult r;
  Call c;
  const std::string span = "core.run_face_pipeline." + std::string(core::broker_kind_name(broker));
  c.sample = timed(spans, span, [&] {
    r = core::run_face_pipeline(spec);
    return std::pair{r.frames, std::uint64_t{0}};
  });
  out.check(r.frames > 0, "face: no frame completed");
  c.digest = "frames=" + std::to_string(r.frames) + " fps=" + fmt("%.17g", r.frames_per_s) +
             " faces_per_s=" + fmt("%.17g", r.faces_per_s) +
             " mean=" + fmt("%.17g", r.mean_latency_s) + " p99=" + fmt("%.17g", r.p99_latency_s) +
             breakdown_digest(r.breakdown);
  c.counters = {{"face.broker_share", r.broker_share(), "ratio"}};
  return c;
}

Leg face_leg(core::BrokerKind broker) {
  return [broker](std::uint64_t seed, double scale, SpanLog* spans, Result& out) {
    return face_call(seed, scale, spans, out, broker);
  };
}

/// Traced run: Kafka against Fused on one seed (their difference is the
/// broker's host cost per frame); the Kafka calls alternate traced and
/// untraced for the tracing overhead.
Result face_traced(const Options& opt) {
  Result r;
  SpanLog spans;
  (void)face_call(opt.seed, 0.25, nullptr, r, core::BrokerKind::kKafka);
  const auto [kafka, untraced] = repeat_paired(face_leg(core::BrokerKind::kKafka), opt.seed,
                                               0.6 * opt.seconds, spans, r);
  const auto fused = repeat(face_leg(core::BrokerKind::kFused), opt.seed, 0.4 * opt.seconds,
                            &spans, r);
  count_ops(kafka, r);
  count_ops(fused, r);
  count_ops(untraced, r);

  const double kafka_ns = median_of(kafka, &Call::ref_ns_per_op);
  const double fused_ns = median_of(fused, &Call::ref_ns_per_op);
  r.add("face.fused.ns_per_frame", fused_ns, "ns/frame");
  r.add("broker.ns_per_frame", kafka_ns - fused_ns, "ns/frame");
  r.add("broker.allocs_per_frame",
        median_of(kafka, &Call::allocs_per_op) - median_of(fused, &Call::allocs_per_op),
        "allocs/frame");
  r.add("face.broker_share", kafka.front().counter("face.broker_share"), "ratio");
  r.notes.push_back("broker base: kafka " + fmt("%.1f", kafka_ns) + " ns/frame, fused " +
                    fmt("%.1f", fused_ns) + " ns/frame");
  add_sim_layer(kafka, r);
  add_tracing_overhead(kafka, untraced, r);
  write_spans(opt, spans, r);
  check_default_seed(opt, face_leg(core::BrokerKind::kKafka), untraced, r);
  return r;
}

}  // namespace

Result run_vit_closed_observed(const Options& opt) {
  return opt.trace ? vit_traced(opt) : run_end_to_end(opt, vit_leg(kTracer));
}

Result run_tinyvit_fleet_open(const Options& opt) {
  return opt.trace ? fleet_traced(opt) : run_end_to_end(opt, fleet_leg(true));
}

Result run_face_kafka_fanout(const Options& opt) {
  return opt.trace ? face_traced(opt) : run_end_to_end(opt, face_leg(core::BrokerKind::kKafka));
}

}  // namespace perfbench
