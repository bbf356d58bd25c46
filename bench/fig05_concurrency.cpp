// Reproduces paper Fig. 5: throughput, average latency, and queuing time of
// the throughput-optimized server at different concurrencies (ViT, medium
// image, CPU vs GPU preprocessing).
//
// Paper findings: throughput rises then saturates; GPU preprocessing gives
// higher throughput / lower latency but *declines* at very high concurrency
// (GPU memory eviction); CPU preprocessing saturates flat; queuing reaches
// ~3 s at 4096 concurrency and 34-91% of latency at optimal 64-512.
//
// `--record [--record-concurrency N]` switches to record mode: one GPU-
// preprocessing point with the telemetry registry + flight recorder
// attached. The recorded trajectory (throughput / queue depth / eviction
// series) backs the *temporal* form of the paper's claim — the decline is
// visible within one run, not just across the sweep — and the same run
// proves the telemetry layer's self-overhead stays under 1%.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>

#include "bench_util.h"
#include "core/experiment.h"
#include "metrics/flight_recorder.h"
#include "metrics/registry.h"
#include "obs/alert_engine.h"
#include "models/model_zoo.h"

using namespace serve;
using core::ExperimentSpec;
using metrics::Stage;
using serving::PreprocDevice;

namespace {

ExperimentSpec gpu_spec(int concurrency) {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = PreprocDevice::kGpu;
  spec.concurrency = concurrency;
  spec.warmup = sim::seconds(concurrency >= 1024 ? 4.0 : 2.0);
  spec.measure = sim::seconds(8.0);
  return spec;
}

/// Element-wise sum of every recorded series called `name` (all fig05 series
/// start at tick 0 — every instrument exists before the recorder starts).
std::vector<double> summed_series(const std::vector<metrics::FlightRecorder::Series>& all,
                                  std::string_view name) {
  std::vector<double> out;
  for (const auto& s : all) {
    if (s.name != name) continue;
    out.resize(std::max(out.size(), s.samples.size()), 0.0);
    for (std::size_t i = 0; i < s.samples.size(); ++i) out[i] += s.samples[i];
  }
  return out;
}

double mean_over(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Mean rate of a cumulative counter series over [lo, hi) ticks.
double rate_over(const std::vector<double>& cum, std::size_t lo, std::size_t hi,
                 double period_s) {
  if (hi <= lo + 1) return 0.0;
  return (cum[hi - 1] - cum[lo]) / (static_cast<double>(hi - 1 - lo) * period_s);
}

/// One recorded GPU-preprocessing call: registry, flight recorder and the
/// SLO watch plane riding its cadence. The rules mirror the production set
/// (burn rate + queue depth) so the <1% overhead bound covers alert
/// evaluation, not just sampling.
struct RecordedRun {
  explicit RecordedRun(int concurrency) : spec(gpu_spec(concurrency)) {
    obs::BurnRateRule burn;
    burn.name = "slo-burn-rate";
    burn.slo_s = 0.5;
    alerts.add_burn_rate(burn);
    obs::ThresholdRule depth;
    depth.name = "queue-depth-high";
    depth.instrument = "serving_queue_depth";
    depth.fire_above = 1e9;  // overhead-measurement rule; not meant to fire
    alerts.add_threshold(depth);
    alerts.attach(recorder);
    spec.registry = &registry;
    spec.recorder = &recorder;
    spec.alerts = &alerts;
  }

  metrics::Registry registry;
  metrics::FlightRecorder recorder{registry};
  obs::AlertEngine alerts{registry};
  ExperimentSpec spec;
  core::ExperimentResult result;
};

int run_record_mode(bench::Reporter& rep, int concurrency) {
  std::printf("\nRecord mode: GPU preprocessing @ concurrency %d, 100 ms cadence\n", concurrency);

  const auto wall = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // Identical run with telemetry off: the enabled-vs-disabled wall-clock
  // delta reported below (informational; the gating check uses the
  // recorder's own self-time instrument, which is robust to machine noise).
  core::ExperimentResult plain;
  const double plain_s = wall([&] { plain = core::run_experiment(gpu_spec(concurrency)); });

  // One recorded call takes ~15 ms of wall time, too short a window for a
  // 1% self-time share to stand above scheduling noise. The overhead checks
  // therefore sum self and wall time over repeated identical calls until
  // the window reaches 1 s; the last call's recording backs the trajectory
  // and the export.
  std::unique_ptr<RecordedRun> run;
  double telemetry_s = 0.0;
  double recorder_self_s = 0.0;
  double alerts_self_s = 0.0;
  int calls = 0;
  while (telemetry_s < 1.0) {
    run = std::make_unique<RecordedRun>(concurrency);
    telemetry_s += wall([&] { run->result = core::run_experiment(run->spec); });
    recorder_self_s += run->recorder.self_seconds();
    alerts_self_s += run->alerts.self_seconds();
    ++calls;
  }
  const metrics::Registry& registry = run->registry;
  const metrics::FlightRecorder& recorder = run->recorder;
  const core::ExperimentResult& r = run->result;

  rep.context("mode", "record");
  rep.context("concurrency", std::to_string(concurrency));
  rep.exporter().capture_instruments(registry);
  rep.exporter().capture_series(recorder);
  rep.benchmark("fig05/record/gpu/" + std::to_string(concurrency), r.mean_latency_s * 1e3,
                {{"tput_img_s", r.throughput_rps},
                 {"p99_ms", r.p99_latency_s * 1e3},
                 {"gpu_evictions", static_cast<double>(r.gpu_evictions)}});

  // Trajectory over thirds of the recorded window: the sweep's "declines at
  // 4096" claim, replayed inside one run.
  const auto series = recorder.series();
  const double period_s = sim::to_seconds(recorder.period());
  const auto completed = summed_series(series, "serving_requests_completed_total");
  const auto queue = summed_series(series, "serving_queue_depth");
  const auto evictions = summed_series(series, "gpu_staging_evictions_total");
  const std::size_t n = completed.size();
  const std::size_t third = n / 3;

  metrics::Table traj({"window", "tput_img_s", "mean_queue_depth", "evictions"});
  double tput[3] = {0, 0, 0};
  double qdepth[3] = {0, 0, 0};
  double evict[3] = {0, 0, 0};
  const char* names[3] = {"first third", "middle third", "last third"};
  for (int w = 0; w < 3; ++w) {
    const std::size_t lo = static_cast<std::size_t>(w) * third;
    const std::size_t hi = w == 2 ? n : lo + third;
    tput[w] = rate_over(completed, lo, hi, period_s);
    qdepth[w] = mean_over(queue, lo, hi);
    evict[w] = evictions.empty() ? 0.0 : evictions[hi - 1] - (lo > 0 ? evictions[lo] : 0.0);
    traj.add_row({std::string(names[w]), tput[w], qdepth[w], evict[w]});
  }
  rep.table("trajectory", traj);

  const double self_s = recorder_self_s + alerts_self_s;
  const double self_share = self_s / telemetry_s;
  std::printf("\nTelemetry + alert-engine self-overhead: %.4f s of %.2f s run wall time over %d "
              "recorded calls (%.3f%%; recorder %.6f s, alert engine %.6f s); "
              "disabled-telemetry run: %.2f s\n",
              self_s, telemetry_s, calls, 100.0 * self_share, recorder_self_s, alerts_self_s,
              plain_s);

  // The within-run decline is gentler than the sweep's peak-vs-4096 gap
  // (the whole window already thrashes); ~5% first-to-last third observed.
  rep.check("recorded GPU-preproc throughput declines within the run (staging thrash)",
            n >= 30 && tput[2] < 0.97 * tput[0],
            "first third " + std::to_string(tput[0]) + " img/s -> last third " +
                std::to_string(tput[2]) + " img/s over " + std::to_string(n) + " ticks");
  rep.check("queue depth grows as staging memory thrashes",
            qdepth[2] > qdepth[0],
            "mean depth " + std::to_string(qdepth[0]) + " -> " + std::to_string(qdepth[2]));
  rep.check("evictions keep accumulating in the last third (not a one-off warmup burst)",
            evict[2] > 0, std::to_string(evict[2]) + " evictions in last third");
  // Bounded separately: the recorder's sampling bound dates from PR 4, the
  // alert engine carries its own 1% budget on top — a combined bound would
  // let one layer silently eat the other's headroom.
  const double recorder_share = recorder_self_s / telemetry_s;
  const double alerts_share = alerts_self_s / telemetry_s;
  rep.check("flight-recorder sampling self-overhead below 1% of run wall time",
            recorder_share < 0.01,
            std::to_string(100.0 * recorder_share) + "% (self " +
                std::to_string(recorder_self_s) + " s of " + std::to_string(telemetry_s) +
                " s over " + std::to_string(calls) + " calls; disabled run " +
                std::to_string(plain_s) + " s)");
  rep.check("alert-engine rule evaluation self-overhead below 1% of run wall time",
            alerts_share < 0.01,
            std::to_string(100.0 * alerts_share) + "% (self " + std::to_string(alerts_self_s) +
                " s of " + std::to_string(telemetry_s) + " s over " + std::to_string(calls) +
                " calls)");
  return rep.finish();
}

/// Bitwise fingerprint of a run's externally visible outputs. Doubles go in
/// as raw bit patterns, so two runs match only if they are byte-identical —
/// the determinism contract the simulator core promises.
std::string result_digest(const core::ExperimentResult& r) {
  std::string d;
  char buf[17];
  const auto add_u64 = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    d += buf;
  };
  const auto add_f64 = [&](double x) {
    std::uint64_t v;
    std::memcpy(&v, &x, sizeof v);
    add_u64(v);
  };
  add_u64(r.completed);
  add_f64(r.throughput_rps);
  add_f64(r.mean_latency_s);
  add_f64(r.p50_latency_s);
  add_f64(r.p99_latency_s);
  add_f64(r.mean_batch);
  add_u64(r.gpu_evictions);
  add_u64(r.dropped);
  add_u64(r.failed);
  add_u64(r.audit_violations);
  return d;
}

int run_extended_mode(bench::Reporter& rep) {
  // 100k-way closed-loop sweep (CPU preprocessing: the scale question, not
  // the GPU staging-thrash one). Exercises the simulator core far beyond the
  // paper's 4096 clients: 100k coroutine client processes, a 100k-deep
  // admission queue, and the lifecycle auditor on for every request. Short
  // windows keep the sweep inside a CI budget.
  std::printf("\nExtended mode: 100k-way concurrency sweep, audit on\n");
  const auto t0 = std::chrono::steady_clock::now();

  const int concurrencies[] = {16384, 65536, 100000};
  metrics::Table table(
      {"concurrency", "tput_img_s", "avg_lat_ms", "p99_lat_ms", "queue_%", "audit_violations"});

  double tput_first = 0, tput_last = 0;
  double lat_first = 0, lat_last = 0;
  bool audit_clean = true;
  std::string violation_note;
  std::string digest_100k;

  // A closed-loop client's steady-state latency is one full queue rotation
  // (~concurrency / service rate), so warmup must cover at least one rotation
  // before the window opens or the measurement only sees the cold prefix.
  const auto scaled_spec = [](int c) {
    ExperimentSpec spec = gpu_spec(c);
    spec.server.preproc = PreprocDevice::kCpu;
    spec.server.audit = true;
    const double rotation_s = static_cast<double>(c) / 1500.0;
    spec.warmup = sim::seconds(1.25 * rotation_s + 2.0);
    spec.measure = sim::seconds(20.0);
    return spec;
  };

  for (int c : concurrencies) {
    const auto r = core::run_experiment(scaled_spec(c));
    const double qshare = r.stage_share(Stage::kQueue);
    table.add_row({static_cast<std::int64_t>(c), r.throughput_rps, r.mean_latency_s * 1e3,
                   r.p99_latency_s * 1e3, 100 * qshare,
                   static_cast<std::int64_t>(r.audit_violations)});
    rep.benchmark("fig05/extended/cpu/" + std::to_string(c), r.mean_latency_s * 1e3,
                  {{"tput_img_s", r.throughput_rps},
                   {"p99_ms", r.p99_latency_s * 1e3},
                   {"queue_share", qshare}});
    if (c == concurrencies[0]) {
      tput_first = r.throughput_rps;
      lat_first = r.mean_latency_s;
    }
    if (c == 100000) {
      tput_last = r.throughput_rps;
      lat_last = r.mean_latency_s;
      digest_100k = result_digest(r);
    }
    if (r.audit_violations != 0) {
      audit_clean = false;
      violation_note = std::to_string(r.audit_violations) + " violations at concurrency " +
                       std::to_string(c) +
                       (r.audit_report.empty() ? "" : ": " + r.audit_report.front());
    }
  }
  rep.table("extended_sweep", table);

  // Same-seed repeat of the 100k point: every output must be byte-identical.
  const std::string digest_repeat = result_digest(core::run_experiment(scaled_spec(100000)));

  const double wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("extended sweep wall time: %.1f s\n", wall_s);

  rep.check("lifecycle audit is clean at every extended concurrency",
            audit_clean, audit_clean ? "0 violations across sweep" : violation_note);
  rep.check("100k-client run is byte-identical across same-seed repeats",
            digest_100k == digest_repeat, digest_100k + " vs " + digest_repeat);
  rep.check("saturated CPU throughput holds from 16k to 100k clients",
            tput_last > 0.90 * tput_first,
            "16384 -> " + std::to_string(tput_first) + " img/s, 100000 -> " +
                std::to_string(tput_last) + " img/s");
  rep.check("steady-state latency tracks one queue rotation (~concurrency / rate)",
            lat_last > 4.0 * lat_first && lat_last > 0.8 * (100000.0 / tput_last),
            "16384 -> " + std::to_string(lat_first) + " s, 100000 -> " +
                std::to_string(lat_last) + " s");
  rep.check("100k-way sweep completes inside the CI budget (240 s)",
            wall_s < 240.0, std::to_string(wall_s) + " s");
  return rep.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 5",
                      "Throughput / latency / queuing vs concurrency (ViT, medium image)");
  bool record = false;
  bool extended = false;
  int record_concurrency = 4096;
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--record") {
      record = true;
    } else if (arg == "--extended") {
      extended = true;
    } else if (arg == "--record-concurrency") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --record-concurrency requires a value\n");
        return 2;
      }
      record_concurrency = std::atoi(argv[++i]);
      record = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!rep.parse_cli(static_cast<int>(rest.size()), rest.data())) return 2;
  if (record) return run_record_mode(rep, record_concurrency);
  if (extended) return run_extended_mode(rep);

  const int concurrencies[] = {1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096};
  metrics::Table table({"preproc", "concurrency", "tput_img_s", "avg_lat_ms", "p99_lat_ms",
                        "queue_%", "mean_batch", "gpu_evictions"});

  double peak[2] = {0, 0};
  double at4096[2] = {0, 0};
  double queue_share_64 = 0, queue_share_512 = 0, queue_s_4096 = 0;
  std::uint64_t evictions_4096_gpu = 0;

  for (auto dev : {PreprocDevice::kCpu, PreprocDevice::kGpu}) {
    const int d = dev == PreprocDevice::kCpu ? 0 : 1;
    const std::string dev_name = dev == PreprocDevice::kCpu ? "cpu" : "gpu";
    for (int c : concurrencies) {
      ExperimentSpec spec = gpu_spec(c);
      spec.server.preproc = dev;
      const auto r = core::run_experiment(spec);
      const double qshare = r.stage_share(Stage::kQueue);
      table.add_row({dev_name, static_cast<std::int64_t>(c), r.throughput_rps,
                     r.mean_latency_s * 1e3, r.p99_latency_s * 1e3, 100 * qshare, r.mean_batch,
                     static_cast<std::int64_t>(r.gpu_evictions)});
      rep.benchmark("fig05/" + dev_name + "/" + std::to_string(c), r.mean_latency_s * 1e3,
                    {{"tput_img_s", r.throughput_rps},
                     {"p99_ms", r.p99_latency_s * 1e3},
                     {"queue_share", qshare}});
      peak[d] = std::max(peak[d], r.throughput_rps);
      if (c == 4096) {
        at4096[d] = r.throughput_rps;
        if (d == 1) {
          evictions_4096_gpu = r.gpu_evictions;
          queue_s_4096 = r.mean_latency_s * qshare;
        }
      }
      if (d == 1 && c == 64) queue_share_64 = qshare;
      if (d == 1 && c == 512) queue_share_512 = qshare;
    }
  }
  rep.table("concurrency_sweep", table);

  rep.check("GPU preprocessing reaches higher peak throughput than CPU",
            peak[1] > peak[0] * 1.1,
            "gpu " + std::to_string(peak[1]) + " vs cpu " + std::to_string(peak[0]));
  rep.check("GPU preprocessing declines at very high concurrency (memory eviction)",
            at4096[1] < 0.85 * peak[1] && evictions_4096_gpu > 0,
            "4096-concurrency tput " + std::to_string(at4096[1]) + " vs peak " +
                std::to_string(peak[1]) + ", evictions " + std::to_string(evictions_4096_gpu));
  rep.check("CPU preprocessing saturates and holds its rate under high load",
            at4096[0] > 0.95 * peak[0],
            "4096-concurrency tput " + std::to_string(at4096[0]) + " vs peak " +
                std::to_string(peak[0]));
  rep.check("queuing is 34-91% of latency across optimal concurrency 64-512",
            queue_share_64 > 0.10 && queue_share_64 < 0.60 && queue_share_512 > 0.60,
            "share@64 " + std::to_string(100 * queue_share_64) + " %, share@512 " +
                std::to_string(100 * queue_share_512) + " %");
  rep.check("queuing reaches seconds-scale at 4096 concurrency (paper: ~3 s)",
            queue_s_4096 > 1.5, std::to_string(queue_s_4096) + " s mean queue time");
  return rep.finish();
}
