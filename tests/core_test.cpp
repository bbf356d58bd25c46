// Tests for the core orchestration layer: experiment runner variants,
// auto-tuner, arrival processes, and trace recording.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <sstream>

#include "core/autotuner.h"
#include "core/experiment.h"
#include "core/face_pipeline.h"
#include "core/fleet.h"
#include "core/video_pipeline.h"
#include "metrics/registry.h"
#include "hw/tracing.h"
#include "models/model_zoo.h"
#include "sim/trace.h"
#include "workload/arrivals.h"

namespace serve::core {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);
  return spec;
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_spec());
  const auto b = run_experiment(small_spec());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
}

TEST(Experiment, OpenLoopTracksOfferedRateBelowSaturation) {
  auto spec = small_spec();
  spec.measure = sim::seconds(8.0);
  const double rate = 500.0;  // well under the ~1800/s capacity
  const auto r = run_open_loop(spec, workload::poisson_arrivals(rate));
  EXPECT_NEAR(r.throughput_rps, rate, rate * 0.1);
  // Latency must be far below the closed-loop queueing regime.
  EXPECT_LT(r.mean_latency_s, 0.05);
}

TEST(Experiment, BurstyArrivalsInflateTailLatency) {
  auto spec = small_spec();
  spec.measure = sim::seconds(12.0);
  const double rate = 1200.0;
  const auto poisson = run_open_loop(spec, workload::poisson_arrivals(rate));
  const auto bursty = run_open_loop(spec, workload::mmpp2_arrivals(rate, 4.0, 0.4));
  EXPECT_GT(bursty.p99_latency_s, poisson.p99_latency_s * 1.5);
}

TEST(Experiment, DeterministicArrivalsAreSmoothest) {
  auto spec = small_spec();
  spec.measure = sim::seconds(6.0);
  const double rate = 1200.0;
  const auto det = run_open_loop(spec, workload::deterministic_arrivals(rate));
  const auto poisson = run_open_loop(spec, workload::poisson_arrivals(rate));
  EXPECT_LE(det.p99_latency_s, poisson.p99_latency_s * 1.05);
}

TEST(Arrivals, Validation) {
  EXPECT_THROW(workload::poisson_arrivals(0.0), std::invalid_argument);
  EXPECT_THROW(workload::deterministic_arrivals(-1.0), std::invalid_argument);
  EXPECT_THROW(workload::mmpp2_arrivals(100.0, 0.5), std::invalid_argument);
  EXPECT_THROW(workload::mmpp2_arrivals(100.0, 4.0, 0.0), std::invalid_argument);
}

TEST(Arrivals, MmppMeanRateMatches) {
  auto gen = workload::mmpp2_arrivals(1000.0, 4.0, 0.3);
  sim::Rng rng{17};
  sim::Time total = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total += gen(rng);
  const double measured_rate = n / sim::to_seconds(total);
  EXPECT_NEAR(measured_rate, 1000.0, 60.0);
}

TEST(Autotuner, FindsBetterConfigThanBaseline) {
  auto base = small_spec();
  base.server.max_batch = 8;
  base.concurrency = 32;
  base.measure = sim::seconds(2.0);
  const auto baseline = run_experiment(base);

  TuneSpace space;
  space.max_batches = {8, 64};
  space.concurrencies = {32, 256};
  space.preproc_devices = {serving::PreprocDevice::kGpu};
  const auto report = tune_server(base, space);
  ASSERT_TRUE(report.found_feasible());
  EXPECT_EQ(report.trace.size(), 4u);
  EXPECT_GE(report.best.result.throughput_rps, baseline.throughput_rps);
  EXPECT_EQ(report.best.spec.server.max_batch, 64);
}

TEST(Autotuner, SloConstraintFiltersConfigs) {
  auto base = small_spec();
  base.measure = sim::seconds(2.0);
  TuneSpace space;
  space.max_batches = {64};
  space.concurrencies = {16, 2048};
  space.preproc_devices = {serving::PreprocDevice::kGpu};
  TuneObjective slo;
  slo.p99_slo_s = 0.100;  // 100 ms: 2048-way concurrency cannot meet this
  const auto report = tune_server(base, space, slo);
  ASSERT_TRUE(report.found_feasible());
  EXPECT_EQ(report.best.spec.concurrency, 16);
  // The infeasible point is still in the trace, marked infeasible.
  int infeasible = 0;
  for (const auto& p : report.trace) infeasible += p.feasible ? 0 : 1;
  EXPECT_EQ(infeasible, 1);
}

TEST(Fleet, AggregatesNodeThroughput) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 256;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0);
  const auto r = run_fleet(spec);
  ASSERT_EQ(r.node_throughput_rps.size(), 2u);
  // Logical goodput at the balancer matches the sum of node-side completions
  // (modulo requests straddling the window edges).
  EXPECT_NEAR(r.throughput_rps, r.node_throughput_rps[0] + r.node_throughput_rps[1], 50.0);
  EXPECT_NEAR(r.imbalance(), 1.0, 0.05);  // round-robin over equal nodes
  EXPECT_GT(r.throughput_rps, 3000.0);
}

TEST(Fleet, LeastOutstandingAdaptsToHeterogeneity) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {2, 1};
  spec.concurrency = 384;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0);
  spec.server.balancer.policy = BalancerPolicy::kRoundRobin;
  const auto rr = run_fleet(spec);
  spec.server.balancer.policy = BalancerPolicy::kLeastOutstanding;
  const auto jsq = run_fleet(spec);
  EXPECT_GT(jsq.throughput_rps, rr.throughput_rps);
  // JSQ routes proportionally more work to the 2-GPU node.
  EXPECT_GT(jsq.node_throughput_rps[0], 1.5 * jsq.node_throughput_rps[1]);
}

TEST(Fleet, RejectsEmptyFleet) {
  FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.gpus_per_node = {};
  EXPECT_THROW((void)run_fleet(spec), std::invalid_argument);
}

// --- one lifecycle for every runner -----------------------------------------

/// What a lifecycle test reads back from one run.
struct Outcome {
  std::string digest;  ///< every reported number, printed exactly
  double throughput = 0.0;
};

std::string exact(std::initializer_list<double> xs) {
  std::string out;
  char buf[32];
  for (double x : xs) {
    std::snprintf(buf, sizeof buf, "%.17g ", x);
    out += buf;
  }
  return out;
}

struct RunnerCase {
  const char* name;
  std::function<Outcome(sim::Time measure, metrics::Registry* registry)> run;
  /// Callback instrument that must still read back, frozen and positive,
  /// after the runner has returned (nullptr: the runner takes no registry).
  const char* frozen_instrument;
};

void PrintTo(const RunnerCase& c, std::ostream* os) { *os << c.name; }

const RunnerCase kRunners[] = {
    {"experiment",
     [](sim::Time measure, metrics::Registry* registry) {
       auto spec = small_spec();
       spec.measure = measure;
       spec.registry = registry;
       const auto r = run_experiment(spec);
       return Outcome{exact({r.throughput_rps, r.mean_latency_s, r.p50_latency_s,
                             r.p99_latency_s, static_cast<double>(r.completed), r.mean_batch,
                             r.breakdown.mean_total(), r.energy.gpu_joules}),
                      r.throughput_rps};
     },
     "serving_in_flight_seconds_total"},
    {"fleet",
     [](sim::Time measure, metrics::Registry* registry) {
       FleetSpec spec;
       spec.server.model = models::tiny_vit();
       spec.server.balancer.policy = BalancerPolicy::kPowerOfTwo;
       spec.server.balancer.health.enabled = true;
       spec.server.balancer.hedge.enabled = true;
       spec.concurrency = 64;
       spec.warmup = sim::seconds(0.5);
       spec.measure = measure;
       spec.registry = registry;
       const auto r = run_fleet(spec);
       return Outcome{r.digest(), r.throughput_rps};
     },
     "fleet_latency_seconds_total"},
    {"face",
     [](sim::Time measure, metrics::Registry*) {
       FacePipelineSpec spec;
       spec.broker = BrokerKind::kKafka;
       spec.stochastic_faces = true;
       spec.concurrency = 4;
       spec.warmup = sim::seconds(0.5);
       spec.measure = measure;
       const auto r = run_face_pipeline(spec);
       return Outcome{exact({r.frames_per_s, r.faces_per_s, r.mean_latency_s, r.p99_latency_s,
                             static_cast<double>(r.frames), r.broker_share()}),
                      r.frames_per_s};
     },
     nullptr},
    {"video",
     [](sim::Time measure, metrics::Registry*) {
       VideoPipelineSpec spec;
       spec.concurrency = 4;
       spec.warmup = sim::seconds(0.5);
       spec.measure = measure;
       const auto r = run_video_pipeline(spec);
       return Outcome{exact({r.clips_per_s, r.frames_per_s, r.mean_latency_s, r.p99_latency_s,
                             static_cast<double>(r.clips), r.decode_share()}),
                      r.clips_per_s};
     },
     nullptr},
};

class RunLifecycle : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(RunLifecycle, SameSeedRepeatsAreIdentical) {
  const auto a = GetParam().run(sim::seconds(1.0), nullptr);
  const auto b = GetParam().run(sim::seconds(1.0), nullptr);
  EXPECT_GT(a.throughput, 0.0);
  EXPECT_EQ(a.digest, b.digest);
}

TEST_P(RunLifecycle, EmptyWindowReportsZeroThroughput) {
  const auto r = GetParam().run(0, nullptr);
  EXPECT_EQ(r.throughput, 0.0);  // an empty window is 0, not 0/0 = NaN
  EXPECT_EQ(r.digest.find("nan"), std::string::npos) << r.digest;
}

/// The runners that take a registry (the first two of kRunners).
class RunLifecycleRegistry : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(RunLifecycleRegistry, ExportsAfterRunnerReturns) {
  const RunnerCase& c = GetParam();
  metrics::Registry registry;
  (void)c.run(sim::seconds(1.0), &registry);
  // The runner's world is gone; its callback instruments must have been
  // frozen to plain values, so reading them is safe and meaningful.
  const auto frozen = registry.find(c.frozen_instrument);
  ASSERT_TRUE(frozen.has_value());
  EXPECT_GT(frozen->value, 0.0);
  for (const auto& ins : registry.snapshot()) EXPECT_TRUE(std::isfinite(ins.value)) << ins.name;
}

auto runner_name = [](const auto& info) { return std::string(info.param.name); };
INSTANTIATE_TEST_SUITE_P(AllRunners, RunLifecycle, ::testing::ValuesIn(kRunners), runner_name);
INSTANTIATE_TEST_SUITE_P(RegistryRunners, RunLifecycleRegistry,
                         ::testing::ValuesIn(std::begin(kRunners), std::begin(kRunners) + 2),
                         runner_name);

TEST(Trace, RecordsAndExportsChromeJson) {
  sim::TraceRecorder trace;
  trace.span("gpu0.compute", "batch x32", sim::milliseconds(1), sim::milliseconds(3));
  trace.counter("cpu.cores", 7.0, sim::milliseconds(2));
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("batch x32"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);  // 2 ms in us
}

TEST(Trace, RejectsNegativeSpans) {
  sim::TraceRecorder trace;
  EXPECT_THROW(trace.span("t", "n", 10, 5), std::invalid_argument);
}

TEST(Trace, ExperimentEmitsUtilizationCounters) {
  auto spec = small_spec();
  spec.measure = sim::seconds(1.0);
  sim::TraceRecorder trace;
  spec.trace = &trace;
  (void)run_experiment(spec);
  EXPECT_GT(trace.counter_count(), 1000u);  // busy server: many transitions
  std::ostringstream os;
  trace.write_chrome_json(os);
  EXPECT_NE(os.str().find("gpu0.compute"), std::string::npos);
  EXPECT_NE(os.str().find("cpu.cores"), std::string::npos);
}

TEST(Trace, ClearResets) {
  sim::TraceRecorder trace;
  trace.counter("x", 1.0, 0);
  EXPECT_FALSE(trace.empty());
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace serve::core
