// Tests for the request-lifecycle auditor: conservation, hygiene, and
// monotonicity checks pass clean on healthy end-to-end runs, catch seeded
// violations, and stream per-request stage spans into the trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "hw/image_spec.h"
#include "models/model_zoo.h"
#include "serving/audit.h"
#include "serving/client.h"
#include "serving/server.h"
#include "sim/trace.h"

namespace serve {
namespace {

using metrics::Stage;
using serving::RequestAuditor;

std::size_t count_check(const RequestAuditor& a, const std::string& check) {
  return static_cast<std::size_t>(
      std::count_if(a.violations().begin(), a.violations().end(),
                    [&](const RequestAuditor::Violation& v) { return v.check == check; }));
}

bool has_check(const RequestAuditor& a, const std::string& check) {
  return count_check(a, check) > 0;
}

// --- end-to-end: healthy servers audit clean ---------------------------------

class AuditPreprocGrid : public ::testing::TestWithParam<serving::PreprocDevice> {};

TEST_P(AuditPreprocGrid, CleanAfterLoadAndDrain) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.preproc = GetParam();
  cfg.audit = true;
  serving::InferenceServer server{platform, cfg};
  ASSERT_NE(server.auditor(), nullptr);
  serving::ClosedLoopClients clients{
      server, {.concurrency = 32, .image_source = serving::fixed_image(hw::kMediumImage)}};
  clients.start();
  sim.run_until(sim::seconds(3.0));
  clients.stop();
  sim.run();
  server.shutdown();

  const auto& audit = *server.auditor();
  EXPECT_TRUE(audit.finalized());
  for (const auto& line : audit.report()) ADD_FAILURE() << "audit: " << line;
  EXPECT_TRUE(audit.clean());
  EXPECT_GT(audit.submitted(), 100u);
  EXPECT_EQ(audit.submitted(), audit.completed() + audit.dropped());
  EXPECT_EQ(audit.in_flight(), 0u);
  EXPECT_EQ(server.lost_handoffs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PreprocDevices, AuditPreprocGrid,
                         ::testing::Values(serving::PreprocDevice::kCpu,
                                           serving::PreprocDevice::kGpu));

TEST(AuditEndToEnd, ShedsAuditCleanToo) {
  // Dropped requests must conserve stage time and be counted exactly once.
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.audit = true;
  cfg.shed_deadline = sim::milliseconds(50);
  serving::InferenceServer server{platform, cfg};
  serving::ClosedLoopClients clients{
      server, {.concurrency = 512, .image_source = serving::fixed_image(hw::kMediumImage)}};
  clients.start();
  sim.run_until(sim::seconds(3.0));
  clients.stop();
  sim.run();
  server.shutdown();

  const auto& audit = *server.auditor();
  EXPECT_GT(audit.dropped(), 0u);  // overload actually shed something
  for (const auto& line : audit.report()) ADD_FAILURE() << "audit: " << line;
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.submitted(), audit.completed() + audit.dropped());
}

TEST(AuditEndToEnd, ChargeAfterCompletionIsFlagged) {
  // Seeded violation: once a request completed, any further stage charge is
  // an accounting error the auditor must catch.
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.audit = true;
  serving::InferenceServer server{platform, cfg};
  auto req = std::make_shared<serving::Request>(sim, 1, hw::kMediumImage);
  server.submit(req);
  sim.run();
  ASSERT_TRUE(req->done.is_set());
  ASSERT_TRUE(server.auditor()->clean());
  req->charge(Stage::kIngest, sim::seconds(0.5));  // rogue late charge
  EXPECT_FALSE(server.auditor()->clean());
  EXPECT_TRUE(has_check(*server.auditor(), "charge-after-completion"));
  server.shutdown();
}

TEST(AuditEndToEnd, AuditOffMeansNoAuditor) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  serving::InferenceServer server{platform, cfg};
  EXPECT_EQ(server.auditor(), nullptr);
  server.shutdown();
}

// --- seeded violations against the auditor API -------------------------------

TEST(RequestAuditor, CleanLifecyclePasses) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 7, hw::kMediumImage};
  audit.on_submit(req);
  req.enqueue_time = sim::seconds(0.2);
  req.charge(Stage::kQueue, sim::seconds(0.4));
  req.charge(Stage::kInference, sim::seconds(0.6));
  req.completed = sim::seconds(1.0);
  audit.on_complete(req);
  audit.finalize();
  EXPECT_TRUE(audit.clean()) << (audit.report().empty() ? "" : audit.report().front());
  EXPECT_EQ(audit.submitted(), 1u);
  EXPECT_EQ(audit.completed(), 1u);
}

TEST(RequestAuditor, DetectsDeliberatelyLeakedRequest) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 9, hw::kMediumImage};
  audit.on_submit(req);
  audit.finalize();  // request never completed nor dropped
  EXPECT_FALSE(audit.clean());
  EXPECT_TRUE(has_check(audit, "leaked-request"));
  EXPECT_TRUE(has_check(audit, "request-conservation"));
  EXPECT_EQ(audit.in_flight(), 1u);
}

TEST(RequestAuditor, DetectsStageTimeDrift) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 3, hw::kMediumImage};
  audit.on_submit(req);
  req.charge(Stage::kPreprocess, sim::seconds(0.25));  // only covers a quarter
  req.completed = sim::seconds(1.0);
  audit.on_complete(req);
  ASSERT_FALSE(audit.clean());
  ASSERT_TRUE(has_check(audit, "stage-conservation"));
  const auto& v = audit.violations().front();
  EXPECT_NE(v.detail.find("sum(stages)"), std::string::npos) << v.detail;
}

TEST(RequestAuditor, DetectsOverAccounting) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 4, hw::kMediumImage};
  audit.on_submit(req);
  req.charge(Stage::kInference, sim::seconds(1.0));
  req.charge(Stage::kInference, sim::seconds(1.0));  // same second charged twice
  req.completed = sim::seconds(1.0);
  audit.on_complete(req);
  ASSERT_TRUE(has_check(audit, "stage-conservation"));
  EXPECT_NE(audit.violations().front().detail.find("inference"), std::string::npos);
}

TEST(RequestAuditor, DetectsDoubleCompletion) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 5, hw::kMediumImage};
  audit.on_submit(req);
  req.completed = 0;
  audit.on_complete(req);
  audit.on_complete(req);  // done set twice
  EXPECT_TRUE(has_check(audit, "double-completion"));
}

TEST(RequestAuditor, DetectsMonotonicityViolations) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request before{sim, 6, hw::kMediumImage};
  audit.on_submit(before);
  before.completed = -5;  // before arrival
  audit.on_complete(before);
  EXPECT_TRUE(has_check(audit, "monotonicity"));

  RequestAuditor audit2;
  serving::Request outside{sim, 8, hw::kMediumImage};
  audit2.on_submit(outside);
  outside.completed = sim::seconds(1.0);
  outside.enqueue_time = sim::seconds(2.0);  // after completion
  audit2.on_complete(outside);
  EXPECT_TRUE(has_check(audit2, "monotonicity"));
}

TEST(RequestAuditor, ResourceHygieneChecksZero) {
  RequestAuditor audit;
  audit.check_zero("gpu0.stager.staged_count", 0);
  EXPECT_TRUE(audit.clean());
  audit.check_zero("gpu0.inf_batcher.queued", 3);
  EXPECT_FALSE(audit.clean());
  EXPECT_TRUE(has_check(audit, "resource-hygiene"));
}

TEST(RequestAuditor, LostHandoffIsAlwaysAViolation) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 2, hw::kMediumImage};
  audit.on_submit(req);
  audit.on_lost_handoff(req, "inference");
  EXPECT_TRUE(has_check(audit, "lost-handoff"));
}

TEST(RequestAuditor, ReportCapsStoredViolationsButCountsAll) {
  RequestAuditor audit{RequestAuditor::Options{.max_recorded = 2}};
  for (int i = 0; i < 5; ++i) audit.check_zero("thing", 1);
  EXPECT_EQ(audit.violation_count(), 5u);
  EXPECT_EQ(audit.violations().size(), 2u);
  const auto lines = audit.report();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines.back().find("3 more"), std::string::npos);
}

TEST(RequestAuditor, FinalizeIsIdempotent) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 1, hw::kMediumImage};
  audit.on_submit(req);
  audit.finalize();
  const auto count = audit.violation_count();
  audit.finalize();  // a second shutdown must not double-report
  EXPECT_EQ(audit.violation_count(), count);
}

// Lifecycle-misuse checks without a dedicated test above, each seeded by the
// smallest misuse that triggers it (with the tests above, every check name
// the auditor emits is covered).
struct SeededViolation {
  std::string check;
  std::function<void(sim::Simulator&, RequestAuditor&)> seed;
};

void PrintTo(const SeededViolation& v, std::ostream* os) { *os << v.check; }

class AuditCheckNames : public ::testing::TestWithParam<SeededViolation> {};

TEST_P(AuditCheckNames, SeededMisuseIsFlagged) {
  sim::Simulator sim;
  RequestAuditor audit;
  GetParam().seed(sim, audit);
  EXPECT_TRUE(has_check(audit, GetParam().check))
      << (audit.report().empty() ? "clean" : audit.report().front());
}

INSTANTIATE_TEST_SUITE_P(
    LifecycleMisuse, AuditCheckNames,
    ::testing::Values(
        SeededViolation{"duplicate-submit",
                        [](sim::Simulator& sim, RequestAuditor& a) {
                          serving::Request req{sim, 1, hw::kMediumImage};
                          a.on_submit(req);
                          a.on_submit(req);  // the same request submitted twice
                        }},
        SeededViolation{"untracked-completion",
                        [](sim::Simulator& sim, RequestAuditor& a) {
                          serving::Request req{sim, 1, hw::kMediumImage};
                          req.completed = 0;
                          a.on_complete(req);  // never submitted
                        }},
        SeededViolation{"negative-charge",
                        [](sim::Simulator& sim, RequestAuditor& a) {
                          serving::Request req{sim, 1, hw::kMediumImage};
                          a.on_submit(req);
                          req.charge(Stage::kQueue, -sim::seconds(0.5));
                        }}),
    [](const ::testing::TestParamInfo<SeededViolation>& p) {
      std::string name = p.param.check;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(RequestAuditor, LeaksAreOneCountedViolation) {
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request a{sim, 1, hw::kMediumImage};
  serving::Request b{sim, 2, hw::kMediumImage};
  audit.on_submit(a);
  audit.on_submit(b);
  EXPECT_EQ(audit.in_flight(), 2u);
  audit.finalize();
  ASSERT_EQ(count_check(audit, "leaked-request"), 1u);
  const auto& v = audit.violations().front();
  EXPECT_EQ(v.check, "leaked-request");
  EXPECT_EQ(v.request_id, 0u);
  EXPECT_EQ(v.detail.rfind("2 request(s)", 0), 0u) << v.detail;
  EXPECT_EQ(count_check(audit, "request-conservation"), 1u);
}

TEST(RequestAuditor, GapLabelSurvivesLongChargeLogs) {
  // 300 one-millisecond queue charges tile the request, except for one 50 ms
  // hole right before the 151st charge (an inference charge). The label
  // must name that stage no matter how many charges the request carries.
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 1, hw::kMediumImage};
  audit.on_submit(req);
  for (int i = 0; i < 300; ++i) {
    const double begin_ms = i + (i >= 150 ? 50.0 : 0.0);
    const Stage s = i == 150 ? Stage::kInference : Stage::kQueue;
    sim.schedule_at(sim::milliseconds(begin_ms + 1.0),
                    [&req, s] { req.charge(s, sim::milliseconds(1.0)); });
  }
  sim.run();
  req.completed = sim.now();
  ASSERT_EQ(req.completed, sim::milliseconds(350.0));
  audit.on_complete(req);
  ASSERT_EQ(count_check(audit, "stage-conservation"), 1u);
  const std::string& detail = audit.violations().front().detail;
  EXPECT_NE(detail.find("largest uncovered gap 0.050000s precedes stage 'inference'"),
            std::string::npos)
      << detail;
}

TEST(RequestAuditor, OutOfOrderChargeClosesNoGap) {
  // Pinned label for charges that arrive out of begin order: [10 s, 11 s]
  // inference is charged first, then [8 s, 11 s] queue. The running
  // covered-to cursor sees the 10 s hole before inference; the late queue
  // charge begins behind the cursor and closes no gap, so the label names
  // inference (a sorted sweep would have named queue with an 8 s gap).
  sim::Simulator sim;
  RequestAuditor audit;
  serving::Request req{sim, 1, hw::kMediumImage};
  audit.on_submit(req);
  sim.schedule_at(sim::seconds(11.0), [&req] {
    req.charge(Stage::kInference, sim::seconds(1.0));
    req.charge(Stage::kQueue, sim::seconds(3.0));
  });
  sim.run();
  req.completed = sim.now();
  audit.on_complete(req);
  ASSERT_EQ(count_check(audit, "stage-conservation"), 1u);
  const std::string& detail = audit.violations().front().detail;
  EXPECT_NE(detail.find("largest uncovered gap 10.000000s precedes stage 'inference'"),
            std::string::npos)
      << detail;
}

// --- per-request trace spans -------------------------------------------------

TEST(RequestAuditor, StreamsStageSpansPerRequest) {
  sim::Simulator sim;
  sim::TraceRecorder trace;
  RequestAuditor audit{RequestAuditor::Options{.sampler = {.rate = 1.0}}};
  audit.set_trace(&trace);
  serving::Request req{sim, 11, hw::kMediumImage};
  audit.on_submit(req);
  req.charge(Stage::kQueue, sim::seconds(0.3));
  req.charge(Stage::kInference, sim::seconds(0.7));
  req.completed = sim::seconds(1.0);
  audit.on_complete(req);
  EXPECT_EQ(trace.span_count(), 2u);
  std::ostringstream json;
  trace.write_chrome_json(json);
  EXPECT_NE(json.str().find("req.11"), std::string::npos);
  EXPECT_NE(json.str().find("inference"), std::string::npos);
}

TEST(RequestAuditor, TracedRequestCountIsCapped) {
  sim::Simulator sim;
  sim::TraceRecorder trace;
  RequestAuditor audit{RequestAuditor::Options{
      .sampler = {.rate = 1.0, .max_sampled = 2}}};
  audit.set_trace(&trace);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    serving::Request req{sim, id, hw::kMediumImage};
    audit.on_submit(req);
    req.charge(Stage::kInference, sim::seconds(0.1));
    req.completed = 0;
  }
  EXPECT_EQ(trace.span_count(), 2u);  // only the first two requests traced
}

// --- experiment harness integration ------------------------------------------

TEST(ExperimentHarness, AuditResultFlowsThroughRun) {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.audit = true;
  spec.concurrency = 16;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(1.0);
  const auto r = core::run_experiment(spec);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  EXPECT_TRUE(r.audit_report.empty());
}

TEST(ExperimentHarness, TracedRunEmitsRequestSpans) {
  sim::TraceRecorder trace;
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.audit = true;
  spec.trace = &trace;
  spec.concurrency = 4;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(0.5);
  const auto r = core::run_experiment(spec);
  ASSERT_GT(r.completed, 0u);
  EXPECT_GT(trace.span_count(), 0u);
  std::ostringstream json;
  trace.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"req."), std::string::npos);
}

TEST(ExperimentHarness, ParsesAuditAndTraceFlags) {
  const char* argv1[] = {"bench", "--audit"};
  const auto a = core::parse_harness_options(2, argv1);
  EXPECT_TRUE(a.audit);
  EXPECT_FALSE(a.tracing());

  const char* argv2[] = {"bench", "--trace-out", "/tmp/t.json"};
  const auto b = core::parse_harness_options(3, argv2);
  EXPECT_EQ(b.trace_out, "/tmp/t.json");
  EXPECT_TRUE(b.auditing());  // tracing implies auditing

  const char* argv3[] = {"bench", "--bogus"};
  EXPECT_THROW((void)core::parse_harness_options(2, argv3), std::invalid_argument);
  const char* argv4[] = {"bench", "--trace-out"};
  EXPECT_THROW((void)core::parse_harness_options(2, argv4), std::invalid_argument);

  const char* argv5[] = {"bench", "--trace-max-events", "4096"};
  EXPECT_EQ(core::parse_harness_options(3, argv5).trace_max_events, 4096u);
  // Digits only: a sign or leading space must not slip through std::stoull
  // ("-1" would wrap to 2^64 - 1 and lift the event cap).
  for (const char* bad : {"-1", " 7", "+3", "0", "", "12x", "99999999999999999999999"}) {
    const char* argv6[] = {"bench", "--trace-max-events", bad};
    EXPECT_THROW((void)core::parse_harness_options(3, argv6), std::invalid_argument) << bad;
  }

  sim::TraceRecorder trace;
  core::ExperimentSpec spec;
  b.apply(spec, trace);
  EXPECT_TRUE(spec.server.audit);
  EXPECT_EQ(spec.trace, &trace);
}

}  // namespace
}  // namespace serve
