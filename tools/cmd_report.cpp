// `servescope report`: renders a recorded run's trajectory from a
// servescope-telemetry-v1 export (bench --json-out, typically
// fig05_concurrency --record).
//
// Sections:
//   - timeline: unicode sparklines of throughput (differenced completion
//     counter), queue depth, and eviction rate over the recorded window,
//     with first-third vs last-third deltas — the temporal shape behind the
//     paper's Fig. 5 claims (GPU-preproc decline, queue growth);
//   - per-stage breakdown from the serving_stage_seconds_total counters;
//   - SLO attainment from the request-latency histogram: p50/p95/p99/p99.9,
//     fraction of requests under the objective, and the error-budget burn
//     rate ((1 - attainment) / (1 - target));
//   - alerts fired by obs::AlertEngine, and the balancer's per-node health;
//   - capacity: per-resource interval utilization table (mean/peak busy
//     fraction, time-average queue depth, saturation highlighting), the
//     binding-resource verdict with the headroom estimate, and the
//     Little's-law audit summary — present when the run attached an
//     obs::CapacityPlane;
//   - shape-check verdicts recorded by the bench.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "reader.h"

namespace scope {
namespace {

struct Series {
  std::string name;
  std::vector<double> samples;
};

/// Element-wise sum of every series with `name` (servescope series all share
/// the recorder cadence; shorter late-joining series align at the tail end,
/// which is good enough for a human-facing summary).
std::vector<double> summed(const std::vector<Series>& all, std::string_view name) {
  std::vector<double> out;
  for (const auto& s : all) {
    if (s.name != name) continue;
    out.resize(std::max(out.size(), s.samples.size()), 0.0);
    for (std::size_t i = 0; i < s.samples.size(); ++i) out[i] += s.samples[i];
  }
  return out;
}

std::vector<double> differenced(const std::vector<double>& cum, double period_s) {
  std::vector<double> out;
  if (cum.size() < 2 || period_s <= 0) return out;
  for (std::size_t i = 1; i < cum.size(); ++i) out.push_back((cum[i] - cum[i - 1]) / period_s);
  return out;
}

void print_timeline_row(const char* label, const std::vector<double>& v, const char* unit) {
  if (v.size() < 3) {
    // One or two samples have no meaningful thirds; print them verbatim.
    std::string vals;
    for (const double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.1f", vals.empty() ? "" : ", ", x);
      vals += buf;
    }
    std::printf("  %-14s %s %s (too few samples for a trend)\n", label,
                v.empty() ? "(no samples)" : vals.c_str(), v.empty() ? "" : unit);
    return;
  }
  const std::size_t n = v.size();
  const double first = mean_over(v, 0, n / 3);
  const double last = mean_over(v, 2 * n / 3, n);
  std::printf("  %-14s %s\n", label, sparkline(v, 64).c_str());
  if (first != 0.0 && std::isfinite(first) && std::isfinite(last)) {
    std::printf("  %-14s first⅓ %.1f %s, last⅓ %.1f %s (%+.1f%%)\n", "", first, unit, last,
                unit, 100.0 * (last - first) / first);
  } else {
    // A zero or non-finite first third makes the relative change meaningless.
    std::printf("  %-14s first⅓ %.1f %s, last⅓ %.1f %s (change n/a)\n", "", first, unit, last,
                unit);
  }
}

/// Row `key` of an insertion-ordered table, appended when new.
template <class Row>
Row& row_of(std::vector<std::pair<std::string, Row>>& rows, const std::string& key) {
  for (auto& [k, row] : rows) {
    if (k == key) return row;
  }
  return rows.emplace_back(key, Row{}).second;
}

void print_capacity(const Capacity& cap) {
  std::printf("\nCapacity (%zu resources, %zu intervals of %.0f ms):\n", cap.resources.size(),
              cap.intervals, cap.period_s * 1e3);
  if (cap.empty()) {
    std::printf("  (no capacity intervals recorded)\n");
    return;
  }
  std::printf("  %-24s %4s %7s %7s %8s  %s\n", "resource", "cap", "mean", "peak", "queue",
              "utilization");
  for (const auto& r : cap.resources) {
    if (r.finite == 0) {
      std::printf("  %-24s %4.0f %7s %7s %8s  (no finite samples)\n", r.label.c_str(),
                  r.capacity, "n/a", "n/a", "n/a");
      continue;
    }
    // The min/max-scaled sparkline would render an all-zero timeline
    // mid-scale, so call the idle resource idle instead.
    std::printf("  %-24s %4.0f %6.1f%% %6.1f%% %8.2f  %s%s\n", r.label.c_str(), r.capacity,
                100.0 * r.mean, 100.0 * r.peak, r.queue_mean,
                r.peak <= 0.0 ? "(idle)" : sparkline(r.busy, 32).c_str(),
                r.peak >= kSaturated ? "  SATURATED" : "");
  }
  std::printf("  binding resource: %s (stage '%s')", cap.binding.c_str(),
              cap.binding_stage.c_str());
  if (cap.has_headroom()) {
    std::printf(", est. sustainable %.1f req/s\n", cap.sustainable_rps);
  } else {
    std::printf(", headroom n/a\n");
  }
  if (cap.violations.empty()) {
    std::printf("  Little's-law audit: clean (%zu intervals)\n", cap.audited);
  } else {
    std::printf("  Little's-law audit: %zu/%zu interval(s) deviated (backlog transients)\n",
                cap.violations.size(), cap.audited);
  }
}

}  // namespace

int run_report(const Args& args) {
  const double slo_s = args.number("--slo", 0.25);
  const double slo_target = args.number("--slo-target", 0.99);
  if (slo_s <= 0 || slo_target <= 0 || slo_target >= 1) {
    throw InputError("--slo must be > 0 and --slo-target in (0, 1)");
  }
  const std::string& path = args.paths[0];
  const Value doc = load(path, Schema::kTelemetry);

  std::printf("=== servescope run report: %s ===\n", path.c_str());
  if (const Value* ctx = doc.find("context"); ctx != nullptr && ctx->is_object()) {
    for (const auto& [k, v] : ctx->object) {
      if (v.is_string()) std::printf("  %-12s %s\n", k.c_str(), v.str.c_str());
    }
  }

  // --- timeline ------------------------------------------------------------
  const Value* series = doc.find("series");
  if (series != nullptr && series->is_object()) {
    const double period_s = series->num_or("period_s", 0.0);
    std::vector<Series> data;
    if (const Value* points = series->find("points"); points != nullptr && points->is_array()) {
      for (const Value& p : points->array) {
        data.push_back({p.str_or("name", ""), numbers_of(p, "samples")});
      }
    }
    std::printf("\nTimeline (%zu series, %.0f ms cadence):\n", data.size(), period_s * 1e3);
    print_timeline_row("tput img/s", differenced(summed(data, "serving_requests_completed_total"),
                                                 period_s), "img/s");
    print_timeline_row("queue depth", summed(data, "serving_queue_depth"), "reqs");
    print_timeline_row("evictions/s", differenced(summed(data, "gpu_staging_evictions_total"),
                                                  period_s), "ev/s");
  } else {
    std::printf("\nTimeline: no recorded series (run the bench with --record)\n");
  }

  // --- one pass over the instruments ----------------------------------------
  struct AlertRow {
    double fired = 0.0, resolved = 0.0;
  };
  struct FleetNode {
    double score = -1.0, state = -1.0, dispatches = 0.0, ejections = 0.0, rejoins = 0.0;
  };
  std::vector<std::pair<std::string, double>> stages;
  std::optional<Histogram> latency;
  std::vector<std::pair<std::string, AlertRow>> alerts;
  std::vector<std::pair<std::string, FleetNode>> fleet;  // node label -> row
  if (const Value* instruments = doc.find("instruments");
      instruments != nullptr && instruments->is_array()) {
    for (const Value& ins : instruments->array) {
      const std::string name = ins.str_or("name", "");
      const Value* labels = ins.find("labels");
      const auto label = [labels](std::string_view key) {
        return labels != nullptr ? labels->str_or(key, "?") : std::string("?");
      };
      const double v = ins.num_or("value", 0.0);
      if (name == "serving_stage_seconds_total") {
        stages.emplace_back(label("stage"), v);
      } else if (name == "serving_request_latency_seconds") {
        latency = histogram_of(ins);
      } else if (name == "obs_alerts_fired_total") {
        row_of(alerts, label("alert")).fired += v;
      } else if (name == "obs_alerts_resolved_total") {
        row_of(alerts, label("alert")).resolved += v;
      } else if (name.starts_with("fleet_node_")) {
        FleetNode& row = row_of(fleet, label("node"));
        if (name == "fleet_node_health_score") row.score = v;
        else if (name == "fleet_node_state") row.state = v;
        else if (name == "fleet_node_dispatches_total") row.dispatches = v;
        else if (name == "fleet_node_ejections_total") row.ejections = v;
        else if (name == "fleet_node_rejoins_total") row.rejoins = v;
      }
    }
  }

  if (!stages.empty()) {
    double total = 0.0;
    for (const auto& [_, v] : stages) total += v;
    std::printf("\nPer-stage time (cumulative request-seconds):\n");
    std::printf("  %-12s %14s %8s\n", "stage", "seconds", "share");
    for (const auto& [stage, v] : stages) {
      std::printf("  %-12s %14.2f %7.1f%%\n", stage.c_str(), v,
                  total > 0 ? 100.0 * v / total : 0.0);
    }
  }

  if (latency && latency->count <= 0.0) {
    // An export from a run that completed nothing (e.g. a total-outage fault
    // window) still has the histogram registered; the quantile contract says
    // every quantile of an empty histogram is exactly 0, which would render
    // as a perfect SLO. Say what actually happened instead.
    std::printf("\nLatency SLO: no completed requests recorded\n");
  } else if (latency) {
    const double att = attainment(*latency, slo_s);
    const double burn = (1.0 - att) / (1.0 - slo_target);
    std::printf("\nLatency SLO (objective %.0f ms at %.2f%% target):\n", slo_s * 1e3,
                100.0 * slo_target);
    std::printf("  p50 %.1f ms   p95 %.1f ms   p99 %.1f ms   p99.9 %.1f ms   (n=%.0f)\n",
                quantile(*latency, 0.50) * 1e3, quantile(*latency, 0.95) * 1e3,
                quantile(*latency, 0.99) * 1e3, quantile(*latency, 0.999) * 1e3,
                latency->count);
    std::printf("  attainment %.2f%%   error-budget burn rate %.1fx%s\n", 100.0 * att, burn,
                burn > 1.0 ? "  (burning faster than budget)" : "");
  }

  if (!alerts.empty()) {
    bool any = false;
    for (const auto& [_, row] : alerts) any = any || row.fired > 0.0;
    std::printf("\nAlerts:%s\n", any ? "" : " all rules silent");
    for (const auto& [name, row] : alerts) {
      if (row.fired <= 0.0) continue;
      std::printf("  %-24s fired %.0f time(s), resolved %.0f time(s)%s\n", name.c_str(),
                  row.fired, row.resolved,
                  row.fired > row.resolved ? "  (still firing at end of run)" : "");
    }
  }

  if (!fleet.empty()) {
    std::printf("\nFleet health (end-of-run balancer view):\n");
    std::printf("  %-6s %-10s %-12s %12s %10s %8s\n", "node", "state", "score", "dispatches",
                "ejections", "rejoins");
    for (const auto& [node, row] : fleet) {
      const char* state = row.state >= 1.0 ? "healthy" : row.state >= 0.5 ? "half-open"
                                                                          : "ejected";
      const auto filled =
          static_cast<std::size_t>(std::fmin(std::fmax(row.score * 10.0 + 0.5, 0.0), 10.0));
      const std::string bar = std::string(filled, '#') + std::string(10 - filled, '.');
      std::printf("  %-6s %-10s %s %12.0f %10.0f %8.0f\n", node.c_str(), state, bar.c_str(),
                  row.dispatches, row.ejections, row.rejoins);
    }
  }

  if (const auto cap = capacity_of(doc)) print_capacity(*cap);

  // --- shape checks ---------------------------------------------------------
  if (const Value* checks = doc.find("checks"); checks != nullptr && checks->is_array()) {
    const auto passed = [](const Value& c) {
      const Value* p = c.find("pass");
      return p != nullptr && p->boolean;
    };
    const auto pass = std::count_if(checks->array.begin(), checks->array.end(), passed);
    std::printf("\nShape checks: %zu/%zu passed\n", static_cast<std::size_t>(pass),
                checks->array.size());
    for (const Value& c : checks->array) {
      std::printf("  [%s] %s\n", passed(c) ? "PASS" : "DEVIATION", c.str_or("claim", "?").c_str());
    }
  }
  return 0;
}

}  // namespace scope
