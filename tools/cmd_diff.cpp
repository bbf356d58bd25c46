// `servescope diff`: differential run attribution for two
// servescope-telemetry-v1 exports.
//
// `check` diffs raw benchmark rates; this subcommand explains *why* two runs
// differ. It aligns two exports (same-seed baseline vs candidate, or
// fault-free vs faulted), computes the throughput and p99 deltas, and
// attributes the latency shift to per-stage breakdown changes: each
// serving_stage_seconds_total{stage=...} counter divided by completed
// requests gives per-request seconds in that stage, and the stage whose
// per-request cost moved the most is the attribution. Alert counters
// (obs_alerts_fired_total) are diffed alongside so a regression report names
// the alerts that fired in one run but not the other.
//
// The regression gate is one-sided (it is a *regression* gate): a p99
// increase, a throughput decrease, or a per-stage per-request increase
// larger than --tolerance (relative; stages are normalized by the baseline's
// total per-request seconds so microscopic stages cannot trip it) exits 1.
// Two identical exports always exit 0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "reader.h"

namespace scope {
namespace {

/// One run's digested view of the export.
struct RunView {
  double completed = 0.0;
  std::optional<double> p99_s;                     ///< from the latency histogram
  std::map<std::string, double> stage_per_req_s;  ///< stage -> seconds/request
  std::map<std::string, double> alerts_fired;     ///< alert name -> fire count
  std::map<std::string, double> throughput;       ///< benchmark/extra -> tput
};

RunView digest(const std::string& path) {
  const Value doc = load(path, Schema::kTelemetry);
  const Value* instruments = doc.find("instruments");
  if (instruments == nullptr || !instruments->is_array()) {
    throw InputError(path + " has no instruments array");
  }
  RunView view;
  std::map<std::string, double> stage_total_s;
  for (const auto& ins : instruments->array) {
    const std::string name = ins.str_or("name", "");
    const Value* labels = ins.find("labels");
    if (name == "serving_requests_completed_total") {
      view.completed += ins.num_or("value", 0.0);
    } else if (name == "serving_request_latency_seconds") {
      view.p99_s = quantile(histogram_of(ins), 0.99);
    } else if (name == "serving_stage_seconds_total" && labels != nullptr) {
      const std::string stage = labels->str_or("stage", "");
      if (!stage.empty()) stage_total_s[stage] += ins.num_or("value", 0.0);
    } else if (name == "obs_alerts_fired_total" && labels != nullptr) {
      const std::string alert = labels->str_or("alert", "");
      if (!alert.empty()) view.alerts_fired[alert] += ins.num_or("value", 0.0);
    }
  }
  if (view.completed > 0.0) {
    for (const auto& [stage, total_s] : stage_total_s) {
      view.stage_per_req_s[stage] = total_s / view.completed;
    }
  }
  if (const Value* benches = doc.find("benchmarks"); benches != nullptr && benches->is_array()) {
    for (const auto& b : benches->array) {
      const std::string name = b.str_or("name", "");
      if (name.empty()) continue;
      for (const auto& [k, v] : b.object) {
        // Any "tput_*" extra is a throughput; keyed by benchmark so sweeps
        // with several rows stay aligned row-by-row.
        if (k.starts_with("tput") && v.is_number()) view.throughput[name + '/' + k] = v.number;
      }
    }
  }
  return view;
}

double pct(double base, double cand) {
  return base != 0.0 ? 100.0 * (cand - base) / base : 0.0;
}

}  // namespace

int run_diff(const Args& args) {
  const double tolerance = args.number("--tolerance", 0.05);
  const RunView base = digest(args.paths[0]);
  const RunView cand = digest(args.paths[1]);

  std::printf("diff: base=%s candidate=%s tolerance=%.1f%%\n", args.paths[0].c_str(),
              args.paths[1].c_str(), 100.0 * tolerance);

  std::vector<std::string> regressions;
  const auto regress = [&regressions](const char* fmt, auto... values) {
    char line[160];
    std::snprintf(line, sizeof line, fmt, values...);
    regressions.emplace_back(line);
  };

  // Throughput rows shared by both exports; a decrease past tolerance trips.
  for (const auto& [key, base_v] : base.throughput) {
    const auto it = cand.throughput.find(key);
    if (it == cand.throughput.end()) continue;
    const double delta_pct = pct(base_v, it->second);
    std::printf("  throughput %-40s %12.2f -> %12.2f  (%+.2f%%)\n", key.c_str(), base_v,
                it->second, delta_pct);
    if (base_v > 0.0 && (base_v - it->second) / base_v > tolerance) {
      regress("throughput %s %+.2f%%", key.c_str(), delta_pct);
    }
  }

  if (base.p99_s && cand.p99_s) {
    const double delta_pct = pct(*base.p99_s, *cand.p99_s);
    std::printf("  p99 latency %38.2f -> %12.2f ms (%+.2f%%)\n", 1e3 * *base.p99_s,
                1e3 * *cand.p99_s, delta_pct);
    if (*base.p99_s > 0.0 && (*cand.p99_s - *base.p99_s) / *base.p99_s > tolerance) {
      regress("p99 latency %+.2f%%", delta_pct);
    }
  }

  // Per-stage attribution: rank stages by the absolute shift in per-request
  // seconds; the top stage is where the p99/throughput delta lives.
  double base_total_per_req = 0.0;
  for (const auto& [stage, s] : base.stage_per_req_s) base_total_per_req += s;
  struct StageDelta {
    std::string stage;
    double base_s = 0.0;
    double cand_s = 0.0;
    double delta_s = 0.0;
  };
  std::vector<StageDelta> stage_deltas;
  double total_shift = 0.0;
  for (const auto& [stage, base_s] : base.stage_per_req_s) {
    const auto it = cand.stage_per_req_s.find(stage);
    const double cand_s = it != cand.stage_per_req_s.end() ? it->second : 0.0;
    stage_deltas.push_back({stage, base_s, cand_s, cand_s - base_s});
    total_shift += std::abs(cand_s - base_s);
  }
  for (const auto& [stage, cand_s] : cand.stage_per_req_s) {
    if (base.stage_per_req_s.count(stage) == 0) {
      stage_deltas.push_back({stage, 0.0, cand_s, cand_s});
      total_shift += std::abs(cand_s);
    }
  }
  std::sort(stage_deltas.begin(), stage_deltas.end(), [](const auto& a, const auto& b) {
    if (std::abs(a.delta_s) != std::abs(b.delta_s)) {
      return std::abs(a.delta_s) > std::abs(b.delta_s);
    }
    return a.stage < b.stage;  // deterministic tie-break
  });
  if (!stage_deltas.empty()) {
    std::printf("  per-stage per-request time (ms/req):\n");
    std::printf("    %-16s %10s %10s %10s %8s\n", "stage", "base", "cand", "delta", "share");
    for (const auto& d : stage_deltas) {
      const double share = total_shift > 0.0 ? 100.0 * std::abs(d.delta_s) / total_shift : 0.0;
      std::printf("    %-16s %10.3f %10.3f %+10.3f %7.1f%%\n", d.stage.c_str(), 1e3 * d.base_s,
                  1e3 * d.cand_s, 1e3 * d.delta_s, share);
      // Gate on growth relative to the baseline's total per-request budget.
      if (base_total_per_req > 0.0 && d.delta_s / base_total_per_req > tolerance) {
        regress("stage '%s' +%.3f ms/req", d.stage.c_str(), 1e3 * d.delta_s);
      }
    }
    // Attribution names the top *service* stage: queue growth is the symptom
    // of a bottleneck elsewhere, so it is reported but never blamed.
    const auto top = std::find_if(stage_deltas.begin(), stage_deltas.end(),
                                  [](const StageDelta& d) { return d.stage != "queue"; });
    if (top != stage_deltas.end() && std::abs(top->delta_s) > 0.0 && total_shift > 0.0) {
      std::printf(
          "  attribution: shift driven by stage '%s' (%+.3f ms/req, %.1f%% of stage shift)\n",
          top->stage.c_str(), 1e3 * top->delta_s, 100.0 * std::abs(top->delta_s) / total_shift);
      if (stage_deltas.front().stage == "queue" && stage_deltas.front().delta_s > 0.0) {
        std::printf("  (queueing grew %+.3f ms/req — the symptom of the bottleneck above)\n",
                    1e3 * stage_deltas.front().delta_s);
      }
    }
  }

  // Alert-count diffs (informational, never gated): name what fired.
  for (const auto& [alert, cand_n] : cand.alerts_fired) {
    const auto it = base.alerts_fired.find(alert);
    const double base_n = it != base.alerts_fired.end() ? it->second : 0.0;
    if (cand_n != base_n) {
      std::printf("  alerts: '%s' fired %.0f time(s) (base %.0f)\n", alert.c_str(), cand_n,
                  base_n);
    }
  }

  if (regressions.empty()) {
    std::printf("OK: candidate within %.1f%% of baseline\n", 100.0 * tolerance);
    return 0;
  }
  for (const auto& r : regressions) std::printf("REGRESSION: %s\n", r.c_str());
  return 1;
}

}  // namespace scope
