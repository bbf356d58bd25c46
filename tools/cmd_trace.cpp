// `servescope trace`: critical-path analysis of causal trace exports
// (Chrome trace-event JSON).
//
// Reads a trace written by the benchmark harness (--trace-out), rebuilds the
// causal span trees from the trace_id/span_id/parent_span_id args, extracts
// each trace's critical path, and reports:
//
//   1. a summary (events, traces, spans, orphans),
//   2. per-run critical-path stage shares (where does the end-to-end time go
//      when you only count the causally-binding chain),
//   3. the --top slowest traces with their blame chains, and
//   4. a cross-check of the sampled critical-path stage shares against the
//      RequestAuditor's full-population "audit.breakdown" record embedded in
//      the same trace — the sampled causal view and the exhaustive
//      accounting must agree within --tolerance.
//
// Exits 1 when a check fails: orphaned spans, missing causal data, or a
// share mismatch.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/breakdown.h"
#include "sim/time.h"
#include "trace/critical_path.h"

#include "reader.h"

namespace scope {
namespace {

using serve::sim::Time;
using serve::trace::CriticalPath;
using serve::trace::SpanRecord;

/// Exported timestamps are microseconds chosen to round-trip (to_chars), so
/// multiplying back recovers the exact integer nanosecond. Hostile values are
/// clamped to +-1e12 us (11.6 days) so span arithmetic cannot overflow.
Time to_ns(double us) {
  constexpr double kMaxUs = 1e12;
  return static_cast<Time>(std::llround(std::fmin(std::fmax(us, -kMaxUs), kMaxUs) * 1000.0));
}

bool parse_u64(const Value& obj, std::string_view key, std::uint64_t& out) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return false;
  char* end = nullptr;
  out = std::strtoull(v->str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !v->str.empty();
}

/// Full-population stage means published by RequestAuditor::finalize().
struct AuditBreakdown {
  std::uint64_t count = 0;
  std::map<std::string, double> stage_mean_s;  ///< stage name -> mean seconds
};

struct ParsedTrace {
  std::vector<SpanRecord> spans;
  std::map<std::uint64_t, std::string> trace_run;  ///< trace id -> run label
  std::map<std::string, AuditBreakdown> audits;  ///< run label -> breakdown
  std::size_t events = 0;
};

constexpr std::string_view kDefaultRun = "(default)";

ParsedTrace parse_trace(const Value& doc) {
  const Value* events = doc.find("traceEvents");
  // First pass: thread_name metadata gives tid -> track.
  std::map<double, std::string> tracks;
  for (const Value& e : events->array) {
    if (e.str_or("ph", "") == "M" && e.str_or("name", "") == "thread_name") {
      if (const Value* args = e.find("args")) {
        tracks[e.num_or("tid", 0)] = args->str_or("name", "");
      }
    }
  }

  ParsedTrace out;
  for (const Value& e : events->array) {
    if (!e.is_object()) continue;
    ++out.events;
    const std::string ph = e.str_or("ph", "");
    const Value* args = e.find("args");
    if (ph == "i" && e.str_or("name", "") == "audit.breakdown" && args != nullptr) {
      AuditBreakdown ab;
      ab.count = static_cast<std::uint64_t>(std::strtoull(
          args->str_or("count", "0").c_str(), nullptr, 10));
      for (const auto& [k, v] : args->object) {
        if (k.rfind("stage_", 0) == 0 && v.is_string()) {
          ab.stage_mean_s[k.substr(6)] = std::strtod(v.str.c_str(), nullptr);
        }
      }
      out.audits[args->str_or("run", std::string(kDefaultRun))] = std::move(ab);
      continue;
    }
    if (ph != "X" || args == nullptr) continue;
    SpanRecord s;
    if (!parse_u64(*args, "trace_id", s.trace_id) || !parse_u64(*args, "span_id", s.span_id)) {
      continue;  // an untraced span (device counters, fault windows, ...)
    }
    parse_u64(*args, "parent_span_id", s.parent_span_id);
    s.name = e.str_or("name", "");
    s.track = tracks[e.num_or("tid", 0)];
    s.blame = args->str_or("blame", "");
    s.begin = to_ns(e.num_or("ts", 0.0));
    s.end = s.begin + to_ns(e.num_or("dur", 0.0));
    if (s.parent_span_id == 0) {
      out.trace_run[s.trace_id] = args->str_or("run", std::string(kDefaultRun));
    }
    out.spans.push_back(std::move(s));
  }
  return out;
}

std::string format_ms(Time t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", serve::sim::to_seconds(t) * 1e3);
  return buf;
}

std::string format_pct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%5.1f%%", frac * 100.0);
  return buf;
}

/// Per-run aggregation of critical-path attributions.
struct RunShares {
  std::map<std::string, Time> by_name;
  Time total = 0;
  std::size_t traces = 0;
};

bool is_metrics_stage(const std::string& name) {
  for (std::size_t i = 0; i < serve::metrics::kStageCount; ++i) {
    if (name == serve::metrics::stage_name(static_cast<serve::metrics::Stage>(i))) return true;
  }
  return false;
}

}  // namespace

int run_trace(const Args& args) {
  const std::string& path = args.paths[0];
  const double tolerance = args.number("--tolerance", 0.01);  // max |share delta| vs the audit
  const double top = args.number("--top", 5);
  if (top < 0 || top != std::floor(top)) throw InputError("--top needs a whole number");
  const ParsedTrace parsed = parse_trace(load(path, Schema::kChromeTrace));

  const std::vector<CriticalPath> paths = serve::trace::extract_critical_paths(parsed.spans);

  std::size_t orphans = 0;
  std::size_t rootless = 0;
  for (const CriticalPath& p : paths) {
    orphans += p.orphan_count;
    if (p.root == nullptr) ++rootless;
  }

  std::cout << "trace: " << path << "\n"
            << "  events " << parsed.events << ", causal spans " << parsed.spans.size()
            << ", traces " << paths.size() << ", orphaned spans " << orphans
            << ", rootless traces " << rootless << "\n";

  bool ok = true;
  if (parsed.spans.empty()) {
    std::cout << "FAIL: no causal spans (was the run traced with a causal tracer?)\n";
    ok = false;
  }
  if (orphans > 0 || rootless > 0) {
    std::cout << "FAIL: " << orphans << " orphaned span(s) and " << rootless
              << " rootless trace(s) — parent links must resolve across every hop\n";
    ok = false;
  }

  // --- per-run critical-path stage shares -----------------------------------
  std::map<std::string, RunShares> runs;
  for (const CriticalPath& p : paths) {
    if (p.root == nullptr) continue;
    const auto runIt = parsed.trace_run.find(p.root->trace_id);
    const std::string run =
        runIt != parsed.trace_run.end() ? runIt->second : std::string(kDefaultRun);
    RunShares& rs = runs[run];
    ++rs.traces;
    rs.total += p.total;
    for (const auto& [name, t] : p.by_name) rs.by_name[name] += t;
  }
  for (const auto& [run, rs] : runs) {
    std::cout << "\ncritical path [" << run << "] — " << rs.traces << " trace(s), "
              << format_ms(rs.total) << " ms total\n";
    std::vector<std::pair<std::string, Time>> rows{rs.by_name.begin(), rs.by_name.end()};
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, t] : rows) {
      std::cout << "  " << format_pct(rs.total > 0 ? static_cast<double>(t) /
                                                         static_cast<double>(rs.total)
                                                   : 0.0)
                << "  " << format_ms(t) << " ms  " << name << "\n";
    }
  }

  // --- top-k slowest traces with blame chains -------------------------------
  std::vector<const CriticalPath*> slowest;
  for (const CriticalPath& p : paths) {
    if (p.root != nullptr) slowest.push_back(&p);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const CriticalPath* a, const CriticalPath* b) { return a->total > b->total; });
  if (static_cast<double>(slowest.size()) > top) slowest.resize(static_cast<std::size_t>(top));
  if (!slowest.empty()) std::cout << "\nslowest traces:\n";
  for (const CriticalPath* p : slowest) {
    const auto runIt = parsed.trace_run.find(p->root->trace_id);
    std::cout << "  trace " << p->root->trace_id << " [" << p->root->name;
    if (runIt != parsed.trace_run.end() && runIt->second != kDefaultRun) {
      std::cout << ", " << runIt->second;
    }
    std::cout << "] " << format_ms(p->total) << " ms\n";
    for (const serve::trace::PathStep& step : p->steps) {
      if (step.attributed <= 0) continue;
      std::cout << "    " << format_ms(step.attributed) << " ms  " << step.span->name;
      if (!step.span->blame.empty()) std::cout << "  <- " << step.span->blame;
      std::cout << "\n";
    }
  }

  // --- cross-check vs the auditor's full-population breakdown ---------------
  // Both sides are normalized over the metrics stage names they actually
  // observed, so the comparison is share-vs-share: the sampled critical
  // paths must allocate stage time in the same proportions the exhaustive
  // per-request accounting did.
  for (const auto& [run, audit] : parsed.audits) {
    const auto runIt = runs.find(run);
    if (runIt == runs.end()) {
      std::cout << "\nFAIL [" << run << "]: auditor breakdown present but no sampled traces\n";
      ok = false;
      continue;
    }
    double audit_sum = 0.0;
    for (const auto& [name, mean_s] : audit.stage_mean_s) audit_sum += mean_s;
    double cp_sum = 0.0;
    for (const auto& [name, t] : runIt->second.by_name) {
      if (is_metrics_stage(name)) cp_sum += serve::sim::to_seconds(t);
    }
    std::cout << "\ncross-check [" << run << "] vs audit.breakdown (" << audit.count
              << " requests, tolerance " << tolerance << "):\n";
    if (audit_sum <= 0.0 || cp_sum <= 0.0) {
      std::cout << "  FAIL: empty stage accounting on one side\n";
      ok = false;
      continue;
    }
    for (const auto& [name, mean_s] : audit.stage_mean_s) {
      const double audit_share = mean_s / audit_sum;
      const auto cpIt = runIt->second.by_name.find(name);
      const double cp_share =
          cpIt != runIt->second.by_name.end()
              ? serve::sim::to_seconds(cpIt->second) / cp_sum
              : 0.0;
      const double delta = cp_share - audit_share;
      const bool pass = std::abs(delta) <= tolerance;
      std::cout << "  " << (pass ? "ok  " : "FAIL") << "  " << name << ": critical-path "
                << format_pct(cp_share) << " vs audit " << format_pct(audit_share)
                << " (delta " << format_pct(delta) << ")\n";
      if (!pass) ok = false;
    }
  }

  std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace scope
