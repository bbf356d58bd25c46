// `servescope check`: compares two google-benchmark JSON outputs (or the
// "benchmarks" rows of two telemetry exports) and fails on large
// regressions.
//
// A benchmark regresses when its current real_time exceeds the baseline by
// more than --tolerance (fractional; default 30%). The tolerance is
// deliberately generous: CI machines are noisy and shared, so the gate is
// meant to catch order-of-magnitude mistakes (an accidentally disabled fast
// path), not a few percent of jitter. Benchmarks present on only one side
// are warned about but never fail the check. Numbers recorded from a
// non-Release build fail it unless --allow-debug is given.
#include <cstdio>
#include <map>
#include <string>

#include "reader.h"

namespace scope {
namespace {

struct Bench {
  double real_time = 0.0;
  std::string time_unit = "ns";
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

struct LoadedFile {
  std::map<std::string, Bench> benchmarks;
  std::string build_type;  ///< "release"/"debug" from the context; "" if absent
};

/// The benchmark rows of a google-benchmark JSON file or a telemetry export,
/// skipping rows without a real_time and repetition aggregates.
LoadedFile load_benchmarks(const std::string& path) {
  const Value doc = load(path, Schema::kBenchmark);
  LoadedFile f;
  for (const Value& b : doc.find("benchmarks")->array) {
    const std::string name = b.str_or("name", "");
    const Value* real_time = b.find("real_time");
    if (name.empty() || real_time == nullptr || !real_time->is_number()) continue;
    if (name.find("_mean") != std::string::npos || name.find("_median") != std::string::npos ||
        name.find("_stddev") != std::string::npos || name.find("_cv") != std::string::npos) {
      continue;
    }
    f.benchmarks[name] = {real_time->number, b.str_or("time_unit", "ns")};
  }
  if (f.benchmarks.empty()) throw InputError("no benchmarks in " + path);
  // "build_type" is the app-level marker (Reporter exports set it; our
  // google-benchmark mains inject it via AddCustomContext) and wins over
  // google-benchmark's "library_build_type", which reflects how the *system
  // benchmark library* was compiled, not the code under test.
  if (const Value* ctx = doc.find("context")) {
    f.build_type = ctx->str_or("build_type", ctx->str_or("library_build_type", ""));
  }
  return f;
}

/// Debug-build numbers in either file make the comparison meaningless (a
/// debug baseline hides every regression; a debug candidate fails falsely).
/// Returns false when `role` should fail the check.
bool check_build_type(const char* role, const char* path, const std::string& bt,
                      bool allow_debug) {
  if (bt.empty()) {
    std::fprintf(stderr,
                 "servescope check: WARN: %s %s has no build-type context; re-record it "
                 "with a current Release build\n",
                 role, path);
    return true;
  }
  if (bt != "release" && !allow_debug) {
    std::fprintf(stderr,
                 "servescope check: %s %s was recorded from a '%s' build; benchmark "
                 "gating requires Release numbers (pass --allow-debug to override)\n",
                 role, path, bt.c_str());
    return false;
  }
  if (bt != "release") {
    std::fprintf(stderr, "servescope check: WARN: %s %s is a '%s' build (allowed by flag)\n",
                 role, path, bt.c_str());
  }
  return true;
}

}  // namespace

int run_check(const Args& args) {
  const double tolerance = args.number("--tolerance", 0.30);
  const char* base_path = args.paths[0].c_str();
  const char* cur_path = args.paths[1].c_str();
  const LoadedFile loaded_base = load_benchmarks(base_path);
  const LoadedFile loaded_cur = load_benchmarks(cur_path);
  const auto& baseline = loaded_base.benchmarks;
  const auto& current = loaded_cur.benchmarks;

  const bool allow_debug = args.has("--allow-debug");
  bool builds_ok = true;
  builds_ok &= check_build_type("baseline", base_path, loaded_base.build_type, allow_debug);
  builds_ok &= check_build_type("candidate", cur_path, loaded_cur.build_type, allow_debug);
  if (!builds_ok) return 1;

  int regressions = 0;
  std::printf("%-44s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta");
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("%-44s %12s %12s %8s  WARN: missing from current run\n",
                  name.c_str(), "-", "-", "-");
      continue;
    }
    const double base_ns = base.real_time * unit_to_ns(base.time_unit);
    const double cur_ns = it->second.real_time * unit_to_ns(it->second.time_unit);
    if (base_ns <= 0.0) continue;
    const double delta = cur_ns / base_ns - 1.0;
    const bool bad = delta > tolerance;
    std::printf("%-44s %10.0fns %10.0fns %+7.1f%%%s\n", name.c_str(), base_ns, cur_ns,
                delta * 100.0, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  for (const auto& [name, _] : current) {
    if (!baseline.contains(name)) {
      std::printf("%-44s %12s %12s %8s  WARN: new benchmark (no baseline)\n",
                  name.c_str(), "-", "-", "-");
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr, "servescope check: %d benchmark(s) regressed by more than %.0f%%\n",
                 regressions, tolerance * 100.0);
    return 1;
  }
  std::printf("check: OK (tolerance %.0f%%)\n", tolerance * 100.0);
  return 0;
}

}  // namespace scope
