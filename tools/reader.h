// Shared reader behind every `servescope` subcommand.
//
// One place owns what each analysis tool used to re-implement: reading and
// parsing a file, the schema check, numeric option parsing, the
// downsampling sparkline, cumulative-bucket histogram quantiles, and the
// capacity section with its per-resource stats. Every input problem throws
// InputError, which the CLI turns into exit 2; nothing here exits or prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json_mini.h"

namespace scope {

using jsonmini::Value;

/// Unreadable, malformed or wrong-schema input, or a bad option value.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// A command line that does not fit the subcommand (the CLI adds its usage).
struct UsageError : InputError {
  using InputError::InputError;
};

enum class Schema {
  kTelemetry,    ///< servescope-telemetry-v1 export
  kChromeTrace,  ///< chrome://tracing JSON with a traceEvents array
  kBenchmark,    ///< google-benchmark JSON (or a telemetry export) with a benchmarks array
};

/// Parses `text` and checks that it is a document of `schema`.
inline Value parse_document(const std::string& text, Schema schema) {
  jsonmini::Parser parser{text};
  std::optional<Value> doc = parser.parse();
  if (!doc) throw InputError("malformed JSON: " + parser.error());
  const Value* events = doc->find("traceEvents");
  const Value* benches = doc->find("benchmarks");
  if (schema == Schema::kTelemetry && doc->str_or("schema", "") != "servescope-telemetry-v1") {
    throw InputError("not a servescope-telemetry-v1 file");
  }
  if (schema == Schema::kChromeTrace && (events == nullptr || !events->is_array())) {
    throw InputError("not a Chrome trace (no traceEvents array)");
  }
  if (schema == Schema::kBenchmark && (benches == nullptr || !benches->is_array())) {
    throw InputError("no benchmarks array");
  }
  return std::move(*doc);
}

inline Value load(const std::string& path, Schema schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputError("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parse_document(ss.str(), schema);
  } catch (const InputError& e) {
    throw InputError(path + ": " + e.what());
  }
}

/// Parses a whole argument as a finite number: "0.25ms", "abc", " 1", "nan"
/// and "" are all rejected.
inline double parse_number(std::string_view flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || !std::isfinite(v)) {
    throw InputError(std::string(flag) + " needs a finite number, got '" + text + "'");
  }
  return v;
}

/// One subcommand's command line: input paths, `--flag <number>` options and
/// bare switches, each checked against what the subcommand declares.
struct Args {
  std::vector<std::string> paths;
  std::map<std::string, double, std::less<>> numbers;
  std::set<std::string, std::less<>> switches;

  [[nodiscard]] double number(std::string_view flag, double dflt) const {
    const auto it = numbers.find(flag);
    return it != numbers.end() ? it->second : dflt;
  }
  [[nodiscard]] bool has(std::string_view flag) const { return switches.contains(flag); }
};

/// Parses a subcommand's arguments: exactly `paths` input files, each
/// `numeric` flag followed by its value, and bare `switches`.
inline Args parse_args(const std::vector<std::string>& argv, std::size_t paths,
                       const std::vector<std::string_view>& numeric,
                       const std::vector<std::string_view>& switches) {
  Args out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (std::find(numeric.begin(), numeric.end(), arg) != numeric.end()) {
      if (i + 1 == argv.size()) throw UsageError(arg + " needs a value");
      out.numbers[arg] = parse_number(arg, argv[++i]);
    } else if (std::find(switches.begin(), switches.end(), arg) != switches.end()) {
      out.switches.insert(arg);
    } else if (!arg.empty() && arg[0] != '-' && out.paths.size() < paths) {
      out.paths.push_back(arg);
    } else {
      throw UsageError("unexpected argument '" + arg + "'");
    }
  }
  if (out.paths.size() != paths) throw UsageError("missing input file");
  return out;
}

/// The elements of array member `key` as numbers (non-numbers read as 0).
inline std::vector<double> numbers_of(const Value& obj, std::string_view key) {
  std::vector<double> out;
  if (const Value* a = obj.find(key); a != nullptr && a->is_array()) {
    for (const Value& x : a->array) out.push_back(x.number);
  }
  return out;
}

inline double mean_over(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// 8-level unicode sparkline, downsampled by column means to at most `width`
/// columns. The scale spans the finite samples' min..max, or with
/// `unit_scale` a fixed 0..1: busy fractions are already normalized, and a
/// shared scale keeps two resources' lines comparable. Non-finite samples
/// (hostile or hand-edited input) render as '?' and stay out of the scale,
/// so one NaN cannot blank the whole line.
inline std::string sparkline(const std::vector<double>& v, std::size_t width,
                             bool unit_scale = false) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (v.empty()) return "(no samples)";
  std::vector<double> cols = v;
  if (v.size() > width) {
    cols.resize(width);
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t lo = c * v.size() / width;
      cols[c] = mean_over(v, lo, std::max(lo + 1, (c + 1) * v.size() / width));
    }
  }
  double mn = 0.0, mx = 1.0;
  if (!unit_scale) {
    bool have_finite = false;
    for (const double x : cols) {
      if (!std::isfinite(x)) continue;
      mn = have_finite ? std::min(mn, x) : x;
      mx = have_finite ? std::max(mx, x) : x;
      have_finite = true;
    }
    if (!have_finite) return "(no finite samples)";
  }
  std::string out;
  for (const double x : cols) {
    if (!std::isfinite(x)) {
      out += '?';
      continue;
    }
    // fmax/fmin also map a NaN from an overflowing range to the bottom level.
    const double t = mx > mn ? (x - mn) / (mx - mn) : 0.5;
    out += kLevels[static_cast<int>(std::fmin(std::fmax(t, 0.0), 1.0) * 7.0 + 0.5)];
  }
  return out;
}

/// A cumulative-bucket histogram instrument as metrics::Histogram exports it.
struct Histogram {
  double count = 0.0, sum = 0.0, min = 0.0, max = 0.0;
  std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative count)
};

inline Histogram histogram_of(const Value& ins) {
  Histogram h{ins.num_or("count", 0.0), ins.num_or("sum", 0.0), ins.num_or("min", 0.0),
              ins.num_or("max", 0.0), {}};
  if (const Value* b = ins.find("buckets"); b != nullptr && b->is_array()) {
    for (const Value& x : b->array) {
      h.buckets.emplace_back(x.num_or("le", 0.0), x.num_or("count", 0.0));
    }
  }
  return h;
}

/// Quantile with linear interpolation inside the containing bucket, the
/// first bucket starting at the observed min, clamped to [min, max] like
/// metrics::Histogram::quantile. An empty histogram's quantiles are 0.
inline double quantile(const Histogram& h, double q) {
  if (h.count <= 0.0) return 0.0;
  const double rank = q * h.count;
  double lower = h.min, prev_cum = 0.0;
  for (const auto& [le, cum] : h.buckets) {
    if (cum >= rank) {
      const double in_bucket = cum - prev_cum;
      const double frac = in_bucket > 0 ? (rank - prev_cum) / in_bucket : 1.0;
      return std::clamp(lower + frac * (le - lower), h.min, h.max);
    }
    prev_cum = cum;
    lower = le;
  }
  return h.max;
}

/// Fraction of observations at or under `slo`, interpolated the same way.
inline double attainment(const Histogram& h, double slo) {
  if (h.count <= 0.0) return 1.0;
  double lower = h.min, prev_cum = 0.0;
  for (const auto& [le, cum] : h.buckets) {
    if (le >= slo) {
      const double width = le - lower;
      const double frac = width > 0 ? std::clamp((slo - lower) / width, 0.0, 1.0) : 1.0;
      return (prev_cum + frac * (cum - prev_cum)) / h.count;
    }
    prev_cum = cum;
    lower = le;
  }
  return 1.0;
}

/// Utilization at or above this busy fraction is flagged as saturated.
inline constexpr double kSaturated = 0.9;

/// One modeled resource of the capacity section, with its interval stats.
struct CapResource {
  std::string label;  ///< device.engine
  double capacity = 1.0;
  std::vector<double> busy, queue;  ///< per interval: busy fraction, mean queue depth
  std::size_t finite = 0;           ///< finite busy samples
  double mean = 0.0, peak = 0.0;    ///< over the finite busy samples
  double queue_mean = 0.0;          ///< finite queue samples over all samples
};

/// The "capacity" section an obs::CapacityPlane adds to an export.
struct Capacity {
  const Value* json = nullptr;  ///< the section, inside the document passed to capacity_of
  double period_s = 0.0;
  std::vector<CapResource> resources;
  std::size_t intervals = 0;  ///< longest busy timeline
  std::size_t audited = 0;    ///< Little's-law audited intervals
  std::vector<double> violations;  ///< deviating interval indices
  double sustainable_rps = 0.0;
  std::string binding, binding_stage;

  /// A run that never completed a recorder interval has the section but no data.
  [[nodiscard]] bool empty() const { return intervals == 0 || period_s <= 0.0; }
  [[nodiscard]] bool has_headroom() const {
    return sustainable_rps > 0.0 && std::isfinite(sustainable_rps);
  }
};

/// The export's capacity section; std::nullopt when the run attached no plane.
inline std::optional<Capacity> capacity_of(const Value& doc) {
  const Value* cap = doc.find("capacity");
  if (cap == nullptr || !cap->is_object()) return std::nullopt;
  Capacity out;
  out.json = cap;
  out.period_s = cap->num_or("period_s", 0.0);
  if (const Value* rs = cap->find("resources"); rs != nullptr && rs->is_array()) {
    for (const Value& r : rs->array) {
      CapResource cr;
      cr.label = r.str_or("device", "?") + "." + r.str_or("engine", "?");
      cr.capacity = r.num_or("capacity", 1.0);
      cr.busy = numbers_of(r, "busy_frac");
      cr.queue = numbers_of(r, "queue_mean");
      double sum = 0.0, qsum = 0.0;
      for (const double x : cr.busy) {
        if (!std::isfinite(x)) continue;
        sum += x;
        cr.peak = std::max(cr.peak, x);
        ++cr.finite;
      }
      for (const double x : cr.queue) {
        if (std::isfinite(x)) qsum += x;
      }
      if (cr.finite > 0) cr.mean = sum / static_cast<double>(cr.finite);
      if (!cr.queue.empty()) cr.queue_mean = qsum / static_cast<double>(cr.queue.size());
      out.intervals = std::max(out.intervals, cr.busy.size());
      out.resources.push_back(std::move(cr));
    }
  }
  out.audited = numbers_of(*cap, "little_l").size();
  out.violations = numbers_of(*cap, "violation_intervals");
  out.sustainable_rps = cap->num_or("sustainable_rps", 0.0);
  out.binding = cap->str_or("binding", "?");
  out.binding_stage = cap->str_or("binding_stage", "?");
  return out;
}

// Subcommands; each returns its exit code and throws InputError for exit 2.
int run_report(const Args& args);
int run_capacity(const Args& args);
int run_diff(const Args& args);
int run_trace(const Args& args);
int run_check(const Args& args);

}  // namespace scope
