// ServeScope repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <expected_digests.txt> [--spans-out <file>]
//
// Runs one workload for about --seconds, checks its outputs, and prints as
// the last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics with the benchmark's
// spans off; --trace 1 is a separate run that records the spans and reports
// the per-layer metrics. Earlier stdout lines carry the host fingerprint,
// the virtual-time digests and sample counts. perfbench/run.py builds this
// binary and calls it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <queue>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "codec/cpu_features.h"
#include "perfbench.h"

namespace perfbench {

double wall_now() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_seconds(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_now() noexcept { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace

double cpu_now() noexcept { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 24;  // 64 MiB
constexpr int kSpeedOps = 100'000;    // one thread, around sim calls and set-ups
constexpr int kPoolSpeedOps = 20'000;  // every pool thread, every 0.1 s of codec batches
bool g_table_ready = false;

std::vector<std::uint32_t>& speed_table() {
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kTableWords);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    g_table_ready = true;
    return t;
  }();
  return table;
}

/// Fixed simulator-shaped work: pop the earliest of 4096 pending events,
/// read and update random entries of `table` (a power-of-two slice), push
/// the event back later.
std::uint64_t speed_kernel(std::span<std::uint32_t> table, std::uint64_t seed, int ops) {
  const std::size_t mask = table.size() - 1;
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) events.push({next() % 100'000, i});
  std::uint64_t sink = 0;
  for (int i = 0; i < ops; ++i) {
    const auto [t, id] = events.top();
    events.pop();
    const std::uint32_t v = table[(next() ^ id) & mask];
    sink += v;
    table[v & mask] += id;
    events.push({t + 1 + next() % 100'000, id});
  }
  return sink;
}

}  // namespace

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double table_mb = g_table_ready ? kTableWords * sizeof(std::uint32_t) / 1048576.0 : 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - table_mb;  // ru_maxrss is in KiB
}

HostSpeed host_speed(int threads) {
  auto& table = speed_table();
  std::atomic<std::uint64_t> sink{0};
  if (threads <= 1) {
    const double c0 = cpu_now();
    const double t0 = wall_now();
    sink += speed_kernel(table, 1, kSpeedOps);
    return {kSpeedOps / (cpu_now() - c0), kSpeedOps / (wall_now() - t0)};
  }
  // Each thread updates its own power-of-two slice of the table.
  std::size_t slice = table.size();
  while (slice * static_cast<std::size_t>(threads) > table.size()) slice /= 2;
  std::vector<double> cpu_s(static_cast<std::size_t>(threads));
  const double t0 = wall_now();
  {
    std::vector<std::jthread> workers;  // joined when the block ends
    for (int k = 0; k < threads; ++k) {
      const std::span<std::uint32_t> part(table.data() + static_cast<std::size_t>(k) * slice,
                                          slice);
      workers.emplace_back([part, &sink, &cpu_s, k] {
        const double c0 = thread_cpu_now();
        sink += speed_kernel(part, static_cast<std::uint64_t>(k) + 1, kPoolSpeedOps);
        cpu_s[static_cast<std::size_t>(k)] = thread_cpu_now() - c0;
      });
    }
  }
  const double wall = wall_now() - t0;
  double cpu = 0.0;
  for (const double c : cpu_s) cpu += c / threads;
  return {kPoolSpeedOps / cpu, kPoolSpeedOps / wall};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string digest_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void check_recorded_digest(const Options& opt, const std::string& digest, Result& out) {
  const std::string got = digest_hash(digest);
  std::string want;
  std::ifstream in(opt.expected_path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, hash;
    if (line.rfind('#', 0) != 0 && fields >> name >> hash && name == opt.workload) want = hash;
  }
  out.notes.push_back("default-seed digest " + got + " (recorded " +
                      (want.empty() ? std::string("none") : want) + "): " + digest);
  out.check(!want.empty(), "no recorded default-seed digest for " + opt.workload + " in " +
                               opt.expected_path);
  out.check(want.empty() || want == got,
            "default-seed digest " + got + " differs from the recorded " + want);
}

int SpanLog::add(std::string name, double begin_s, double end_s, int parent, int tid) {
  spans_.push_back({std::move(name), begin_s, end_s, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().begin_s;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                 i == 0 ? "" : ",", s.tid, s.name.c_str(), (s.begin_s - t0) * 1e6,
                 (s.end_s - s.begin_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void write_spans(const Options& opt, const SpanLog& spans, Result& out) {
  if (!opt.spans_out.empty()) {
    out.check(spans.write(opt.spans_out), "cannot write " + opt.spans_out);
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_host_fingerprint() {
  std::printf("host {\"cpu\": \"%s\", \"nproc\": %u, \"simd_tier\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
              std::string(serve::codec::cpu::tier_name(serve::codec::cpu::active_tier())).c_str(),
              json_escape(
#if defined(__clang__)
                  "clang " __clang_version__
#elif defined(__GNUC__)
                  "gcc " __VERSION__
#else
                  "unknown"
#endif
                  )
                  .c_str(),
              PERFBENCH_BUILD_TYPE);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <vit-closed-observed|tinyvit-fleet-open|"
               "face-kafka-fanout|codec-medium-pool> --seed <n> --seconds <s> --trace <0|1> "
               "--expected <file> [--spans-out <file>]\n",
               why);
  return 2;
}

template <class T>
bool parse_number(std::string_view s, T& out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "error: perfbench refuses to measure a build without NDEBUG "
                       "(build type " PERFBENCH_BUILD_TYPE ")\n");
  return 2;
#endif
  Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("every flag takes a value");
    const std::string_view val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      if (!parse_number(val, opt.seed)) return usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      if (!parse_number(val, opt.seconds) || !(opt.seconds > 0.0) || opt.seconds > 120.0)
        return usage("--seconds needs a number in (0, 120]");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      trace = val == "1" ? 1 : 0;
    } else if (arg == "--expected") {
      opt.expected_path = val;
    } else if (arg == "--spans-out") {
      opt.spans_out = val;
    } else {
      return usage(("unknown flag " + std::string(arg)).c_str());
    }
  }
  if (trace < 0) return usage("--trace is required");
  if (opt.expected_path.empty()) return usage("--expected is required");
  opt.trace = trace == 1;

  static const std::map<std::string, Result (*)(const Options&), std::less<>> kWorkloads = {
      {"vit-closed-observed", run_vit_closed_observed},
      {"tinyvit-fleet-open", run_tinyvit_fleet_open},
      {"face-kafka-fanout", run_face_kafka_fanout},
      {"codec-medium-pool", run_codec_medium_pool},
  };
  const auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end()) return usage(("unknown workload '" + opt.workload + "'").c_str());

  Result r;
  try {
    r = it->second(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const Metric& m : r.metrics) r.check(std::isfinite(m.value), m.name + " is not finite");
  if (!r.correct()) r.failed = r.attempted;

  print_host_fingerprint();
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const auto& p : r.problems) {
    std::printf("# CHECK FAILED: %s\n", p.c_str());
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", opt.workload.c_str(), p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // JSON has no NaN; a non-finite value has already failed the run.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
