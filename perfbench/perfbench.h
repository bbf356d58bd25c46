// Shared pieces of the repository benchmark: the options and result record
// every workload uses, host clocks, the process-wide heap-allocation count,
// and the benchmark's own span log (spans around calls into each layer).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seed whose virtual-time digests are recorded in expected_digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;       ///< measured time of the run
  bool trace = false;          ///< traced run: per-layer metrics instead of end-to-end
  std::string expected_path;   ///< recorded default-seed digests
  std::string spans_out;       ///< traced run: Chrome trace-event JSON of the spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints. A failed correctness check makes every operation of
/// the run count as failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< correctness failures, one line each
  std::vector<std::string> notes;     ///< digests and sample counts, printed before the result

  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Every `operator new` call in the process so far (all threads).
[[nodiscard]] std::uint64_t heap_allocs() noexcept;

[[nodiscard]] double wall_now() noexcept;  ///< steady clock, seconds
[[nodiscard]] double cpu_now() noexcept;   ///< process CPU time (all threads), seconds
/// ru_maxrss of this process, less the host-speed table (resident from the
/// first host_speed() call on).
[[nodiscard]] double peak_rss_mb() noexcept;

/// Host speed: kernel operations per CPU second and per wall second on each
/// of `threads` threads running it at once. The benchmark reports host-time
/// end-to-end metrics at a reference speed: on a shared virtual machine the
/// speed drifts by tens of percent within minutes as neighbours come and go
/// (up to 40% on a 4-vCPU Xeon VM), and a fixed simulator-shaped kernel (an
/// event heap plus random reads and updates of a 64 MiB table) timed next to
/// each measured interval drifts with it.
struct HostSpeed {
  double cpu = 0.0;
  double wall = 0.0;
};
[[nodiscard]] HostSpeed host_speed(int threads = 1);
inline constexpr double kReferenceSpeed = 2.5e6;          ///< one thread, per CPU second
inline constexpr HostSpeed kReferencePoolSpeed{2.5e6, 1.5e6};  ///< per pool thread
/// `rate` (per CPU second, measured at `speed`) at the reference speed.
[[nodiscard]] inline double rate_at_reference(double rate, double speed) {
  return rate * kReferenceSpeed / speed;
}
/// Harmonic mean of the speeds measured before and after an interval.
[[nodiscard]] inline double interval_speed(double before, double after) {
  return 2.0 / (1.0 / before + 1.0 / after);
}

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile of `v` (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Recorded form of a digest: FNV-1a 64 of the text, 16 hex digits.
[[nodiscard]] std::string digest_hash(const std::string& text);

/// Checks `digest` (taken with kDefaultSeed) against the recorded one for
/// `workload`; records a note, and a problem on mismatch or a missing entry.
void check_recorded_digest(const Options& opt, const std::string& digest, Result& out);

/// The benchmark's own spans, kept in memory and written as Chrome
/// trace-event JSON when the run ends. Single-threaded: worker-thread
/// timings are collected by the caller and added afterwards.
class SpanLog {
 public:
  /// Returns the new span's id (parent -1 = root).
  int add(std::string name, double begin_s, double end_s, int parent = -1, int tid = 0);
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double begin_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int tid = 0;
  };
  std::vector<Span> spans_;
};

/// Writes `spans` to opt.spans_out when set; a failed write is a problem.
void write_spans(const Options& opt, const SpanLog& spans, Result& out);

// Workload entry points (each fills the whole Result for its options).
Result run_vit_closed_observed(const Options& opt);
Result run_tinyvit_fleet_open(const Options& opt);
Result run_face_kafka_fanout(const Options& opt);
Result run_codec_medium_pool(const Options& opt);

}  // namespace perfbench
