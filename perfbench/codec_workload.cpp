// codec-medium-pool: the real codec on real cores. A caller keeps one batch
// in flight on codec::BatchPreprocessor (nproc threads) over a seeded corpus
// of distinct medium JPEGs, and every output tensor is checked bit for bit
// against a single-thread reference computed during set-up.
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "codec/batch_preprocess.h"
#include "codec/jpeg.h"
#include "codec/transform.h"
#include "perfbench.h"
#include "workload/corpus.h"

namespace perfbench {
namespace {

namespace codec = serve::codec;

// 128 distinct 500x375 JPEGs (~22 KiB each, 2.8 MiB in total) exceed a
// 2 MiB L2, so the loop streams through memory instead of replaying one
// cached image.
constexpr int kCorpusImages = 128;
constexpr std::size_t kBatch = 32;
constexpr int kSide = 224;
// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinBatches = 100;

int pool_threads() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

/// Corpus image seeds are spread so that two benchmark seeds share no image.
std::uint64_t corpus_seed(std::uint64_t seed) { return seed * 1'000'003ULL; }

std::vector<float> preprocess_one(std::span<const std::uint8_t> jpeg) {
  return codec::normalize_chw(codec::resize(codec::decode_jpeg(jpeg), kSide, kSide));
}

struct CodecInputs {
  std::vector<serve::workload::CorpusEntry> corpus;
  std::vector<std::vector<float>> reference;  ///< single-thread output per image
};

/// `threads` encode the corpus; the reference is computed on the calling
/// thread.
CodecInputs make_inputs(std::uint64_t seed, int threads) {
  CodecInputs in;
  in.corpus = serve::workload::make_corpus(serve::hw::kMediumImage, kCorpusImages,
                                           corpus_seed(seed), threads);
  in.reference.reserve(in.corpus.size());
  for (const auto& e : in.corpus) in.reference.push_back(preprocess_one(e.jpeg));
  return in;
}

/// Images of batch `b` in the closed loop: kBatch consecutive corpus
/// entries, wrapping around.
void fill_batch(const CodecInputs& in, std::size_t b, std::vector<std::size_t>& idx,
                std::vector<std::span<const std::uint8_t>>& views) {
  idx.clear();
  views.clear();
  for (std::size_t k = 0; k < kBatch; ++k) {
    const std::size_t i = (b * kBatch + k) % in.corpus.size();
    idx.push_back(i);
    views.emplace_back(in.corpus[i].jpeg.data(), in.corpus[i].jpeg.size());
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct CodecLegStats {
  double img_per_s = 0.0;      ///< images per wall second inside run()
  double img_per_cpu_s = 0.0;  ///< images per process CPU second inside run()
  double batch_p50_ms = 0.0;
  double batch_p90_ms = 0.0;
  double allocs_per_img = 0.0;
  std::size_t batches = 0;
  std::uint64_t images = 0;
};

/// The closed loop through BatchPreprocessor::run, one batch at a time.
/// Throughput and CPU cost count only the time inside run(); the output
/// check runs between batches. Batch times are kept as measured until
/// scale() rescales the batches since its last call to a reference speed.
class PoolLoop {
 public:
  void batch(codec::BatchPreprocessor& pool, const CodecInputs& in, std::size_t b) {
    fill_batch(in, b, idx_, views_);
    const std::uint64_t a0 = heap_allocs();
    const double c0 = cpu_now();
    const double t0 = wall_now();
    const auto tensors = pool.run(views_);
    const double t1 = wall_now();
    const double c1 = cpu_now();
    allocs_ += heap_allocs() - a0;
    cpu_s_.push_back(c1 - c0);
    wall_s_.push_back(t1 - t0);
    images_ += views_.size();
    for (std::size_t k = 0; k < idx_.size(); ++k) {
      match_ = match_ && same_bits(tensors[k], in.reference[idx_[k]]);
    }
  }

  /// Rescales the wall and CPU times of the batches run since the last call.
  void scale(double wall_factor, double cpu_factor) {
    for (; scaled_ < wall_s_.size(); ++scaled_) {
      wall_s_[scaled_] *= wall_factor;
      cpu_s_[scaled_] *= cpu_factor;
    }
  }

  [[nodiscard]] std::size_t batches() const noexcept { return wall_s_.size(); }

  CodecLegStats stats(int threads, Result& out) const {
    CodecLegStats s;
    s.batches = wall_s_.size();
    s.images = images_;
    double wall = 0.0, cpu = 0.0;
    std::vector<double> lat_ms;
    for (std::size_t i = 0; i < wall_s_.size(); ++i) {
      wall += wall_s_[i];
      cpu += cpu_s_[i];
      lat_ms.push_back(wall_s_[i] * 1e3);
    }
    s.img_per_s = static_cast<double>(images_) / wall;
    s.img_per_cpu_s = static_cast<double>(images_) / cpu;
    s.batch_p50_ms = quantile(lat_ms, 0.50);
    s.batch_p90_ms = quantile(lat_ms, 0.90);
    s.allocs_per_img = static_cast<double>(allocs_) / static_cast<double>(images_);
    out.check(match_, std::to_string(threads) +
                          "-thread pool output differs from the single-thread reference");
    out.notes.push_back("codec run(): " + std::to_string(threads) + " threads, " +
                        std::to_string(s.batches) + " batches of " + std::to_string(kBatch) +
                        " (batch latency p50/p90 over " + std::to_string(s.batches) +
                        " samples)");
    return s;
  }

 private:
  std::vector<std::size_t> idx_;
  std::vector<std::span<const std::uint8_t>> views_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
  std::size_t scaled_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t images_ = 0;
  bool match_ = true;
};

/// run() for `seconds`, and at least kMinBatches batches, with batch times
/// at the reference pool speed: host_speed() on every pool thread is
/// measured between 0.1 s segments, short enough to follow the bursts that
/// set a batch's tail latency.
CodecLegStats run_reference_leg(codec::BatchPreprocessor& pool, const CodecInputs& in,
                                double seconds, Result& out) {
  PoolLoop loop;
  HostSpeed speed = host_speed(pool.threads());
  std::vector<double> wall_speeds, cpu_speeds;
  const double end = wall_now() + seconds;
  for (std::size_t b = 0; wall_now() < end || loop.batches() < kMinBatches;) {
    const double segment_end = wall_now() + 0.1;
    while (wall_now() < segment_end) loop.batch(pool, in, b++);
    const HostSpeed after = host_speed(pool.threads());
    wall_speeds.push_back(interval_speed(speed.wall, after.wall));
    cpu_speeds.push_back(interval_speed(speed.cpu, after.cpu));
    loop.scale(wall_speeds.back() / kReferencePoolSpeed.wall,
               cpu_speeds.back() / kReferencePoolSpeed.cpu);
    speed = after;
  }
  out.notes.push_back("pool host speed per thread " + std::to_string(median(wall_speeds)) +
                      " ops per wall s, " + std::to_string(median(cpu_speeds)) +
                      " ops per CPU s (reference " + std::to_string(kReferencePoolSpeed.wall) +
                      ", " + std::to_string(kReferencePoolSpeed.cpu) + ")");
  return loop.stats(pool.threads(), out);
}

/// run() for `seconds`, and at least kMinBatches batches, times as measured.
CodecLegStats run_pool_leg(codec::BatchPreprocessor& pool, const CodecInputs& in,
                           double seconds, Result& out) {
  PoolLoop loop;
  const double end = wall_now() + seconds;
  for (std::size_t b = 0; wall_now() < end || loop.batches() < kMinBatches; ++b) {
    loop.batch(pool, in, b);
  }
  return loop.stats(pool.threads(), out);
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// The same batches with decode, resize and normalize driven through
/// parallel_for and a span around each call.
class TracedLoop {
 public:
  void batch(codec::BatchPreprocessor& pool, const CodecInputs& in, std::size_t b,
             SpanLog& spans) {
    fill_batch(in, b, idx_, views_);
    const double t0 = wall_now();
    std::vector<std::vector<float>> tensors(views_.size());  // as run() returns them
    pool.parallel_for(views_.size(), [&](std::size_t i) {
      Stamp& st = stamps_[i];
      st.tid = thread_index();
      st.t[0] = wall_now();
      const codec::Image decoded = codec::decode_jpeg(views_[i]);
      st.t[1] = wall_now();
      const codec::Image resized = codec::resize(decoded, kSide, kSide);
      st.t[2] = wall_now();
      tensors[i] = codec::normalize_chw(resized);
      st.t[3] = wall_now();
    });
    const double t1 = wall_now();
    const int parent = spans.add("codec.parallel_for", t0, t1);
    for (std::size_t i = 0; i < views_.size(); ++i) {
      const Stamp& st = stamps_[i];
      spans.add("codec.decode_jpeg", st.t[0], st.t[1], parent, st.tid);
      spans.add("codec.resize", st.t[1], st.t[2], parent, st.tid);
      spans.add("codec.normalize_chw", st.t[2], st.t[3], parent, st.tid);
      decode_s += st.t[1] - st.t[0];
      resize_s += st.t[2] - st.t[1];
      normalize_s += st.t[3] - st.t[2];
      busy_s += st.t[3] - st.t[0];
      match_ = match_ && same_bits(tensors[i], in.reference[idx_[i]]);
    }
    wall_s += t1 - t0;
    images += views_.size();
  }

  void check(Result& out) const {
    out.check(match_, "traced parallel_for output differs from the single-thread reference");
  }

  double decode_s = 0.0, resize_s = 0.0, normalize_s = 0.0;  ///< summed over images
  double busy_s = 0.0;  ///< summed per-image work time
  double wall_s = 0.0;  ///< summed batch wall time
  std::uint64_t images = 0;

 private:
  struct Stamp {
    double t[4] = {};  ///< decode begin, decode end, resize end, normalize end
    int tid = 0;
  };
  std::vector<std::size_t> idx_;
  std::vector<std::span<const std::uint8_t>> views_;
  std::vector<Stamp> stamps_ = std::vector<Stamp>(kBatch);
  bool match_ = true;
};

std::string reference_digest(const CodecInputs& in) {
  std::string bytes;
  for (const auto& t : in.reference) {
    bytes.append(reinterpret_cast<const char*>(t.data()), t.size() * sizeof(float));
  }
  return "images=" + std::to_string(in.reference.size()) + " side=" + std::to_string(kSide) +
         " tensors_fnv=" + digest_hash(bytes);
}

}  // namespace

Result run_codec_medium_pool(const Options& opt) {
  Result r;
  // Set-up, three times (the median is reported): seeded corpus, the
  // single-thread reference, pool start-up and one warm batch, rescaled by
  // the one-thread host speed like every set-up.
  CodecInputs in;
  std::unique_ptr<codec::BatchPreprocessor> pool;
  std::vector<double> setup_s;
  double speed = host_speed().cpu;
  for (int rep = 0; rep < 3; ++rep) {
    in = {};
    pool.reset();
    const double t0 = wall_now();
    in = make_inputs(opt.seed, pool_threads());
    pool = std::make_unique<codec::BatchPreprocessor>(pool_threads());
    (void)pool->run(std::vector<std::vector<std::uint8_t>>{in.corpus.front().jpeg});
    const double t1 = wall_now();
    const double after = host_speed().cpu;
    setup_s.push_back((t1 - t0) * interval_speed(speed, after) / kReferenceSpeed);
    speed = after;
  }
  std::size_t corpus_bytes = 0;
  for (const auto& e : in.corpus) corpus_bytes += e.jpeg.size();
  r.notes.push_back("corpus: " + std::to_string(in.corpus.size()) + " JPEGs, " +
                    std::to_string(corpus_bytes) + " bytes");

  if (!opt.trace) {
    const CodecLegStats s = run_reference_leg(*pool, in, opt.seconds, r);
    r.attempted = s.images;
    r.add("sim_req_per_s", s.img_per_cpu_s, "req/s");
    r.add("heap_allocs_per_req", s.allocs_per_img, "allocs");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("setup_s", median(setup_s), "s");
    r.add("codec_img_per_s", s.img_per_s, "img/s");
    r.add("codec_batch_p50_ms", s.batch_p50_ms, "ms");
    r.add("codec_batch_p90_ms", s.batch_p90_ms, "ms");
  } else {
    // Untraced run() and traced parallel_for batches alternate, so host
    // noise hits both alike; then the 1-thread pool for the scaling base.
    SpanLog spans;
    PoolLoop untraced_loop;
    TracedLoop traced;
    const double end = wall_now() + 0.7 * opt.seconds;
    for (std::size_t b = 0; wall_now() < end || untraced_loop.batches() < kMinBatches; ++b) {
      if (b % 2 == 0) {
        untraced_loop.batch(*pool, in, b);
      } else {
        traced.batch(*pool, in, b, spans);
      }
    }
    traced.check(r);
    const CodecLegStats untraced = untraced_loop.stats(pool->threads(), r);
    codec::BatchPreprocessor single{1};
    const CodecLegStats one = run_pool_leg(single, in, 0.3 * opt.seconds, r);
    r.attempted = untraced.images + traced.images + one.images;

    const double n = static_cast<double>(traced.images);
    const double threads = pool->threads();
    const double traced_img_per_s = n / traced.wall_s;
    r.add("codec.decode.ns_per_img", traced.decode_s / n * 1e9, "ns/img");
    r.add("codec.resize.ns_per_img", traced.resize_s / n * 1e9, "ns/img");
    r.add("codec.normalize.ns_per_img", traced.normalize_s / n * 1e9, "ns/img");
    r.add("codec.decode.mpix_per_s",
          n * serve::hw::kMediumImage.width * serve::hw::kMediumImage.height / 1e6 /
              traced.decode_s,
          "Mpix/s");
    r.add("codec.pool.scaling_eff", untraced.img_per_s / (threads * one.img_per_s), "ratio");
    r.add("codec.pool.idle_frac",
          (traced.wall_s * threads - traced.busy_s) / (traced.wall_s * threads), "ratio");
    r.add("tracing_overhead", 1.0 - traced_img_per_s / untraced.img_per_s, "ratio");
    r.notes.push_back("scaling base: 1-thread " + std::to_string(one.img_per_s) + " img/s, " +
                      std::to_string(pool->threads()) + "-thread " +
                      std::to_string(untraced.img_per_s) + " img/s; traced " +
                      std::to_string(traced_img_per_s) + " img/s; " +
                      std::to_string(spans.size()) + " spans");
    write_spans(opt, spans, r);
  }

  if (opt.seed == kDefaultSeed) {
    check_recorded_digest(opt, reference_digest(in), r);
  } else {
    check_recorded_digest(opt, reference_digest(make_inputs(kDefaultSeed, pool_threads())), r);
  }
  return r;
}

}  // namespace perfbench
