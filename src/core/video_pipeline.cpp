#include "core/video_pipeline.h"

#include <memory>
#include <string>
#include <vector>

#include "core/fan_out.h"
#include "serving/batcher.h"

namespace serve::core {

namespace {

using metrics::Stage;
using sim::seconds;
using sim::Time;

/// A clip: fans out into one classification per sampled frame.
using Clip = fan_out::Job;
using ClipPtr = std::shared_ptr<Clip>;

struct FrameJob {
  ClipPtr clip;
  int index = 0;
};

struct Pipeline : fan_out::Pipeline {
  Pipeline(sim::Simulator& sim_, const VideoPipelineSpec& spec_)
      : fan_out::Pipeline(sim_, spec_, "clip", nullptr),
        spec(spec_),
        clips_in(sim_, std::numeric_limits<std::size_t>::max(), "clips"),
        frame_batcher(sim_, {.dynamic = true, .max_batch = spec_.model.max_batch}) {}

  const VideoPipelineSpec& spec;
  sim::Channel<ClipPtr> clips_in;
  serving::Batcher<FrameJob> frame_batcher;

  /// Pixels that must pass through the decoder to extract the samples.
  [[nodiscard]] double decode_pixels() const {
    const auto per_frame = static_cast<double>(spec.clip.frame_pixels());
    if (spec.sampling == SamplingMode::kDecodeAll) {
      return per_frame * static_cast<double>(spec.clip.total_frames());
    }
    // Keyframe seek: the decoder reconstructs roughly two frames (keyframe +
    // target) per sample.
    return per_frame * 2.0 * spec.clip.sampled_frames;
  }
};

/// Stage 1: ingest + video decode, then emit one FrameJob per sampled frame.
sim::Process decode_loop(Pipeline& p) {
  auto& cpu = p.platform.cpu();
  auto& gpu = p.platform.gpu(0);
  const auto& calib = p.spec.calib;
  while (true) {
    auto got = co_await p.clips_in.get();
    if (!got) break;
    ClipPtr clip = std::move(*got);
    p.begin_trace(*clip, "decode-pickup");

    // Ingest the compressed clip on a host core.
    {
      const Time t0 = p.sim.now();
      auto core = co_await cpu.cores().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "host-core"}});
      const Time i0 = p.sim.now();
      co_await p.sim.wait(seconds(cpu.ingest_seconds()));
      clip->stages[Stage::kIngest] += cpu.ingest_seconds();
      p.span(*clip, "ingest", i0, p.sim.now());
    }

    const double pixels = p.decode_pixels();
    if (p.spec.decode == VideoDecodeDevice::kCpu) {
      const Time t0 = p.sim.now();
      auto worker = co_await cpu.preproc_workers().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "decode-worker"}});
      }
      const double d = pixels / calib.cpu.video_decode_pix_per_s;
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(d));
      clip->stages[Stage::kPreprocess] += d;
      p.span(*clip, "preprocess", d0, p.sim.now(), {{"op", "cpu-decode"}});
    } else {
      // Ship the compressed stream over PCIe, then decode on NVDEC.
      {
        const std::int64_t bytes = p.spec.clip.compressed_bytes();
        const Time t0 = p.sim.now();
        {
          auto host = co_await p.platform.host_link().acquire();
          co_await p.sim.wait(seconds(p.platform.host_link_seconds(bytes)));
        }
        {
          auto copy = co_await gpu.copy_h2d().acquire();
          co_await p.sim.wait(seconds(gpu.link_seconds(bytes)));
        }
        clip->stages[Stage::kTransfer] += sim::to_seconds(p.sim.now() - t0);
        p.span(*clip, "transfer", t0, p.sim.now());
      }
      const Time t0 = p.sim.now();
      auto dec = co_await gpu.nvdec().acquire();
      clip->stages[Stage::kQueue] += sim::to_seconds(p.sim.now() - t0);
      if (p.sim.now() > t0) p.span(*clip, "queue", t0, p.sim.now(), {{"blame", "nvdec"}});
      const double d = calib.gpu.nvdec_clip_init_s + pixels / calib.gpu.nvdec_pix_per_s;
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(d));
      clip->stages[Stage::kPreprocess] += d;
      p.span(*clip, "preprocess", d0, p.sim.now(), {{"op", "nvdec-decode"}});
    }

    for (int i = 0; i < p.spec.clip.sampled_frames; ++i) {
      p.frame_batcher.input().try_put(FrameJob{clip, i});
    }
  }
  p.frame_batcher.input().close();
}

/// Stage 2: per-frame resize/normalize + batched classification.
sim::Process classify_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  const auto& calib = p.spec.calib;
  while (true) {
    std::vector<FrameJob> batch;
    {
      sim::Event ready{p.sim};
      p.sim.spawn(p.frame_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;
    const auto b = static_cast<int>(batch.size());
    // Frame preprocessing (resize to the network input + normalize) on the
    // GPU preprocessing pipelines; decoded frames are already on-device for
    // NVDEC, or cross PCIe for CPU decode — charge the batch either way.
    {
      auto pipe = co_await gpu.preproc().acquire();
      const double resize =
          static_cast<double>(p.spec.clip.frame_pixels()) / calib.gpu.gpu_resize_pix_per_s;
      const double pre = calib.gpu.dali_batch_fixed_s + b * resize;
      const Time p0 = p.sim.now();
      co_await p.sim.wait(seconds(pre));
      for (auto& f : batch) {
        f.clip->stages[Stage::kPreprocess] += pre;
        p.span(*f.clip, "preprocess", p0, p.sim.now(), {{"op", "frame-resize"}});
      }
    }
    const Time t0 = p.sim.now();
    auto engine = co_await gpu.compute().acquire();
    const double ct = gpu.inference_batch_seconds(p.spec.model.flops(), b, 1.0, true);
    const Time c0 = p.sim.now();
    co_await p.sim.wait(seconds(ct));
    engine.release();
    const Time span = p.sim.now() - t0;
    const std::string batch_blame =
        "classify-batch-formation batch=" + std::to_string(p.frame_batcher.batches_formed()) +
        " size=" + std::to_string(b);
    for (auto& f : batch) {
      if (c0 > t0) p.span(*f.clip, "queue", t0, c0, {{"blame", batch_blame}});
      p.span(*f.clip, "inference", c0, p.sim.now(),
             {{"frame", std::to_string(f.index)}});
      if (--f.clip->remaining == 0) p.finalize(*f.clip, span);
    }
  }
}

}  // namespace

VideoPipelineResult run_video_pipeline(const VideoPipelineSpec& spec) {
  VideoPipelineSpec resolved = spec;
  if (resolved.model.name.empty()) resolved.model = models::vit_base();
  resolved.clip.validate();

  Run run{{}};
  Pipeline p{run.sim(), resolved};
  p.sim.spawn(decode_loop(p));
  p.sim.spawn(classify_loop(p));
  return fan_out::run_closed_loop<VideoPipelineResult>(
      run, p, p.clips_in, resolved.concurrency,
      [&resolved] { return resolved.clip.sampled_frames; }, resolved.warmup, resolved.measure);
}

}  // namespace serve::core
