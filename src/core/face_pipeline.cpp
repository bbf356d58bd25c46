#include "core/face_pipeline.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "core/fan_out.h"
#include "models/model_zoo.h"
#include "serving/batcher.h"
#include "sim/rng.h"

namespace serve::core {

namespace {

using metrics::Stage;
using sim::seconds;
using sim::Time;

/// A video frame: fans out into one identification per detected face.
struct Frame : fan_out::Job {
  using Job::Job;
  Time publish_start = 0;   ///< detection handed faces to the broker
  Time last_delivered = 0;  ///< broker delivered the final face
};

using FramePtr = std::shared_ptr<Frame>;

struct FaceMsg {
  FramePtr frame;
  int face_index = 0;
  trace::SpanContext ctx{};  ///< delivery span's context after the broker hop
  Time delivered = 0;        ///< when the broker handed this face over
};

/// Whole pipeline state bundled for the coroutine bodies.
struct Pipeline : fan_out::Pipeline {
  Pipeline(sim::Simulator& sim_, const FacePipelineSpec& spec_)
      : fan_out::Pipeline(sim_, spec_, "frame", "faces"),
        spec(spec_),
        broker(sim_, spec_.broker == BrokerKind::kKafka
                         ? broker::kafka_profile(spec_.calib.broker)
                         : broker::redis_profile(spec_.calib.broker)),
        frames_in(sim_, std::numeric_limits<std::size_t>::max(), "frames"),
        id_batcher(sim_, {.dynamic = true, .max_batch = spec_.id_max_batch}),
        rng(spec_.seed),
        detection(models::faster_rcnn()),
        identification(models::facenet()) {
    broker.set_tracer(spec_.tracer);
  }

  const FacePipelineSpec& spec;
  broker::SimBroker<FaceMsg> broker;
  sim::Channel<FramePtr> frames_in;
  serving::Batcher<FaceMsg> id_batcher;
  sim::Rng rng;
  const models::ModelDesc& detection;
  const models::ModelDesc& identification;

  [[nodiscard]] int sample_faces() {
    if (!spec.stochastic_faces) return spec.faces_per_frame;
    const auto n = rng.poisson(static_cast<double>(spec.faces_per_frame));
    return n == 0 ? 1 : static_cast<int>(n);  // a frame enters only if faces exist
  }

  void finalize(Frame& frame, Time id_batch_span) {
    if (spec.broker != BrokerKind::kFused) {
      frame.stages[Stage::kBroker] +=
          sim::to_seconds(frame.last_delivered - frame.publish_start);
    }
    fan_out::Pipeline::finalize(frame, id_batch_span);
  }
};

void charge(Frame& f, Stage s, Time dt) { f.stages[s] += sim::to_seconds(dt); }

/// Publishes one face message (spawned so detection is not serialized on
/// broker IO; ordering is preserved by the broker's FIFO IO pool). The
/// frame's context rides along so the broker's publish/delivery spans hang
/// off the frame's trace.
sim::Process publish_face(Pipeline& p, FaceMsg msg) {
  const trace::SpanContext ctx = msg.frame->ctx;
  co_await p.broker.publish(std::move(msg), ctx);
}

/// Stage 1: per-frame preprocessing + Faster R-CNN detection at batch 1,
/// then hand-off (broker publish or fused in-process identification).
sim::Process detection_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  while (true) {
    auto got = co_await p.frames_in.get();
    if (!got) break;
    FramePtr frame = std::move(*got);
    // The frame's sampling fate is decided here and carried by every
    // downstream participant.
    p.begin_trace(*frame, "detection-pickup");

    // Frame preprocessing through a GPU pipeline instance.
    {
      const Time t0 = p.sim.now();
      auto pipe = co_await gpu.preproc().acquire();
      charge(*frame, Stage::kQueue, p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(*frame, "queue", t0, p.sim.now(),
               {{"blame", "preproc-pipeline"}});
      }
      const double pre =
          gpu.preproc_batch_fixed_seconds() + gpu.preproc_image_seconds(p.spec.frame_image);
      const Time p0 = p.sim.now();
      co_await p.sim.wait(seconds(pre));
      charge(*frame, Stage::kPreprocess, seconds(pre));
      p.span(*frame, "preprocess", p0, p.sim.now());
    }

    // Detection (batch 1: frames flow through the detector one at a time).
    {
      const Time t0 = p.sim.now();
      auto engine = co_await gpu.compute().acquire();
      charge(*frame, Stage::kQueue, p.sim.now() - t0);
      if (p.sim.now() > t0) {
        p.span(*frame, "queue", t0, p.sim.now(), {{"blame", "engine-wait"}});
      }
      const double det = gpu.inference_batch_seconds(p.detection.flops(), 1, 1.0, false);
      const Time d0 = p.sim.now();
      co_await p.sim.wait(seconds(det));
      charge(*frame, Stage::kInference, seconds(det));
      p.span(*frame, "inference", d0, p.sim.now(), {{"model", "detection"}});
    }

    if (p.spec.broker == BrokerKind::kFused) {
      // Fused system: identify each face in-process, one invocation per
      // detected face (no cross-frame batching possible).
      Time id_total = 0;
      for (int i = 0; i < frame->width; ++i) {
        auto engine = co_await gpu.compute().acquire();
        const double idt = gpu.inference_batch_seconds(p.identification.flops(), 1, 1.0, false);
        const Time t0 = p.sim.now();
        co_await p.sim.wait(seconds(idt));
        id_total += p.sim.now() - t0;
        p.span(*frame, "inference", t0, p.sim.now(),
               {{"model", "identification"}, {"face", std::to_string(i)}});
      }
      p.finalize(*frame, id_total);
      continue;
    }

    // Brokered system: producer/consumer synchronization bubble on the GPU
    // pipeline, then one message per face.
    {
      const Time s0 = p.sim.now();
      auto engine = co_await gpu.compute().acquire();
      co_await p.sim.wait(seconds(p.spec.calib.broker.pipeline_sync_s));
      charge(*frame, Stage::kQueue, seconds(p.spec.calib.broker.pipeline_sync_s));
      if (p.sim.now() > s0) {
        p.span(*frame, "queue", s0, p.sim.now(), {{"blame", "pipeline-sync"}});
      }
    }
    frame->publish_start = p.sim.now();
    for (int i = 0; i < frame->width; ++i) {
      p.sim.spawn(publish_face(p, FaceMsg{frame, i}));
    }
  }
  if (p.spec.broker != BrokerKind::kFused) p.broker.close();
  p.id_batcher.input().close();
}

/// Moves delivered face messages from the broker into the identification
/// dynamic batcher.
sim::Process consume_pump(Pipeline& p) {
  while (true) {
    auto d = co_await p.broker.consume_traced();
    if (!d) break;
    d->payload.frame->last_delivered = p.sim.now();
    // Downstream identification spans parent under the delivery span, so
    // the chain detect -> publish -> deliver -> identify stays causal.
    d->payload.ctx = d->ctx;
    d->payload.delivered = p.sim.now();
    p.id_batcher.input().try_put(std::move(d->payload));
  }
}

/// Stage 2: FaceNet over dynamically batched faces (across frames).
sim::Process identification_loop(Pipeline& p) {
  auto& gpu = p.platform.gpu(0);
  while (true) {
    std::vector<FaceMsg> batch;
    {
      sim::Event ready{p.sim};
      p.sim.spawn(p.id_batcher.collect_into(batch, ready));
      co_await ready.wait();
    }
    if (batch.empty()) break;
    auto engine = co_await gpu.compute().acquire();
    const double idt = gpu.inference_batch_seconds(
        p.identification.flops(), static_cast<int>(batch.size()), 1.0, false);
    const Time t0 = p.sim.now();
    co_await p.sim.wait(seconds(idt));
    const Time span = p.sim.now() - t0;
    engine.release();
    const std::string id_blame = "id-batch-formation batch=" +
                                 std::to_string(p.id_batcher.batches_formed()) +
                                 " size=" + std::to_string(batch.size());
    for (auto& face : batch) {
      Frame& f = *face.frame;
      // Per-face wait from broker delivery to batch dispatch (batch
      // formation + engine wait), then the shared batch execution — both
      // parented under the delivery span so the cross-broker chain holds.
      if (t0 > face.delivered) {
        p.span(face.ctx, f.id, "queue", face.delivered, t0, {{"blame", id_blame}});
      }
      p.span(face.ctx, f.id, "inference", t0, p.sim.now(),
             {{"model", "identification"}, {"face", std::to_string(face.face_index)}});
      if (--f.remaining == 0) p.finalize(f, span);
    }
  }
}

}  // namespace

FacePipelineResult run_face_pipeline(const FacePipelineSpec& spec) {
  Run run{{}};
  Pipeline p{run.sim(), spec};
  p.sim.spawn(detection_loop(p));
  if (spec.broker != BrokerKind::kFused) {
    p.sim.spawn(consume_pump(p));
    p.sim.spawn(identification_loop(p));
  }
  return fan_out::run_closed_loop<FacePipelineResult>(
      run, p, p.frames_in, spec.concurrency, [&p] { return p.sample_faces(); }, spec.warmup,
      spec.measure);
}

}  // namespace serve::core
