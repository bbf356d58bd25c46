// Heap-allocation bounds on hot paths, counted by replacing the global
// allocation functions (so these tests get their own executable):
//  - an untraced request's whole audited lifecycle (submit, stage charges,
//    completion) must not touch the heap: the auditor keeps its per-request
//    state inline on the request, so this holds at any request count;
//  - an attached occupancy counter records each sample without copying its
//    track name, so N samples cost at most one allocation per storage chunk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "hw/image_spec.h"
#include "hw/tracing.h"
#include "serving/audit.h"
#include "serving/request.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// libstdc++ routes the array and nothrow forms through these two.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace serve {
namespace {

TEST(AuditAlloc, UntracedHotPathAllocatesNothing) {
  constexpr int kCharges = 8;
  const sim::Time dt = sim::microseconds(5.0);
  sim::Simulator sim;
  serving::RequestAuditor audit;
  auto cycle = [&](std::uint64_t id) {
    serving::Request req{sim, id, hw::kMediumImage};
    audit.on_submit(req);
    for (int i = 0; i < kCharges; ++i) {
      req.charge(static_cast<metrics::Stage>(static_cast<std::size_t>(i) % metrics::kStageCount),
                 dt);
    }
    req.completed = kCharges * dt;  // the charges tile the lifetime exactly
    audit.on_complete(req);
  };

  cycle(1);  // warm-up
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t id = 2; id <= 10'001; ++id) cycle(id);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocs, 0u) << "heap allocations over 10,000 audited requests";
  EXPECT_EQ(audit.in_flight(), 0u);
  EXPECT_EQ(audit.completed(), 10'001u);
  EXPECT_TRUE(audit.clean()) << (audit.report().empty() ? "" : audit.report().front());
}

TEST(TraceAlloc, AttachedCounterAllocatesOnlyStorageChunks) {
  // Longer than the small-string buffer: a per-sample copy of the track name
  // would allocate on every occupancy change.
  constexpr char kTrack[] = "cpu.preproc_workers";
  static_assert(sizeof kTrack - 1 > 15);
  constexpr std::size_t kChunk = sim::TraceRecorder::kCounterChunk;
  constexpr std::size_t kSamples = 5 * kChunk + 17;
  sim::Simulator sim;
  sim::Resource workers{sim, 4, kTrack};
  sim::TraceRecorder trace;
  hw::detail::attach_counter(sim, trace, workers, kTrack);
  auto cycle = [&] {
    sim::ResourceToken token = workers.try_acquire();  // one sample
    token.release();                                    // and another
  };

  cycle();  // warm-up
  const std::size_t warm = trace.counter_count();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kSamples / 2; ++i) cycle();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  const std::size_t samples = trace.counter_count() - warm;
  ASSERT_EQ(samples, kSamples / 2 * 2);
  // One chunk per kChunk samples, plus the few regrowths of the chunk list.
  const std::size_t chunks = (samples + kChunk - 1) / kChunk;
  EXPECT_LE(allocs, chunks + 4) << "heap allocations over " << samples << " counter samples";
}

}  // namespace
}  // namespace serve
