// Zero-allocation guarantee for the audited hot path: an untraced request's
// whole audited lifecycle (submit, stage charges, completion) must not touch
// the heap. The auditor keeps its per-request state inline on the request,
// so this holds at any request count. Its own executable, because it
// replaces the global allocation functions with counting versions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "hw/image_spec.h"
#include "serving/audit.h"
#include "serving/request.h"
#include "sim/simulator.h"

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

}  // namespace
}  // namespace serve
