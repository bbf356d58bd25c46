// `servescope capacity`: renders the "capacity" section of a
// servescope-telemetry-v1 export (a run with obs::CapacityPlane attached).
//
// Sections:
//   - timelines: one unicode sparkline per modeled resource (busy fraction
//     per recorder interval, fixed 0..100% scale) plus its time-average
//     queue depth, in export (registration) order;
//   - binding segments: the per-interval bottleneck attribution merged into
//     runs ("[0, 14) cpu.preproc_workers", "[14, 40) gpu0.compute", ...)
//     with each segment's share of recorded time;
//   - knee estimate: the plane's sustainable-rps headroom verdict with the
//     binding stage taxonomy verdict;
//   - Little's-law audit: deviating intervals (backlog transients), if any.
//
// A file with no capacity section reports "n/a" and exits 0: absence of
// data is not malformed input.
#include <cstdio>
#include <string>

#include "reader.h"

namespace scope {

int run_capacity(const Args& args) {
  constexpr std::size_t kWidth = 64;  // sparkline columns
  const std::string& path = args.paths[0];
  const Value doc = load(path, Schema::kTelemetry);

  std::printf("=== servescope capacity: %s ===\n", path.c_str());
  const auto cap = capacity_of(doc);
  if (!cap) {
    std::printf("  no capacity section (attach an obs::CapacityPlane and re-export)\n");
    return 0;
  }
  if (cap->empty()) {
    std::printf("  (no capacity intervals recorded)\n");
    return 0;
  }

  std::printf("\nUtilization timelines (%zu intervals x %.0f ms, scale 0..100%%):\n",
              cap->intervals, cap->period_s * 1e3);
  for (const auto& r : cap->resources) {
    std::printf("  %-24s %s\n", r.label.c_str(), sparkline(r.busy, kWidth, true).c_str());
    std::printf("  %-24s cap %.0f, mean %.1f%%, peak %.1f%%, queue %.2f%s\n", "", r.capacity,
                100.0 * r.mean, 100.0 * r.peak, r.queue_mean,
                r.peak >= kSaturated ? "  << SATURATED" : "");
  }

  std::printf("\nBinding-resource segments:\n");
  bool any_segment = false;
  if (const Value* segs = cap->json->find("segments"); segs != nullptr && segs->is_array()) {
    for (const Value& s : segs->array) {
      const double begin = s.num_or("begin", 0.0), end = s.num_or("end", 0.0);
      if (!(end > begin && begin >= 0.0)) continue;
      any_segment = true;
      std::printf("  [%4.0f, %4.0f)  %6.1fs..%6.1fs  %-24s %5.1f%% of run\n", begin, end,
                  begin * cap->period_s, end * cap->period_s, s.str_or("resource", "?").c_str(),
                  100.0 * (end - begin) / static_cast<double>(cap->intervals));
    }
  }
  if (!any_segment) std::printf("  (none recorded)\n");

  std::printf("\nKnee estimate:\n");
  std::printf("  binding resource: %s (stage '%s')\n", cap->binding.c_str(),
              cap->binding_stage.c_str());
  if (cap->has_headroom()) {
    std::printf("  est. max sustainable rate: %.1f req/s\n", cap->sustainable_rps);
  } else {
    std::printf("  est. max sustainable rate: n/a (no loaded intervals)\n");
  }

  if (cap->violations.empty()) {
    std::printf("\nLittle's-law audit: clean over %zu interval(s)\n", cap->audited);
  } else {
    std::printf("\nLittle's-law audit: %zu/%zu interval(s) deviated at:", cap->violations.size(),
                cap->audited);
    for (const double i : cap->violations) std::printf(" %.1fs", (i + 1.0) * cap->period_s);
    std::printf("\n  (L != lambda*W marks backlog growth/drain — fault or overload windows)\n");
  }
  return 0;
}

}  // namespace scope
