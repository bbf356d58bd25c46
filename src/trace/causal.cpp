#include "trace/causal.h"

#include <utility>

namespace serve::trace {

void CausalTracer::record(const SpanContext& ctx, std::string_view track, std::string name,
                          sim::Time begin, sim::Time end, sim::SpanArgs args) {
  if (rec_ == nullptr || !ctx.sampled || !ctx.valid()) return;
  sim::SpanArgs full;
  full.reserve(args.size() + 3);
  full.emplace_back("trace_id", std::to_string(ctx.trace_id));
  full.emplace_back("span_id", std::to_string(ctx.span_id));
  if (ctx.parent_span_id != 0) {
    full.emplace_back("parent_span_id", std::to_string(ctx.parent_span_id));
  }
  for (auto& kv : args) full.push_back(std::move(kv));
  rec_->span(track, std::move(name), begin, end, std::move(full));
  ++spans_recorded_;
}

SpanContext CausalTracer::child_span(const SpanContext& parent, std::string_view track,
                                     std::string name, sim::Time begin, sim::Time end,
                                     sim::SpanArgs args) {
  const SpanContext ctx = child_of(parent);
  record(ctx, track, std::move(name), begin, end, std::move(args));
  return ctx;
}

}  // namespace serve::trace
