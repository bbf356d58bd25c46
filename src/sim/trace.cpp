#include "sim/trace.h"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace serve::sim {

TrackId TraceRecorder::track_id(std::string_view track) {
  if (auto it = track_ids_.find(track); it != track_ids_.end()) return it->second;
  const TrackId id{static_cast<std::uint32_t>(track_names_.size())};
  track_names_.push_back(&track_ids_.emplace(std::string(track), id).first->first);
  return id;
}

void TraceRecorder::span(std::string_view track, std::string name, Time begin, Time end,
                         SpanArgs args) {
  if (end < begin) throw std::invalid_argument("TraceRecorder::span: end before begin");
  if (!admit()) return;
  spans_.push_back(Span{track_id(track), std::move(name), begin, end, std::move(args)});
}

void TraceRecorder::instant(std::string_view track, std::string name, Time t, SpanArgs args) {
  if (!admit()) return;
  instants_.push_back(Instant{track_id(track), std::move(name), t, std::move(args)});
}

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// Shortest round-trip decimal form (std::to_chars), so exported microsecond
/// timestamps reconstruct the exact virtual-time value instead of losing
/// precision to ostream's 6-significant-digit default.
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

void write_args(std::ostream& os, const SpanArgs& args) {
  os << ",\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ",";
    first = false;
    write_escaped(os, k);
    os << ":";
    write_escaped(os, v);
  }
  os << "}";
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  // Thread ids follow first appearance (spans, then counters, then
  // instants); tid 0 marks a track no recorded event uses.
  std::vector<int> tids(track_names_.size(), 0);
  int next_tid = 0;
  auto tid_of = [&](TrackId track) {
    int& tid = tids[static_cast<std::size_t>(track)];
    if (tid == 0) tid = ++next_tid;
    return tid;
  };

  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (const auto& s : spans_) {
    sep();
    os << R"({"ph":"X","pid":1,"tid":)" << tid_of(s.track) << ",\"name\":";
    write_escaped(os, s.name);
    os << ",\"ts\":";
    write_number(os, to_microseconds(s.begin));
    os << ",\"dur\":";
    write_number(os, to_microseconds(s.end - s.begin));
    if (!s.args.empty()) write_args(os, s.args);
    os << "}";
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const CounterSample& c = counters_[i];
    sep();
    os << R"({"ph":"C","pid":1,"tid":)" << tid_of(c.track) << ",\"name\":";
    write_escaped(os, *track_names_[static_cast<std::size_t>(c.track)]);
    os << ",\"ts\":";
    write_number(os, to_microseconds(c.t));
    os << ",\"args\":{\"value\":";
    write_number(os, c.value);
    os << "}}";
  }
  for (const auto& i : instants_) {
    sep();
    // "s":"t" scopes the marker to its thread (track) lane.
    os << R"({"ph":"i","pid":1,"tid":)" << tid_of(i.track) << ",\"name\":";
    write_escaped(os, i.name);
    os << ",\"ts\":";
    write_number(os, to_microseconds(i.t));
    os << R"(,"s":"t")";
    if (!i.args.empty()) write_args(os, i.args);
    os << "}";
  }
  // Metadata in track-name order (the string table's map order).
  for (const auto& [track, id] : track_ids_) {
    const int tid = tids[static_cast<std::size_t>(id)];
    if (tid == 0) continue;
    sep();
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":)";
    write_escaped(os, track);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace serve::sim
