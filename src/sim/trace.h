// Virtual-time trace recording with Chrome trace-event export.
//
// Records three kinds of events:
//  - spans: named intervals on a named track ("gpu0.compute: batch x64"),
//    optionally carrying string args (trace/span ids, blame annotations);
//  - counters: numeric time series ("cpu.cores in_use") rendered as stacked
//    charts by chrome://tracing / Perfetto;
//  - instants: zero-duration markers ("fault pcie_degrade begin", "breaker
//    open") that line state transitions up against the per-request spans.
//
// Memory is bounded: past `max_events` (spans + counters + instants
// combined) new events are dropped and counted in `dropped_events()`, so a
// long recorded run cannot grow the trace without bound. The drop decision
// depends only on the event sequence, which is deterministic in virtual
// time — same-seed runs drop the same events.
//
// Track names are interned once into a string table; every event refers to
// its track by TrackId. Counter samples, the bulk of a traced run (one per
// occupancy change of every engine), are 24-byte POD records kept in
// fixed-size chunks, so growth never copies what is already recorded.
//
// Load the emitted JSON in chrome://tracing (or ui.perfetto.dev) to see the
// serving pipeline's device occupancy over virtual time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace serve::sim {

/// Ordered key/value annotations attached to a span or instant; exported as
/// the Chrome trace event's "args" object (all values as JSON strings).
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

/// Interned track name: dense, and stable for the recorder's lifetime
/// (clear() keeps the string table).
enum class TrackId : std::uint32_t {};

class TraceRecorder {
 public:
  /// Default event cap: far above any bench harness, but a hard stop for
  /// runaway recorded runs. A counter sample is a 24 B record, so a store
  /// filled with counters holds 4M x 24 B = 96 MB. A span (80 B) or instant
  /// (72 B) record also owns its name and args on the heap, but the traced
  /// runs record far fewer of them than counter samples.
  static constexpr std::size_t kDefaultMaxEvents = 4'000'000;
  /// Counter samples per storage chunk (8192 x 24 B = 192 KiB).
  static constexpr std::size_t kCounterChunk = 8192;

  /// Interns `track`, returning the same id for the same name every time.
  [[nodiscard]] TrackId track_id(std::string_view track);

  /// Records a completed span [begin, end] on `track`.
  void span(std::string_view track, std::string name, Time begin, Time end,
            SpanArgs args = {});

  /// Records a counter sample (step function between samples).
  void counter(TrackId track, double value, Time t) {
    if (!admit()) return;
    counters_.push_back({t, value, track});
  }
  void counter(std::string_view track, double value, Time t) {
    counter(track_id(track), value, t);
  }

  /// Records an instantaneous marker at time `t` on `track`.
  void instant(std::string_view track, std::string name, Time t, SpanArgs args = {});

  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t counter_count() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t instant_count() const noexcept { return instants_.size(); }
  [[nodiscard]] bool empty() const noexcept { return event_count() == 0; }

  /// Caps spans + counters + instants combined; events past the cap are
  /// dropped (and counted). Lowering the cap below the current event count
  /// keeps what is already recorded.
  void set_max_events(std::size_t cap) noexcept { max_events_ = cap; }
  [[nodiscard]] std::size_t max_events() const noexcept { return max_events_; }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return spans_.size() + counters_.size() + instants_.size();
  }

  /// Drops every recorded event and the drop count; interned ids stay valid.
  void clear() noexcept {
    spans_.clear();
    counters_.clear();
    instants_.clear();
    dropped_ = 0;
  }

  /// Chrome trace-event JSON ("traceEvents" array form). Tracks become
  /// thread names; spans are "X" events, counters "C" events. Timestamps are
  /// microseconds printed with round-trip precision, so virtual-time ns
  /// survive export exactly and same-seed runs emit byte-identical files.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Span {
    TrackId track;
    std::string name;
    Time begin;
    Time end;
    SpanArgs args;
  };
  struct CounterSample {
    Time t;
    double value;
    TrackId track;
  };
  static_assert(sizeof(CounterSample) <= 24);
  struct Instant {
    TrackId track;
    std::string name;
    Time t;
    SpanArgs args;
  };

  /// Append-only store of kCounterChunk-record chunks: growth allocates one
  /// chunk and never moves or copies the records already stored.
  class CounterStore {
   public:
    void push_back(const CounterSample& c) {
      if (size_ == chunks_.size() * kCounterChunk) {
        chunks_.push_back(std::make_unique_for_overwrite<CounterSample[]>(kCounterChunk));
      }
      chunks_.back()[size_ % kCounterChunk] = c;
      ++size_;
    }
    [[nodiscard]] const CounterSample& operator[](std::size_t i) const noexcept {
      return chunks_[i / kCounterChunk][i % kCounterChunk];
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    void clear() noexcept {
      chunks_.clear();
      size_ = 0;
    }

   private:
    std::vector<std::unique_ptr<CounterSample[]>> chunks_;
    std::size_t size_ = 0;
  };

  [[nodiscard]] bool admit() noexcept {
    if (event_count() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
  /// Name -> id, iterated in name order for the export's metadata events;
  /// track_names_[id] points at the map's (node-stable) key. The recorder is
  /// move-only (CounterStore owns its chunks), so no copy can carry these
  /// pointers away from their map.
  std::map<std::string, TrackId, std::less<>> track_ids_;
  std::vector<const std::string*> track_names_;
  std::vector<Span> spans_;
  CounterStore counters_;
  std::vector<Instant> instants_;
};

}  // namespace serve::sim
