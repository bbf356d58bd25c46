// Real (wall-clock) disk-backed log broker — the "Kafka-class" substrate.
//
// Messages are appended to segment files as length-prefixed records with a
// CRC; consumers read sequentially from an offset, surviving process
// restarts (the log is the source of truth, exactly like a Kafka partition).
// Durability is configurable: fsync every message (acks=all semantics) or
// every N messages.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "trace/span_context.h"

namespace serve::broker {

class FileLogBroker {
 public:
  struct Options {
    std::filesystem::path dir;             ///< log directory (created if absent)
    /// Roll to a new segment beyond this. Recovery holds every sealed
    /// segment to at least this size (a shorter one was truncated), so
    /// reopen a log with the value it was written with, or a smaller one.
    std::uint64_t segment_bytes = 1 << 20;
    std::uint32_t fsync_interval = 1;      ///< fsync every N appends (1 = per message)
    /// Kafka-style crash recovery: a torn record at the *tail* of the last
    /// segment (short header, or a body that extends past EOF — the shapes
    /// an interrupted append can leave) is truncated away instead of failing
    /// recovery. A fully written record with a bad CRC is corruption and
    /// always throws, as does any damage outside the tail or a claimed
    /// length beyond segment_bytes (a corrupted header, not a torn write).
    bool tolerate_torn_tail = false;
    /// Optional telemetry registry (appends / fsync cadence / segment
    /// rotations, counted with thread-safe handles — publish() may be called
    /// from real worker threads). Must outlive the broker.
    metrics::Registry* registry = nullptr;
  };

  explicit FileLogBroker(Options opts);
  ~FileLogBroker();
  FileLogBroker(const FileLogBroker&) = delete;
  FileLogBroker& operator=(const FileLogBroker&) = delete;

  /// Appends one record; returns its log offset (sequence number).
  std::uint64_t publish(const std::string& payload);

  /// Appends one record with its causal context framed in-band (the wire
  /// form rides inside the payload, so the record format — and therefore
  /// crash recovery — is unchanged). Read back with read_traced().
  std::uint64_t publish(const std::string& payload, const trace::SpanContext& ctx);

  /// A record read back together with the publish-time causal context
  /// (zero for records appended without one).
  struct TracedRecord {
    std::string payload;
    trace::SpanContext ctx{};
  };

  /// Reads the record at `offset` (0-based sequence number); std::nullopt
  /// past the end of the log. Thread-safe with concurrent publishes.
  [[nodiscard]] std::optional<std::string> read(std::uint64_t offset) const;

  /// Like read(), but splits off the in-band causal context when present.
  /// Context framing survives recover(): the context is part of the
  /// CRC-protected record bytes, so a reopened log keeps its parent links.
  [[nodiscard]] std::optional<TracedRecord> read_traced(std::uint64_t offset) const;

  [[nodiscard]] std::uint64_t size() const;  ///< records in the log
  [[nodiscard]] std::size_t segment_count() const;

  /// fsync() calls issued so far (cadence syncs + segment-rotation syncs);
  /// exposed so tests can pin the durability schedule.
  [[nodiscard]] std::uint64_t fsync_count() const;

  /// Re-scans the directory, rebuilding the in-memory index — simulates a
  /// broker restart. Throws on a corrupt record (bad CRC / truncation) or a
  /// sealed segment cut short; what it does not throw on is a byte-identical
  /// prefix of the published log.
  void recover();

  /// CRC32 (IEEE 802.3 polynomial) used to protect records; exposed for
  /// testing and for readers in other processes.
  [[nodiscard]] static std::uint32_t crc32(const void* data, std::size_t len) noexcept;

 private:
  struct RecordRef {
    std::size_t segment;
    std::uint64_t file_offset;
    std::uint32_t length;
  };

  void open_new_segment();
  void index_segment(std::size_t seg_idx);
  void truncate_segment(std::size_t seg_idx, std::uint64_t keep_bytes);

  Options opts_;
  mutable std::mutex mu_;
  std::vector<std::filesystem::path> segments_;
  std::vector<RecordRef> index_;
  int active_fd_ = -1;
  std::uint64_t active_bytes_ = 0;
  std::uint32_t appends_since_sync_ = 0;
  std::uint64_t fsyncs_ = 0;
  metrics::Counter appends_m_;  ///< no-op handles without a registry
  metrics::Counter fsyncs_m_;
  metrics::Counter rotations_m_;
};

}  // namespace serve::broker
