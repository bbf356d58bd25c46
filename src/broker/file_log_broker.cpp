#include "broker/file_log_broker.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace serve::broker {

namespace fs = std::filesystem;

namespace {

// Record layout: [u32 length][u32 crc32(payload)][payload bytes]
constexpr std::size_t kHeaderBytes = 8;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) throw_errno("FileLogBroker: write");
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::string segment_name(std::size_t idx) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08zu.log", idx);
  return buf;
}

}  // namespace

std::uint32_t FileLogBroker::crc32(const void* data, std::size_t len) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

FileLogBroker::FileLogBroker(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty()) throw std::invalid_argument("FileLogBroker: need a log directory");
  if (opts_.fsync_interval == 0) throw std::invalid_argument("FileLogBroker: fsync_interval >= 1");
  if (opts_.registry != nullptr) {
    const metrics::Labels labels{{"broker", "filelog"}};
    appends_m_ = opts_.registry->counter("filelog_appends_total", labels);
    fsyncs_m_ = opts_.registry->counter("filelog_fsyncs_total", labels);
    rotations_m_ = opts_.registry->counter("filelog_segment_rotations_total", labels);
  }
  fs::create_directories(opts_.dir);
  recover();
}

FileLogBroker::~FileLogBroker() {
  if (active_fd_ >= 0) {
    ::fsync(active_fd_);
    ::close(active_fd_);
  }
}

void FileLogBroker::open_new_segment() {
  if (active_fd_ >= 0) {
    ::fsync(active_fd_);
    ++fsyncs_;
    fsyncs_m_.inc();
    rotations_m_.inc();
    // Rotation just made everything appended so far durable; restart the
    // fsync cadence so the new segment's first records are not synced
    // off-interval.
    appends_since_sync_ = 0;
    ::close(active_fd_);
  }
  const fs::path path = opts_.dir / segment_name(segments_.size());
  active_fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (active_fd_ < 0) throw_errno("FileLogBroker: open segment");
  segments_.push_back(path);
  active_bytes_ = 0;
}

std::uint64_t FileLogBroker::publish(const std::string& payload) {
  std::lock_guard lock{mu_};
  if (active_fd_ < 0 || active_bytes_ >= opts_.segment_bytes) open_new_segment();
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::array<char, kHeaderBytes> header;
  std::memcpy(header.data(), &len, 4);
  std::memcpy(header.data() + 4, &crc, 4);
  const std::uint64_t file_offset = active_bytes_;
  write_all(active_fd_, header.data(), header.size());
  if (!payload.empty()) write_all(active_fd_, payload.data(), payload.size());
  active_bytes_ += kHeaderBytes + payload.size();
  appends_m_.inc();
  if (++appends_since_sync_ >= opts_.fsync_interval) {
    if (::fsync(active_fd_) != 0) throw_errno("FileLogBroker: fsync");
    ++fsyncs_;
    fsyncs_m_.inc();
    appends_since_sync_ = 0;
  }
  index_.push_back(RecordRef{segments_.size() - 1, file_offset, len});
  return index_.size() - 1;
}

std::uint64_t FileLogBroker::publish(const std::string& payload,
                                     const trace::SpanContext& ctx) {
  // In-band framing: the context header becomes part of the record's payload
  // bytes, so CRC protection, torn-tail recovery, and cross-process readers
  // that strip the marker all keep working unchanged.
  return publish(trace::wrap_with_context(ctx, payload));
}

std::optional<FileLogBroker::TracedRecord> FileLogBroker::read_traced(
    std::uint64_t offset) const {
  auto raw = read(offset);
  if (!raw) return std::nullopt;
  const trace::Unwrapped u = trace::unwrap_context(*raw);
  return TracedRecord{std::string(u.payload), u.ctx};
}

std::optional<std::string> FileLogBroker::read(std::uint64_t offset) const {
  std::lock_guard lock{mu_};
  if (offset >= index_.size()) return std::nullopt;
  const RecordRef& ref = index_[offset];
  const int fd = ::open(segments_[ref.segment].c_str(), O_RDONLY);
  if (fd < 0) throw_errno("FileLogBroker: open for read");
  std::string payload(ref.length, '\0');
  std::array<char, kHeaderBytes> header;
  ssize_t n = ::pread(fd, header.data(), header.size(), static_cast<off_t>(ref.file_offset));
  bool ok = n == static_cast<ssize_t>(header.size());
  if (ok && ref.length > 0) {
    n = ::pread(fd, payload.data(), payload.size(),
                static_cast<off_t>(ref.file_offset + kHeaderBytes));
    ok = n == static_cast<ssize_t>(payload.size());
  }
  ::close(fd);
  if (!ok) throw std::runtime_error("FileLogBroker: short read (truncated log?)");
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, header.data() + 4, 4);
  if (stored_crc != crc32(payload.data(), payload.size())) {
    throw std::runtime_error("FileLogBroker: CRC mismatch (corrupt record)");
  }
  return payload;
}

std::uint64_t FileLogBroker::size() const {
  std::lock_guard lock{mu_};
  return index_.size();
}

std::size_t FileLogBroker::segment_count() const {
  std::lock_guard lock{mu_};
  return segments_.size();
}

std::uint64_t FileLogBroker::fsync_count() const {
  std::lock_guard lock{mu_};
  return fsyncs_;
}

void FileLogBroker::truncate_segment(std::size_t seg_idx, std::uint64_t keep_bytes) {
  if (::truncate(segments_[seg_idx].c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    throw_errno("FileLogBroker: truncate torn tail");
  }
}

void FileLogBroker::index_segment(std::size_t seg_idx) {
  const bool is_tail_segment = seg_idx + 1 == segments_.size();
  const bool tolerant = opts_.tolerate_torn_tail && is_tail_segment;
  const int fd = ::open(segments_[seg_idx].c_str(), O_RDONLY);
  if (fd < 0) throw_errno("FileLogBroker: open for recovery");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("FileLogBroker: stat during recovery");
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t pos = 0;
  std::array<char, kHeaderBytes> header;
  while (true) {
    const ssize_t n = ::pread(fd, header.data(), header.size(), static_cast<off_t>(pos));
    if (n == 0) break;  // clean end of segment
    if (n != static_cast<ssize_t>(header.size())) {
      ::close(fd);
      if (tolerant) {
        truncate_segment(seg_idx, pos);
        break;
      }
      throw std::runtime_error("FileLogBroker: truncated record header during recovery");
    }
    std::uint32_t len, crc;
    std::memcpy(&len, header.data(), 4);
    std::memcpy(&crc, header.data() + 4, 4);
    // Validate the claimed length against the bytes actually on disk before
    // trusting it: a corrupted header must not drive a multi-GiB allocation.
    // A record running past EOF is only treated as a torn tail when its
    // claimed length stays within the segment budget — the one plausibility
    // bound recovery has. A wildly inflated length is a corrupted header,
    // and truncating on it would discard every valid record that follows.
    // (The cost: a crash mid-append of a single record larger than
    // segment_bytes refuses to auto-recover and asks the operator instead.)
    if (len > file_size - pos - kHeaderBytes) {
      ::close(fd);
      if (tolerant && len <= std::max<std::uint64_t>(opts_.segment_bytes, kHeaderBytes)) {
        truncate_segment(seg_idx, pos);
        break;
      }
      throw std::runtime_error(
          "FileLogBroker: record length exceeds segment size during recovery");
    }
    std::string payload(len, '\0');
    bool record_ok = true;
    if (len > 0) {
      const ssize_t pn =
          ::pread(fd, payload.data(), payload.size(), static_cast<off_t>(pos + kHeaderBytes));
      record_ok = pn == static_cast<ssize_t>(payload.size());
    }
    if (record_ok) record_ok = crc == crc32(payload.data(), payload.size());
    if (!record_ok) {
      ::close(fd);
      // The record is fully on disk but its CRC does not match: that is
      // corruption, never a torn write — even at the tail, even in tolerant
      // mode. Truncating here would silently discard valid data.
      throw std::runtime_error("FileLogBroker: corrupt record during recovery");
    }
    index_.push_back(RecordRef{seg_idx, pos, len});
    pos += kHeaderBytes + len;
  }
  ::close(fd);
  if (!is_tail_segment && pos < opts_.segment_bytes) {
    // The writer rolls a segment only once it holds segment_bytes, so a
    // shorter sealed segment lost records off its end: a hole in the middle
    // of the log, never a torn tail — even when the cut falls exactly on a
    // record boundary and every remaining record checks out.
    throw std::runtime_error("FileLogBroker: sealed segment shorter than segment_bytes");
  }
  if (is_tail_segment) active_bytes_ = pos;
}

void FileLogBroker::recover() {
  std::lock_guard lock{mu_};
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
  segments_.clear();
  index_.clear();
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(opts_.dir)) {
    if (entry.path().extension() == ".log") found.push_back(entry.path());
  }
  std::sort(found.begin(), found.end());
  segments_ = std::move(found);
  for (std::size_t i = 0; i < segments_.size(); ++i) index_segment(i);
  if (!segments_.empty()) {
    // Reopen the last segment for appends.
    active_fd_ = ::open(segments_.back().c_str(), O_WRONLY | O_APPEND);
    if (active_fd_ < 0) throw_errno("FileLogBroker: reopen active segment");
  }
  appends_since_sync_ = 0;
}

}  // namespace serve::broker
