// Seeded mutation fuzzing for FileLogBroker crash recovery.
//
// recover() reads segment files that a crash or a bad disk may have left
// damaged, so it holds a hard contract on any one damaged segment: it throws
// std::runtime_error / std::system_error, or it exposes a prefix of the
// published log whose records read back byte-identical — never a log with a
// hole, a changed record, another exception type, or a crash. Each round
// publishes a fresh multi-segment log, damages one segment file with byte
// flips or a truncation from a deterministic xorshift stream, and reopens it
// strict and then tolerant (tolerant recovery may truncate a torn tail on
// disk, so it goes second). A failure names its round, which replays
// exactly; the CI sanitizer jobs run this under ASan/UBSan.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/file_log_broker.h"

namespace serve {
namespace {

namespace fs = std::filesystem;
using broker::FileLogBroker;

struct XorShift {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

constexpr std::uint64_t kSeed = 0xb10cb10cb10cb10cULL;
constexpr std::uint64_t kSegmentBytes = 160;  // a handful of records per segment

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".log") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Damages one segment file: flips 1-3 bytes, or truncates it to a shorter
/// length (zero included). Returns a description for failure messages.
std::string mutate_one_segment(const fs::path& dir, XorShift& rng) {
  const auto segments = segment_files(dir);
  const fs::path seg = segments[rng.below(segments.size())];
  std::string bytes;
  {
    std::ifstream in{seg, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::string what = seg.filename().string() + " (" + std::to_string(bytes.size()) + " bytes): ";
  if (bytes.empty() || rng.below(3) == 0) {
    const std::size_t keep = bytes.empty() ? 0 : rng.below(bytes.size());
    fs::resize_file(seg, keep);
    return what + "truncated to " + std::to_string(keep);
  }
  const std::size_t flips = 1 + rng.below(3);
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t at = rng.below(bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ static_cast<int>(1 + rng.below(255)));
    what += "flip@" + std::to_string(at) + ' ';
  }
  std::ofstream out{seg, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return what;
}

/// Reopens the damaged log; returns false when recovery refused it. A log
/// that opens must be a prefix of `published`.
bool recovers_to_prefix(const fs::path& dir, bool tolerant,
                        const std::vector<std::string>& published) {
  std::optional<FileLogBroker> log;
  try {
    log.emplace(FileLogBroker::Options{
        .dir = dir, .segment_bytes = kSegmentBytes, .tolerate_torn_tail = tolerant});
  } catch (const std::runtime_error&) {  // std::system_error is one too
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "recovery threw outside its contract: " << e.what();
    return false;
  }
  EXPECT_LE(log->size(), published.size()) << "recovery invented records";
  const std::uint64_t n = std::min<std::uint64_t>(log->size(), published.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    try {
      EXPECT_EQ(log->read(i), published[i]) << "record " << i << " of " << log->size();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "recovered record " << i << " does not read back: " << e.what();
    }
  }
  return true;
}

TEST(FileLogFuzz, DamagedSegmentRecoversToPrefixOrThrows) {
  const fs::path root = fs::temp_directory_path() /
                        ("servescope_logfuzz_" + std::to_string(::getpid()));
  XorShift rng{kSeed};
  int opened = 0, refused = 0;
  for (int round = 0; round < 240; ++round) {
    SCOPED_TRACE("seed " + std::to_string(kSeed) + " round " + std::to_string(round));
    const fs::path dir = root / std::to_string(round);
    std::vector<std::string> published;
    {
      // Cadence fsyncs off: durability is not under test, only the bytes.
      FileLogBroker log{{.dir = dir, .segment_bytes = kSegmentBytes, .fsync_interval = 1u << 30}};
      const std::size_t records = 8 + rng.below(24);
      for (std::size_t r = 0; r < records; ++r) {
        std::string payload(rng.below(48), '\0');
        for (auto& c : payload) c = static_cast<char>(rng.next());
        log.publish(payload);
        published.push_back(std::move(payload));
      }
    }
    SCOPED_TRACE(mutate_one_segment(dir, rng));
    for (const bool tolerant : {false, true}) {
      SCOPED_TRACE(tolerant ? "tolerant" : "strict");
      recovers_to_prefix(dir, tolerant, published) ? ++opened : ++refused;
    }
    fs::remove_all(dir);
    if (HasFailure()) break;  // one replayable round is enough
  }
  fs::remove_all(root);
  // Both outcomes must occur, or the harness is testing nothing.
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace serve
