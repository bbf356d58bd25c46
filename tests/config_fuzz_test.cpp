// Seeded mutation fuzzing for the deployment-config parser.
//
// Config files are operator-written text, so serving::parse_server_config
// holds a hard contract on any input: it returns a config or throws
// std::invalid_argument / std::out_of_range — never another exception type,
// never a crash. Whatever parses must also format back to text that parses
// again and formats to the same text. Mutations are byte flips, character
// insertions, erasures, truncations, and line-level edits (a value moved to
// another key, a line duplicated) from a deterministic xorshift stream, so
// a failure ("seed X round N") replays exactly; the CI sanitizer jobs run
// this under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/model_zoo.h"
#include "serving/config_file.h"

namespace serve {
namespace {

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

/// Every key set away from its default, with durations and budgets large
/// enough to need more than six significant digits.
serving::ServerConfig populated_config() {
  serving::ServerConfig c;
  c.model = models::tiny_vit();
  c.backend = models::Backend::kOnnxRuntime;
  c.preproc = serving::PreprocDevice::kCpu;
  c.mode = serving::PipelineMode::kPreprocessOnly;
  c.ingress = serving::IngressFormat::kRawTensor;
  c.ingress_cache = {.enabled = true,
                     .image_budget_bytes = 48LL << 20,
                     .tensor_budget_bytes = 3000LL << 20,
                     .lookup_s = 35e-6};
  c.dynamic_batching = false;
  c.max_batch = 48;
  c.instance_count = 3;
  c.fixed_batch = 16;
  c.max_queue_delay = sim::seconds(2.5);
  c.shed_deadline = sim::seconds(1800.0);
  c.audit = true;
  c.validate_payloads = true;
  c.retry = {.enabled = true,
             .max_attempts = 5,
             .timeout = sim::milliseconds(750),
             .backoff_base = sim::milliseconds(20),
             .backoff_cap = sim::seconds(1200.0),
             .retry_budget = 12.5,
             .budget_refill_per_success = 0.25};
  c.breaker = {.enabled = true,
               .queue_depth_open = 4096,
               .error_rate_open = 0.35,
               .open_duration = sim::milliseconds(400),
               .half_open_probes = 2};
  c.degrade = {.enabled = true, .hysteresis = sim::milliseconds(90)};
  c.broker_publish = {.publish_results = true,
                      .retry_enabled = true,
                      .max_attempts = 4,
                      .backoff_base = sim::milliseconds(3),
                      .poll_interval = sim::milliseconds(7)};
  c.balancer.policy = serving::BalancerPolicy::kLatencyWeighted;
  c.balancer.health = {.enabled = true,
                       .probe_interval = sim::milliseconds(40),
                       .probe_timeout = sim::milliseconds(30),
                       .probe_cost_s = 150e-6,
                       .ewma_alpha = 0.3,
                       .eject_score = 0.4,
                       .eject_probe_failures = 2,
                       .eject_duration = sim::seconds(3600.0),
                       .rejoin_probes = 4};
  c.balancer.hedge = {.enabled = true,
                      .deadline = sim::milliseconds(35),
                      .budget = 32.0,
                      .budget_refill_per_success = 0.2};
  return c;
}

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = [] {
    serving::ServerConfig defaults;
    defaults.model = models::vit_base();
    return std::vector<std::string>{serving::format_server_config(defaults),
                                    serving::format_server_config(populated_config())};
  }();
  return kCorpus;
}

/// Parses `text`; returns false when it is rejected. Only the two contract
/// exceptions are a clean rejection; any other exception fails the test
/// here, under the caller's seed/round trace. Text that parses must format
/// to a fixed point of parse-then-format.
bool parses_and_round_trips(const std::string& text) {
  serving::ServerConfig cfg;
  try {
    cfg = serving::parse_server_config(text);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()), "");
    return false;
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()), "");
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parser threw outside its contract: " << e.what() << "\n" << text;
    return false;
  }
  const std::string once = serving::format_server_config(cfg);
  std::string twice;
  try {
    twice = serving::format_server_config(serving::parse_server_config(once));
  } catch (const std::exception& e) {
    ADD_FAILURE() << "formatted config does not parse back: " << e.what() << "\n" << once;
    return true;
  }
  EXPECT_EQ(once, twice);
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  return lines;
}

/// One line-level edit: moves the value of one line onto another line's
/// key, or duplicates a line somewhere else.
std::string edit_lines(const std::string& text, XorShift& rng) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.size() < 2) return text;
  const std::size_t from = rng.below(lines.size());
  const std::size_t to = rng.below(lines.size());
  if (rng.below(2) == 0) {
    const std::size_t eq_from = lines[from].find('=');
    const std::size_t eq_to = lines[to].find('=');
    if (eq_from != std::string::npos && eq_to != std::string::npos) {
      lines[to] = lines[to].substr(0, eq_to) + lines[from].substr(eq_from);
    }
  } else {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), lines[from]);
  }
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

TEST(ConfigFuzz, SeedCorpusParsesAndRoundTrips) {
  for (const auto& seed : corpus()) {
    SCOPED_TRACE(seed);
    EXPECT_TRUE(parses_and_round_trips(seed));
  }
}

TEST(ConfigFuzz, MutationsEitherParseOrThrowTheContractExceptions) {
  static constexpr char kAlphabet[] = "=#\n\t .+-_eE0123456789abcdefghijklmnopqrstuvwxyz";
  XorShift rng{0xc0f1c0f1c0f1c0f1ULL};
  int parsed = 0, rejected = 0;
  for (std::size_t s = 0; s < corpus().size(); ++s) {
    const std::string& seed = corpus()[s];
    for (int round = 0; round < 2000; ++round) {
      std::string text = seed;
      const int edits = 1 + static_cast<int>(rng.below(6));
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.below(text.size());
        switch (rng.below(5)) {
          case 0: text[at] = static_cast<char>(text[at] ^ static_cast<int>(1 + rng.below(255)));
                  break;
          case 1: text.insert(at, 1, kAlphabet[rng.below(sizeof kAlphabet - 1)]); break;
          case 2: text.erase(at, 1 + rng.below(16)); break;
          case 3: text = edit_lines(text, rng); break;
          default: text.resize(at); break;
        }
      }
      SCOPED_TRACE("seed " + std::to_string(s) + " round " + std::to_string(round));
      parses_and_round_trips(text) ? ++parsed : ++rejected;
    }
  }
  // Both outcomes must occur, or the harness is testing nothing.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace serve
