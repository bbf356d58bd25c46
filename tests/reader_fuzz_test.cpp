// Seeded corruption fuzzing for the servescope CLI's shared reader.
//
// Every analysis subcommand reads files it did not write, so the reader
// holds a hard contract on hostile bytes: each input either parses into a
// document of the requested schema or throws scope::InputError with a
// message — never another exception type, never a crash — and whatever
// parses can be fed to the reader's extractors (histograms, capacity stats,
// sparklines) without tripping them. Mutations are byte flips, truncations,
// structural-character insertions and deletions from a deterministic
// xorshift stream, so a failure ("seed X round N") replays exactly; the CI
// sanitizer job runs this under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../tools/reader.h"
#include "servescope_fixtures.h"

namespace scope {
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

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {fixtures::kTelemetry, fixtures::kDegenerate,
                                                   fixtures::kTrace, fixtures::kBenchmark};
  return kCorpus;
}

/// Runs every extractor a subcommand would run on a parsed document.
void exercise(const Value& doc) {
  if (const Value* instruments = doc.find("instruments")) {
    for (const Value& ins : instruments->array) {
      const Histogram h = histogram_of(ins);
      for (const double q : {0.0, 0.5, 0.99, 1.0}) (void)quantile(h, q);
      (void)attainment(h, 0.25);
    }
  }
  if (const auto cap = capacity_of(doc)) {
    for (const CapResource& r : cap->resources) {
      (void)sparkline(r.busy, 4);
      (void)sparkline(r.busy, 64, true);
    }
  }
  if (const Value* series = doc.find("series")) {
    if (const Value* points = series->find("points")) {
      for (const Value& p : points->array) (void)sparkline(numbers_of(p, "samples"), 3);
    }
  }
}

/// Parses `text` under every schema; returns how many schemas accepted it.
/// Any exception other than InputError propagates and fails the test.
int parse_or_input_error(const std::string& text) {
  int accepted = 0;
  for (const Schema schema : {Schema::kTelemetry, Schema::kChromeTrace, Schema::kBenchmark}) {
    try {
      exercise(parse_document(text, schema));
      ++accepted;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()), "");
    }
  }
  return accepted;
}

TEST(ReaderFuzz, SeedCorpusParses) {
  for (const auto& seed : corpus()) EXPECT_GE(parse_or_input_error(seed), 1) << seed;
}

TEST(ReaderFuzz, MutationsEitherParseOrThrowInputError) {
  static constexpr char kStructural[] = "{}[],:\"\\-0123456789.eE tnfu";
  XorShift rng{0x5eed5eed5eed5eedULL};
  int parsed = 0, rejected = 0;
  for (const auto& seed : corpus()) {
    for (int round = 0; round < 400; ++round) {
      std::string text = seed;
      const int edits = 1 + static_cast<int>(rng.below(6));
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.below(text.size());
        switch (rng.below(4)) {
          case 0: text[at] = static_cast<char>(text[at] ^ static_cast<int>(1 + rng.below(255)));
                  break;
          case 1: text.insert(at, 1, kStructural[rng.below(sizeof kStructural - 1)]); break;
          case 2: text.erase(at, 1 + rng.below(16)); break;
          default: text.resize(at); break;
        }
      }
      SCOPED_TRACE("seed " + seed.substr(0, 40) + " round " + std::to_string(round));
      parse_or_input_error(text) > 0 ? ++parsed : ++rejected;
    }
  }
  // Both outcomes must occur, or the harness is testing nothing.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReaderFuzz, HostileValuesInValidDocuments) {
  // Well-formed JSON with values no exporter writes: huge, negative and
  // overflowing numbers, wrong types, non-monotone buckets.
  const std::vector<std::string> hostile = {
      fixtures::with(fixtures::kTelemetry, "\"count\": 10", "\"count\": -1e308"),
      fixtures::with(fixtures::kTelemetry, "\"count\": 10", "\"count\": 1e999"),
      fixtures::with(fixtures::kTelemetry, "[{\"le\": 0.002, \"count\": 10}]",
                     "[{\"le\": 1e308, \"count\": 9}, {\"le\": -1e308, \"count\": 1}]"),
      fixtures::with(fixtures::kTelemetry, "[0.2, 0.95, 0.5]", "[1e308, -1e308, 1e999]"),
      fixtures::with(fixtures::kTelemetry, "[0.2, 0.95, 0.5]", "[{}, \"x\", null]"),
      fixtures::with(fixtures::kTelemetry, "\"samples\": [1, 2, 3, 4]",
                     "\"samples\": [-1e308, 1e308, -1e308, 1e308]"),
      fixtures::with(fixtures::kTelemetry, "\"resources\": [", "\"resources\": [7, "),
  };
  for (const auto& doc : hostile) EXPECT_EQ(parse_or_input_error(doc), 2) << doc;
}

TEST(TelemetryReader, NestingDepthIsCapped) {
  // At the cap the document parses; one level deeper is an error, and two
  // million levels is an error rather than a stack overflow.
  const int cap = jsonmini::Parser::kMaxDepth;
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(jsonmini::Parser{nested(cap)}.parse().has_value());
  const std::string deeper = nested(cap + 1);  // the parser keeps a view
  jsonmini::Parser too_deep{deeper};
  EXPECT_FALSE(too_deep.parse().has_value());
  EXPECT_NE(too_deep.error().find("nesting"), std::string::npos) << too_deep.error();
  EXPECT_THROW((void)parse_document(std::string(2'000'000, '['), Schema::kTelemetry), InputError);
}

TEST(TelemetryReader, NonJsonNumbersAreRejected) {
  for (const char* text : {"nan", "-inf", "infinity", "0x10", "+1", ".5", "[1, nan]"}) {
    EXPECT_FALSE(jsonmini::Parser{std::string(text)}.parse().has_value()) << text;
  }
  for (const char* text : {"0", "-1.5e-3", "1E+2", "1e9999"}) {
    EXPECT_TRUE(jsonmini::Parser{std::string(text)}.parse().has_value()) << text;
  }
}

TEST(TelemetryReader, NumericOptionsMustBeWholeFiniteNumbers) {
  for (const char* bad : {"", "abc", "0.25ms", "64x", " 1", "nan", "inf", "1e999"}) {
    EXPECT_THROW((void)parse_number("--x", bad), InputError) << '"' << bad << '"';
  }
  EXPECT_DOUBLE_EQ(parse_number("--x", "0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_number("--x", "-3e-2"), -0.03);
}

TEST(TelemetryReader, QuantilesStayWithinObservedRange) {
  // One bucket (le 2 ms) holding every observation, min 1.0 ms, max 1.2 ms.
  const Histogram h{10, 0.011, 0.001, 0.0012, {{0.002, 10}}};
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_GE(quantile(h, q), h.min) << q;
    EXPECT_LE(quantile(h, q), h.max) << q;
  }
  EXPECT_EQ(quantile(Histogram{}, 0.99), 0.0);  // empty histogram contract
  EXPECT_DOUBLE_EQ(attainment(h, 0.002), 1.0);
}

TEST(ReaderFuzz, MutationStreamIsDeterministic) {
  XorShift a{42}, b{42};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace scope
