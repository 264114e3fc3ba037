// Round-trip tests for the machine-readable result path: JsonWriter
// primitives, and WriteResultDocument serializing RunManifest + RunResult
// into the versioned document consumed by tools/bench_compare.py. The test
// carries its own tiny recursive-descent JSON parser so the check is a real
// parse of the emitted bytes, not a substring probe. Every serialized key,
// its order and block omission are pinned by tests/data/golden_result.json.
#include "src/harness/result_serializer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/htm/hw_profile.h"

namespace rwle {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null).
// Numbers keep their raw token so integer exactness can be asserted.
// ---------------------------------------------------------------------------
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool bool_value = false;
  std::string raw_number;  // untouched token, e.g. "18446744073709551615"
  std::string string_value;
  std::map<std::string, std::shared_ptr<JsonValue>> members;
  std::vector<std::shared_ptr<JsonValue>> items;

  bool IsNull() const { return type == Type::kNull; }
  double AsDouble() const {
    EXPECT_EQ(type, Type::kNumber);
    return std::strtod(raw_number.c_str(), nullptr);
  }
  std::uint64_t AsUint() const {
    EXPECT_EQ(type, Type::kNumber);
    return std::strtoull(raw_number.c_str(), nullptr, 10);
  }
  std::int64_t AsInt() const {
    EXPECT_EQ(type, Type::kNumber);
    return std::strtoll(raw_number.c_str(), nullptr, 10);
  }
  const std::string& AsString() const {
    EXPECT_EQ(type, Type::kString);
    return string_value;
  }
  bool AsBool() const {
    EXPECT_EQ(type, Type::kBool);
    return bool_value;
  }
  const JsonValue& At(const std::string& key) const {
    EXPECT_EQ(type, Type::kObject);
    auto it = members.find(key);
    EXPECT_TRUE(it != members.end()) << "missing key: " << key;
    static const JsonValue kNullValue;
    return it == members.end() ? kNullValue : *it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Returns nullptr (and sets error_) on malformed input.
  std::shared_ptr<JsonValue> Parse() {
    auto value = ParseValue();
    SkipWhitespace();
    if (value != nullptr && pos_ != text_.size()) {
      Fail("trailing bytes after document");
      return nullptr;
    }
    return error_.empty() ? value : nullptr;
  }

  const std::string& error() const { return error_; }

 private:
  void Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    Fail(std::string("unexpected character '") + c + "'");
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseObject() {
    auto value = std::make_shared<JsonValue>();
    value->type = JsonValue::Type::kObject;
    if (!Consume('{')) {
      Fail("expected '{'");
      return nullptr;
    }
    if (Consume('}')) return value;
    while (true) {
      auto key = ParseString();
      if (key == nullptr) return nullptr;
      if (!Consume(':')) {
        Fail("expected ':'");
        return nullptr;
      }
      auto member = ParseValue();
      if (member == nullptr) return nullptr;
      if (value->members.count(key->string_value) > 0) {
        Fail("duplicate key " + key->string_value);
        return nullptr;
      }
      value->members[key->string_value] = member;
      if (Consume('}')) return value;
      if (!Consume(',')) {
        Fail("expected ',' or '}'");
        return nullptr;
      }
    }
  }

  std::shared_ptr<JsonValue> ParseArray() {
    auto value = std::make_shared<JsonValue>();
    value->type = JsonValue::Type::kArray;
    if (!Consume('[')) {
      Fail("expected '['");
      return nullptr;
    }
    if (Consume(']')) return value;
    while (true) {
      auto item = ParseValue();
      if (item == nullptr) return nullptr;
      value->items.push_back(item);
      if (Consume(']')) return value;
      if (!Consume(',')) {
        Fail("expected ',' or ']'");
        return nullptr;
      }
    }
  }

  std::shared_ptr<JsonValue> ParseString() {
    if (!Consume('"')) {
      Fail("expected '\"'");
      return nullptr;
    }
    auto value = std::make_shared<JsonValue>();
    value->type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c != '\\') {
        value->string_value.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value->string_value.push_back('"'); break;
        case '\\': value->string_value.push_back('\\'); break;
        case '/': value->string_value.push_back('/'); break;
        case 'b': value->string_value.push_back('\b'); break;
        case 'f': value->string_value.push_back('\f'); break;
        case 'n': value->string_value.push_back('\n'); break;
        case 'r': value->string_value.push_back('\r'); break;
        case 't': value->string_value.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return nullptr;
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // The writer only emits \u00XX for control characters.
          value->string_value.push_back(static_cast<char>(code));
          break;
        }
        default:
          Fail("bad escape");
          return nullptr;
      }
    }
    Fail("unterminated string");
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseNumber() {
    auto value = std::make_shared<JsonValue>();
    value->type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    value->raw_number = text_.substr(start, pos_ - start);
    if (value->raw_number.empty()) {
      Fail("empty number");
      return nullptr;
    }
    return value;
  }

  std::shared_ptr<JsonValue> ParseBool() {
    auto value = std::make_shared<JsonValue>();
    value->type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value->bool_value = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value->bool_value = false;
      pos_ += 5;
      return value;
    }
    Fail("bad literal");
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::make_shared<JsonValue>();
    }
    Fail("bad literal");
    return nullptr;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::shared_ptr<JsonValue> ParseOrDie(const std::string& text) {
  JsonParser parser(text);
  auto value = parser.Parse();
  EXPECT_NE(value, nullptr) << parser.error() << "\ndocument:\n" << text;
  return value;
}

// ---------------------------------------------------------------------------
// JsonWriter primitives.
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, EscapesStringsPerRfc8259) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, RoundTripsExtremeValues) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("max_u64", std::uint64_t{18446744073709551615ull});
  json.Field("min_i64", std::int64_t{-9223372036854775807ll - 1});
  json.Field("tricky_double", 0.1);
  json.Field("tiny_double", 5e-324);
  json.Key("nan_becomes_null");
  json.Double(std::numeric_limits<double>::quiet_NaN());
  json.Field("quoted", "a \"b\" c\nnewline");
  json.EndObject();

  auto doc = ParseOrDie(os.str());
  ASSERT_NE(doc, nullptr);
  // Integers above 2^53 must be emitted as integer tokens, not doubles.
  EXPECT_EQ(doc->At("max_u64").raw_number, "18446744073709551615");
  EXPECT_EQ(doc->At("min_i64").AsInt(), std::int64_t{-9223372036854775807ll - 1});
  // %.17g guarantees bit-exact double round trips.
  EXPECT_EQ(doc->At("tricky_double").AsDouble(), 0.1);
  EXPECT_EQ(doc->At("tiny_double").AsDouble(), 5e-324);
  EXPECT_TRUE(doc->At("nan_becomes_null").IsNull());
  EXPECT_EQ(doc->At("quoted").AsString(), "a \"b\" c\nnewline");
}

// ---------------------------------------------------------------------------
// WriteResultDocument round trip.
// ---------------------------------------------------------------------------

RunManifest TestManifest() {
  RunManifest manifest;
  manifest.scenario = "fig3";
  manifest.figure = "Figure 3";
  // Deliberately includes characters that need escaping.
  manifest.title = "Hash map \"high cap\" \\ high contention";
  manifest.panel_label = "% write locks";
  manifest.schemes = {"rwle-opt", "hle", "sgl"};
  manifest.thread_counts = {1, 2, 4};
  manifest.total_ops = 20000;
  manifest.seed = 1234;
  manifest.full_sweep = true;
  manifest.htm_config.max_read_lines = 64;
  manifest.htm_config.max_write_lines = 32;
  manifest.htm_config.yield_access_period = 16;
  // Non-default values on every TM-model axis, so the round trip proves
  // the serializer does not silently emit the defaults.
  manifest.htm_config.subscription = SubscriptionPolicy::kLazy;
  manifest.htm_config.resolution = ResolutionPolicy::kCommitterWins;
  manifest.htm_config.tracked_read_lines = 16;
  manifest.htm_config.tracked_write_lines = 8;
  manifest.hw_profile = "lazy-limited";
  manifest.git_sha = "abc123def456";
  manifest.created_unix = 1754500000;
  return manifest;
}

RunResult TestResult(std::uint32_t threads) {
  RunResult result;
  result.threads = threads;
  result.total_ops = 20000;
  result.wall_seconds = 0.125;
  result.modeled_seconds = 0.0625 / threads;
  result.cost.parallel = 1'000'000'007ull;
  result.cost.writer_serial = 400'000'003ull;
  result.cost.global_serial = 50'000'021ull;
  result.stats.commits[static_cast<int>(CommitPath::kHtm)] = 15000;
  result.stats.commits[static_cast<int>(CommitPath::kRot)] = 2500;
  result.stats.commits[static_cast<int>(CommitPath::kSerial)] = 500;
  result.stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)] = 2000;
  result.stats.aborts[static_cast<int>(AbortCategory::kHtmTxConflict)] = 700;
  result.stats.aborts[static_cast<int>(AbortCategory::kHtmNonTx)] = 60;
  result.stats.aborts[static_cast<int>(AbortCategory::kHtmCapacity)] = 50;
  result.stats.aborts[static_cast<int>(AbortCategory::kLockAborts)] = 40;
  result.stats.aborts[static_cast<int>(AbortCategory::kRotConflict)] = 30;
  result.stats.aborts[static_cast<int>(AbortCategory::kRotCapacity)] = 20;
  return result;
}

TEST(ResultSerializerTest, ManifestRoundTrips) {
  std::ostringstream os;
  WriteResultDocument(os, {ScenarioRecord{TestManifest(), {}}});

  auto doc = ParseOrDie(os.str());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->At("format_version").AsUint(), 1u);
  EXPECT_EQ(doc->At("generator").AsString(), "rwle_bench");
  ASSERT_EQ(doc->At("scenarios").items.size(), 1u);

  const JsonValue& manifest = doc->At("scenarios").items[0]->At("manifest");
  EXPECT_EQ(manifest.At("scenario").AsString(), "fig3");
  EXPECT_EQ(manifest.At("figure").AsString(), "Figure 3");
  EXPECT_EQ(manifest.At("title").AsString(),
            "Hash map \"high cap\" \\ high contention");
  EXPECT_EQ(manifest.At("panel_label").AsString(), "% write locks");
  ASSERT_EQ(manifest.At("schemes").items.size(), 3u);
  EXPECT_EQ(manifest.At("schemes").items[0]->AsString(), "rwle-opt");
  EXPECT_EQ(manifest.At("schemes").items[2]->AsString(), "sgl");
  ASSERT_EQ(manifest.At("thread_counts").items.size(), 3u);
  EXPECT_EQ(manifest.At("thread_counts").items[2]->AsUint(), 4u);
  EXPECT_EQ(manifest.At("total_ops").AsUint(), 20000u);
  EXPECT_EQ(manifest.At("seed").AsUint(), 1234u);
  EXPECT_TRUE(manifest.At("full_sweep").AsBool());
  EXPECT_EQ(manifest.At("htm_config").At("max_read_lines").AsUint(), 64u);
  EXPECT_EQ(manifest.At("htm_config").At("max_write_lines").AsUint(), 32u);
  EXPECT_EQ(manifest.At("htm_config").At("yield_access_period").AsUint(), 16u);
  EXPECT_EQ(manifest.At("htm_config").At("subscription").AsString(), "lazy");
  EXPECT_EQ(manifest.At("htm_config").At("resolution").AsString(),
            "committer-wins");
  EXPECT_EQ(manifest.At("htm_config").At("tracked_read_lines").AsUint(), 16u);
  EXPECT_EQ(manifest.At("htm_config").At("tracked_write_lines").AsUint(), 8u);
  EXPECT_EQ(manifest.At("hw_profile").AsString(), "lazy-limited");
  EXPECT_EQ(manifest.At("git_sha").AsString(), "abc123def456");
  EXPECT_EQ(manifest.At("created_unix").AsInt(), 1754500000);
  EXPECT_EQ(doc->At("scenarios").items[0]->At("results").items.size(), 0u);
}

TEST(ResultSerializerTest, RunResultRoundTrips) {
  ScenarioRecord record{TestManifest(), {}};
  record.entries.push_back({"rwle-opt", 10.0, TestResult(2)});
  record.entries.push_back({"hle", 90.0, TestResult(4)});

  std::ostringstream os;
  WriteResultDocument(os, {record});
  auto doc = ParseOrDie(os.str());
  ASSERT_NE(doc, nullptr);

  const JsonValue& results = doc->At("scenarios").items[0]->At("results");
  ASSERT_EQ(results.items.size(), 2u);

  const JsonValue& first = *results.items[0];
  const RunResult expected = TestResult(2);
  EXPECT_EQ(first.At("scheme").AsString(), "rwle-opt");
  EXPECT_EQ(first.At("panel_value").AsDouble(), 10.0);
  EXPECT_EQ(first.At("threads").AsUint(), 2u);
  EXPECT_EQ(first.At("total_ops").AsUint(), 20000u);
  EXPECT_EQ(first.At("wall_seconds").AsDouble(), expected.wall_seconds);
  EXPECT_EQ(first.At("modeled_seconds").AsDouble(), expected.modeled_seconds);
  EXPECT_EQ(first.At("modeled_throughput_ops").AsDouble(),
            expected.ModeledThroughput());
  EXPECT_EQ(first.At("cost").At("parallel").AsUint(), 1'000'000'007ull);
  EXPECT_EQ(first.At("cost").At("writer_serial").AsUint(), 400'000'003ull);
  EXPECT_EQ(first.At("cost").At("global_serial").AsUint(), 50'000'021ull);

  const JsonValue& second = *results.items[1];
  EXPECT_EQ(second.At("scheme").AsString(), "hle");
  EXPECT_EQ(second.At("panel_value").AsDouble(), 90.0);
  EXPECT_EQ(second.At("threads").AsUint(), 4u);
}

// The full --hw profile table survives the manifest's htm_config mirror, so
// a matrix JSON is self-describing.
TEST(ResultSerializerTest, EveryHwProfileRoundTripsThroughManifest) {
  for (const HwProfile& profile : AllHwProfiles()) {
    SCOPED_TRACE(profile.name);
    RunManifest manifest = TestManifest();
    manifest.hw_profile = profile.name;
    manifest.htm_config = profile.config;

    std::ostringstream os;
    WriteResultDocument(os, {ScenarioRecord{manifest, {}}});
    auto doc = ParseOrDie(os.str());
    ASSERT_NE(doc, nullptr);

    const JsonValue& out = doc->At("scenarios").items[0]->At("manifest");
    EXPECT_EQ(out.At("hw_profile").AsString(), profile.name);
    const JsonValue& config = out.At("htm_config");
    EXPECT_EQ(config.At("subscription").AsString(),
              profile.config.subscription == SubscriptionPolicy::kLazy
                  ? "lazy"
                  : "eager");
    EXPECT_EQ(config.At("resolution").AsString(),
              profile.config.resolution == ResolutionPolicy::kCommitterWins
                  ? "committer-wins"
                  : "requester-wins");
    EXPECT_EQ(config.At("tracked_read_lines").AsUint(),
              profile.config.tracked_read_lines);
    EXPECT_EQ(config.At("tracked_write_lines").AsUint(),
              profile.config.tracked_write_lines);
    EXPECT_EQ(config.At("max_read_lines").AsUint(),
              profile.config.max_read_lines);
    EXPECT_EQ(config.At("max_write_lines").AsUint(),
              profile.config.max_write_lines);
  }
}

// ---------------------------------------------------------------------------
// The serialized schema, against the checked-in golden file: every key, its
// order, and which blocks are omitted. Entry 0 populates every counter
// family and every optional block with distinct values; entry 1 records only
// commits and aborts, so the golden also pins the omission rules.
//
// To regenerate after an intentional schema change:
//   RWLE_REGEN_GOLDEN=1 build/tests/json_result_test
// ---------------------------------------------------------------------------

RunResult GoldenFullResult() {
  RunResult result = TestResult(2);
  for (int i = 0; i < kBravoCounterCount; ++i) {
    result.stats.bravo[i] = 301 + i;
  }
  for (int i = 0; i < kChopCounterCount; ++i) {
    result.stats.chop[i] = 401 + i;
  }
  for (int op = 0; op < kOpKindCount; ++op) {
    LatencyStats& stats = result.latency.op[op];
    stats.count = 1000 + op;
    stats.mean = 210.5 + op;
    stats.p50 = 500 + op;
    stats.p90 = 600 + op;
    stats.p99 = 700 + op;
    stats.p999 = 800 + op;
    stats.max = 900 + op;
  }
  result.latency.by_path[static_cast<int>(OpKind::kRead)]
                        [static_cast<int>(CommitPath::kUninstrumentedRead)] =
      result.latency.op[static_cast<int>(OpKind::kRead)];
  result.latency.by_path[static_cast<int>(OpKind::kWrite)]
                        [static_cast<int>(CommitPath::kHtm)] =
      result.latency.op[static_cast<int>(OpKind::kWrite)];
  ServiceSnapshot& service = result.service;
  service.offered_rate_ops = 2.5e6;
  service.achieved_rate_ops = 2.4e6;
  service.arrivals = 20001;
  service.completions = 20002;
  service.horizon_seconds = 0.008;
  service.sojourn_mean_ns = 310.25;
  service.sojourn_p50_ns = 220;
  service.sojourn_p90_ns = 540;
  service.sojourn_p99_ns = 1400;
  service.sojourn_p999_ns = 2300;
  service.sojourn_max_ns = 9001;
  service.queue_delay_mean_ns = 42.5;
  service.queue_delay_max_ns = 7777;
  service.slo_p99_ns = 50000;
  service.slo_p999_ns = 200000;
  service.slo_met = true;
  result.portability.hw_profile = "limited-k";
  result.portability.torn_observed = 17;
  result.portability.torn_committed = 4;
  return result;
}

TEST(ResultSerializerTest, MatchesGoldenFile) {
  ScenarioRecord record{TestManifest(), {}};
  record.entries.push_back({"rwle+bravo", 10.0, GoldenFullResult()});
  record.entries.push_back({"sgl", 90.0, TestResult(4)});
  std::ostringstream os;
  WriteResultDocument(os, {record});
  const std::string actual = os.str();
  ASSERT_NE(ParseOrDie(actual), nullptr);

  const std::string path = std::string(RWLE_TEST_DATA_DIR) + "/golden_result.json";
  if (std::getenv("RWLE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path
                            << " (run with RWLE_REGEN_GOLDEN=1 to create)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "serialized schema diverged from the golden file; regenerate with "
         "RWLE_REGEN_GOLDEN=1 build/tests/json_result_test if intentional";
}

TEST(ResultSerializerTest, MultipleScenariosKeepOrder) {
  RunManifest manifest_a = TestManifest();
  manifest_a.scenario = "fig3";
  RunManifest manifest_b = TestManifest();
  manifest_b.scenario = "fig9";
  ScenarioRecord record_a{manifest_a, {}};
  record_a.entries.push_back({"sgl", 1.0, TestResult(1)});

  std::ostringstream os;
  WriteResultDocument(os, {record_a, ScenarioRecord{manifest_b, {}}});
  auto doc = ParseOrDie(os.str());
  ASSERT_NE(doc, nullptr);
  ASSERT_EQ(doc->At("scenarios").items.size(), 2u);
  EXPECT_EQ(doc->At("scenarios").items[0]->At("manifest").At("scenario").AsString(),
            "fig3");
  EXPECT_EQ(doc->At("scenarios").items[1]->At("manifest").At("scenario").AsString(),
            "fig9");
  EXPECT_EQ(doc->At("scenarios").items[1]->At("results").items.size(), 0u);
}

TEST(ResultSerializerTest, BuildMetadataHelpers) {
  // The compiled-in SHA is either "unknown" (no checkout at configure time)
  // or a hex string; both are non-empty.
  EXPECT_FALSE(BuildGitSha().empty());
  EXPECT_GT(NowUnixSeconds(), 1'600'000'000);  // after Sep 2020
}

}  // namespace
}  // namespace rwle
