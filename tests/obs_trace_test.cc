// Tests for the query-lifecycle tracing layer: collector semantics,
// QueryTraceBuilder batching, engine integration, and — the acceptance bar —
// strict validation that the exported Chrome trace_event JSON parses and
// carries one top-level span per (query, policy) run with the hold/fold
// outcome and inclusion fraction as span args. The JSON check uses a small
// strict recursive-descent parser defined below, not substring matching.

#include "src/obs/trace.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/analytics_service.h"
#include "src/apps/search_service.h"
#include "src/cluster/experiment.h"
#include "src/common/csv.h"
#include "src/core/policies.h"
#include "src/obs/query_trace.h"
#include "src/sim/experiment.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"
#include "src/sim/workload.h"

namespace cedar {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser (objects, arrays, strings, numbers, literals).
// Rejects trailing garbage, unterminated structures, and bad escapes, so a
// malformed writer cannot sneak past the tests.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing JSON key: " << key;
    static const JsonValue kNullValue;
    return it != object.end() ? it->second : kNullValue;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the full input; sets ok() false on any syntax error.
  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON value");
    }
    return value;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  void Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      error_ = message + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    Fail(std::string("expected '") + expected + "'");
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    if (!ok_ || pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return {};
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return ParseNumber();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = true;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return {};
    }
    Fail("unexpected character");
    return {};
  }

  JsonValue ParseObject() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    Consume('{');
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (ok_) {
      JsonValue key = ParseString();
      Consume(':');
      value.object[key.string] = ParseValue();
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        SkipWhitespace();
        continue;
      }
      Consume('}');
      break;
    }
    return value;
  }

  JsonValue ParseArray() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    Consume('[');
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (ok_) {
      value.array.push_back(ParseValue());
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume(']');
      break;
    }
    return value;
  }

  JsonValue ParseString() {
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected string");
      return value;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          Fail("unterminated escape");
          return value;
        }
        char escape = text_[pos_ + 1];
        pos_ += 2;
        switch (escape) {
          case '"': value.string += '"'; break;
          case '\\': value.string += '\\'; break;
          case '/': value.string += '/'; break;
          case 'n': value.string += '\n'; break;
          case 't': value.string += '\t'; break;
          case 'r': value.string += '\r'; break;
          case 'b': value.string += '\b'; break;
          case 'f': value.string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              Fail("bad \\u escape");
              return value;
            }
            unsigned int code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code += h - '0';
              else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
              else { Fail("bad \\u escape digit"); return value; }
            }
            pos_ += 4;
            // The writer only emits \u00xx for control bytes.
            value.string += static_cast<char>(code & 0xff);
            break;
          }
          default:
            Fail("unknown escape");
            return value;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
        return value;
      } else {
        value.string += c;
        ++pos_;
      }
    }
    if (!Consume('"')) {
      Fail("unterminated string");
    }
    return value;
  }

  JsonValue ParseNumber() {
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      Fail("bad number");
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

JsonValue ParseJsonOrFail(const std::string& text) {
  JsonParser parser(text);
  JsonValue value = parser.Parse();
  EXPECT_TRUE(parser.ok()) << parser.error();
  return value;
}

std::string ChromeJsonString(const TraceCollector& collector) {
  std::ostringstream out;
  collector.WriteChromeJson(out);
  return out.str();
}

// Validates the envelope and per-event schema; returns the traceEvents array.
JsonValue ValidatedTraceEvents(const TraceCollector& collector) {
  JsonValue root = ParseJsonOrFail(ChromeJsonString(collector));
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(root.At("displayTimeUnit").string, "ms");
  const JsonValue events = root.At("traceEvents");
  EXPECT_EQ(events.kind, JsonValue::Kind::kArray);
  for (const JsonValue& event : events.array) {
    EXPECT_EQ(event.kind, JsonValue::Kind::kObject);
    EXPECT_EQ(event.At("name").kind, JsonValue::Kind::kString);
    EXPECT_EQ(event.At("cat").kind, JsonValue::Kind::kString);
    EXPECT_EQ(event.At("ts").kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(event.At("pid").number, 1.0);
    EXPECT_EQ(event.At("tid").kind, JsonValue::Kind::kNumber);
    const std::string& phase = event.At("ph").string;
    EXPECT_TRUE(phase == "X" || phase == "i") << "unexpected phase " << phase;
    if (phase == "X") {
      EXPECT_TRUE(event.Has("dur"));
      EXPECT_GE(event.At("dur").number, 0.0);
    } else {
      EXPECT_EQ(event.At("s").string, "t");
    }
  }
  return events;
}

StationaryWorkload SmallWorkload() {
  return StationaryWorkload(
      "obs-test", "s",
      TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 5,
                         std::make_shared<LogNormalDistribution>(2.0, 0.6), 4));
}

// ---------------------------------------------------------------------------
// Collector semantics.

TEST(TraceCollectorTest, SnapshotSortsByTrackThenTime) {
  TraceCollector collector;
  TraceEvent a;
  a.name = "late";
  a.track = 2;
  a.ts = 5.0;
  TraceEvent b;
  b.name = "early";
  b.track = 2;
  b.ts = 1.0;
  TraceEvent c;
  c.name = "first_track";
  c.track = 1;
  c.ts = 9.0;
  collector.EmitBatch({a, b, c});

  auto events = collector.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "first_track");
  EXPECT_EQ(events[1].name, "early");
  EXPECT_EQ(events[2].name, "late");
}

TEST(TraceCollectorTest, ChromeJsonValidatesStrictly) {
  TraceCollector collector;
  TraceEvent span;
  span.name = "query";
  span.category = "lifecycle";
  span.phase = 'X';
  span.ts = 0.0;
  span.dur = 42.5;
  span.track = 7;
  span.args = {TraceArg::Str("outcome", "hold"), TraceArg::Num("inclusion_fraction", 0.95)};
  TraceEvent instant;
  instant.name = "arrival";
  instant.category = "lifecycle";
  instant.phase = 'i';
  instant.ts = 3.25;
  instant.track = 7;
  collector.EmitBatch({span, instant});

  JsonValue events = ValidatedTraceEvents(collector);
  ASSERT_EQ(events.array.size(), 2u);
  const JsonValue& json_span = events.array[0];
  EXPECT_EQ(json_span.At("name").string, "query");
  EXPECT_EQ(json_span.At("ph").string, "X");
  EXPECT_DOUBLE_EQ(json_span.At("dur").number, 42.5);
  EXPECT_EQ(json_span.At("args").At("outcome").string, "hold");
  EXPECT_DOUBLE_EQ(json_span.At("args").At("inclusion_fraction").number, 0.95);
}

TEST(TraceCollectorTest, JsonEscapingRoundTrips) {
  TraceCollector collector;
  TraceEvent event;
  event.name = "weird \"name\"\twith\nnewline\\backslash";
  event.category = std::string("ctl\x01", 4);
  event.phase = 'i';
  event.track = 1;
  event.args = {TraceArg::Str("key \"quoted\"", "value\\with\tescapes")};
  collector.EmitBatch({event});

  JsonValue events = ValidatedTraceEvents(collector);
  ASSERT_EQ(events.array.size(), 1u);
  EXPECT_EQ(events.array[0].At("name").string, event.name);
  EXPECT_EQ(events.array[0].At("cat").string, event.category);
  EXPECT_EQ(events.array[0].At("args").At("key \"quoted\"").string, "value\\with\tescapes");
}

TEST(TraceCollectorTest, CsvExportListsEveryEvent) {
  TraceCollector collector;
  TraceEvent span;
  span.name = "query";
  span.category = "lifecycle";
  span.phase = 'X';
  span.dur = 10.0;
  span.track = 3;
  span.args = {TraceArg::Num("inclusion_fraction", 1.0)};
  TraceEvent instant;
  instant.name = "arrival";
  instant.category = "lifecycle";
  instant.ts = 2.0;
  instant.track = 3;
  collector.EmitBatch({instant, span});

  std::string path = ::testing::TempDir() + "/cedar_trace.csv";
  collector.WriteCsv(path);
  CsvDocument doc = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_EQ(doc.rows.size(), 2u);
  int name_col = doc.ColumnIndex("name");
  int phase_col = doc.ColumnIndex("phase");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(phase_col, 0);
  // Snapshot sorts by (track, ts): the span (ts 0) precedes the instant.
  EXPECT_EQ(doc.rows[0][static_cast<size_t>(name_col)], "query");
  EXPECT_EQ(doc.rows[0][static_cast<size_t>(phase_col)], "X");
  EXPECT_EQ(doc.rows[1][static_cast<size_t>(name_col)], "arrival");
}

// ---------------------------------------------------------------------------
// QueryTraceBuilder.

TEST(QueryTraceBuilderTest, NullCollectorIsInert) {
  QueryTraceBuilder builder(nullptr, 42, "cedar", "sim");
  EXPECT_FALSE(builder.active());
  builder.RecordInitialWait(0, 0, 5.0);
  builder.RecordSend(0, 0, 5.0, 3, 5, 0.6);
  builder.Finish(10.0, 0.6);  // must not crash
}

TEST(QueryTraceBuilderTest, FoldOutcomeAndOriginShift) {
  TraceCollector collector;
  QueryTraceBuilder builder(&collector, 11, "cedar", "loaded", /*origin=*/100.0);
  ASSERT_TRUE(builder.active());
  builder.RecordInitialWait(0, 0, 4.0);
  builder.RecordArrival(0, 0, 1.5, 1);
  // Timer-driven send with 1 of 5 children: a fold.
  builder.RecordSend(0, 0, 4.0, 1, 5, 0.2);
  builder.RecordRootArrival(6.0, false);
  EXPECT_EQ(builder.folds(), 1);
  EXPECT_EQ(builder.deadline_misses(), 1);
  builder.Finish(8.0, 0.2, {TraceArg::Num("arrival", 100.0)});

  auto events = collector.Snapshot();
  ASSERT_GE(events.size(), 4u);
  // The span leads its track and carries the outcome; all times are shifted
  // by the origin onto the shared timeline.
  const TraceEvent& span = events[0];
  EXPECT_EQ(span.name, "query");
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.track, 11u);
  EXPECT_DOUBLE_EQ(span.ts, 100.0);
  EXPECT_DOUBLE_EQ(span.dur, 8.0);
  std::map<std::string, std::string> args;
  for (const TraceArg& arg : span.args) {
    args[arg.key] = arg.value;
  }
  EXPECT_EQ(args["outcome"], "fold");
  EXPECT_EQ(args["engine"], "loaded");
  EXPECT_EQ(args["policy"], "cedar");
  EXPECT_EQ(args["deadline_misses"], "1");
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.ts, 100.0);
  }
  bool saw_fold_send = false;
  for (const TraceEvent& event : events) {
    if (event.name == "fold_send") {
      saw_fold_send = true;
      EXPECT_DOUBLE_EQ(event.ts, 104.0);
    }
  }
  EXPECT_TRUE(saw_fold_send);
}

TEST(QueryTraceBuilderTest, CompleteAggregationIsAHold) {
  TraceCollector collector;
  QueryTraceBuilder builder(&collector, 1, "ideal", "sim");
  builder.RecordSend(0, 0, 2.0, 5, 5, 1.0);
  EXPECT_EQ(builder.holds(), 1);
  EXPECT_EQ(builder.folds(), 0);
  builder.Finish(5.0, 1.0);
  auto events = collector.Snapshot();
  std::map<std::string, std::string> args;
  for (const TraceArg& arg : events[0].args) {
    args[arg.key] = arg.value;
  }
  EXPECT_EQ(args["outcome"], "hold");
  bool saw_hold_send = false;
  for (const TraceEvent& event : events) {
    saw_hold_send = saw_hold_send || event.name == "hold_send";
  }
  EXPECT_TRUE(saw_hold_send);
}

// ---------------------------------------------------------------------------
// Engine integration: the acceptance-criterion checks.

TEST(ObsTraceIntegrationTest, SimExperimentEmitsOneSpanPerQueryRun) {
  TraceCollector collector;
  StationaryWorkload workload = SmallWorkload();
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;
  ExperimentConfig config;
  config.deadline = 60.0;
  config.num_queries = 4;
  config.seed = 13;
  config.threads = 1;
  SetActiveTraceCollector(&collector);
  RunExperiment(workload, {&prop_split, &cedar}, config);
  SetActiveTraceCollector(nullptr);

  JsonValue events = ValidatedTraceEvents(collector);
  ASSERT_FALSE(events.array.empty());

  int spans = 0;
  std::set<uint64_t> tracks;
  std::set<std::string> policies;
  for (const JsonValue& event : events.array) {
    tracks.insert(static_cast<uint64_t>(event.At("tid").number));
    if (event.At("name").string != "query") {
      continue;
    }
    ++spans;
    EXPECT_EQ(event.At("ph").string, "X");
    const JsonValue& args = event.At("args");
    EXPECT_EQ(args.At("engine").string, "sim");
    policies.insert(args.At("policy").string);
    double quality = args.At("inclusion_fraction").number;
    EXPECT_GE(quality, 0.0);
    EXPECT_LE(quality, 1.0);
    const std::string& outcome = args.At("outcome").string;
    EXPECT_TRUE(outcome == "hold" || outcome == "fold") << outcome;
  }
  // One top-level span per (query, policy) run; one track per query.
  EXPECT_EQ(spans, 4 * 2);
  EXPECT_EQ(tracks.size(), 4u);
  EXPECT_EQ(policies, (std::set<std::string>{"prop-split", "cedar"}));
  for (int q = 0; q < 4; ++q) {
    EXPECT_TRUE(tracks.count(DriverQuerySequence(config.seed, q)))
        << "missing track for query " << q;
  }
}

TEST(ObsTraceIntegrationTest, LifecycleEventsAccompanyEachSpan) {
  TraceCollector collector;
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  ExperimentConfig config;
  config.deadline = 60.0;
  config.num_queries = 2;
  config.seed = 3;
  config.threads = 1;
  SetActiveTraceCollector(&collector);
  RunExperiment(workload, {&cedar}, config);
  SetActiveTraceCollector(nullptr);

  std::map<uint64_t, std::set<std::string>> names_by_track;
  for (const TraceEvent& event : collector.Snapshot()) {
    names_by_track[event.track].insert(event.name);
  }
  ASSERT_EQ(names_by_track.size(), 2u);
  for (const auto& [track, names] : names_by_track) {
    EXPECT_TRUE(names.count("query")) << "track " << track;
    EXPECT_TRUE(names.count("tier_plan")) << "track " << track;
    EXPECT_TRUE(names.count("initial_wait")) << "track " << track;
    EXPECT_TRUE(names.count("arrival")) << "track " << track;
    EXPECT_TRUE(names.count("hold_send") || names.count("fold_send")) << "track " << track;
    EXPECT_TRUE(names.count("root_arrival") || names.count("deadline_miss"))
        << "track " << track;
  }
}

TEST(ObsTraceIntegrationTest, DecisionEventsCoverEveryAggregator) {
  // The trace is the decision record: one initial wait per aggregator per
  // query, and each re-arm next to the arrival that triggered it.
  TraceCollector collector;
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  ExperimentConfig config;
  config.deadline = 60.0;
  config.num_queries = 3;
  config.seed = 5;
  config.threads = 1;
  SetActiveTraceCollector(&collector);
  RunExperiment(workload, {&cedar}, config);
  SetActiveTraceCollector(nullptr);

  auto arg = [](const TraceEvent& event, const std::string& key) {
    for (const TraceArg& a : event.args) {
      if (a.key == key) {
        return a.value;
      }
    }
    ADD_FAILURE() << event.name << " has no arg " << key;
    return std::string();
  };
  using Aggregator = std::tuple<uint64_t, std::string, std::string>;  // track, tier, index
  std::map<Aggregator, int> initial_waits;
  std::map<Aggregator, const TraceEvent*> last_event;
  std::vector<TraceEvent> events = collector.Snapshot();
  int updates = 0;
  for (const TraceEvent& event : events) {
    if (event.name != "initial_wait" && event.name != "arrival" && event.name != "wait_update") {
      continue;
    }
    const Aggregator aggregator{event.track, arg(event, "tier"), arg(event, "aggregator")};
    if (event.name == "initial_wait") {
      ++initial_waits[aggregator];
      EXPECT_EQ(arg(event, "tier"), "0");
      EXPECT_GE(std::stod(arg(event, "wait")), 0.0);
    } else if (event.name == "wait_update") {
      ++updates;
      const TraceEvent* previous = last_event[aggregator];
      ASSERT_NE(previous, nullptr) << "wait_update before any event at track " << event.track;
      EXPECT_EQ(previous->name, "arrival") << "track " << event.track;
      EXPECT_EQ(previous->ts, event.ts) << "track " << event.track;
    }
    last_event[aggregator] = &event;
  }
  // 3 queries x 4 tier-0 aggregators, one initial wait each.
  EXPECT_EQ(initial_waits.size(), 12u);
  for (const auto& [aggregator, count] : initial_waits) {
    EXPECT_EQ(count, 1) << "track " << std::get<0>(aggregator);
  }
  EXPECT_GT(updates, 0) << "Cedar never re-armed a timer";
}

TEST(ObsTraceIntegrationTest, TracesOnlyWhileCollectorInstalled) {
  TraceCollector collector;
  SetActiveTraceCollector(&collector);
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  ExperimentConfig config;
  config.deadline = 60.0;
  config.num_queries = 2;
  config.seed = 21;
  config.threads = 1;
  RunExperiment(workload, {&cedar}, config);
  SetActiveTraceCollector(nullptr);

  EXPECT_GT(collector.size(), 0u);
  size_t after = collector.size();
  // With the global uninstalled, runs no longer trace.
  RunExperiment(workload, {&cedar}, config);
  EXPECT_EQ(collector.size(), after);
}

TEST(ObsTraceIntegrationTest, ThreadedRunProducesIdenticalCanonicalTrace) {
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  auto run = [&](int threads) {
    TraceCollector collector;
    ExperimentConfig config;
    config.deadline = 60.0;
    config.num_queries = 8;
    config.seed = 29;
    config.threads = threads;
    SetActiveTraceCollector(&collector);
    RunExperiment(workload, {&cedar}, config);
    SetActiveTraceCollector(nullptr);
    return ChromeJsonString(collector);
  };
  std::string serial = run(1);
  std::string parallel = run(4);
  // Snapshot() canonicalizes by (track, ts), so the exported JSON is
  // byte-identical regardless of worker interleaving.
  EXPECT_EQ(serial, parallel);
  ParseJsonOrFail(serial);
}

TEST(ObsTraceIntegrationTest, ClusterEngineEmitsSpans) {
  TraceCollector collector;
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  ClusterExperimentConfig config;
  config.deadline = 60.0;
  config.num_queries = 2;
  config.seed = 17;
  config.threads = 1;
  config.cluster.machines = 4;
  config.cluster.slots_per_machine = 2;
  SetActiveTraceCollector(&collector);
  RunClusterExperiment(workload, {&cedar}, config);
  SetActiveTraceCollector(nullptr);

  JsonValue events = ValidatedTraceEvents(collector);
  int spans = 0;
  for (const JsonValue& event : events.array) {
    if (event.At("name").string != "query") {
      continue;
    }
    ++spans;
    const JsonValue& args = event.At("args");
    EXPECT_EQ(args.At("engine").string, "cluster");
    EXPECT_GE(args.At("inclusion_fraction").number, 0.0);
    EXPECT_LE(args.At("inclusion_fraction").number, 1.0);
    EXPECT_TRUE(args.Has("waves"));
  }
  EXPECT_EQ(spans, 2);
}

TEST(ObsTraceIntegrationTest, AppsTraceLikeTheEngines) {
  // A 6 x 4 latency tree over 24 shards / partitions; the search query runs
  // as sequence 1, the analytics query as sequence 2.
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.5, 0.8), 6,
                                     std::make_shared<LogNormalDistribution>(2.0, 0.6), 4);
  auto realization = [&](uint64_t sequence) {
    QueryTruth truth;
    truth.sequence = sequence;
    truth.stage_durations = {tree.stage(0).duration, tree.stage(1).duration};
    Rng rng(sequence);
    return SampleRealization(tree, truth, rng);
  };
  CorpusSpec corpus;
  corpus.num_documents = 1000;
  corpus.vocabulary_size = 200;
  SearchIndex index(corpus, 24);
  SearchServiceConfig search_config;
  search_config.deadline = 40.0;
  SearchService search(&index, tree, search_config);
  FactTableSpec table_spec;
  table_spec.rows = 4800;
  table_spec.num_groups = 4;
  table_spec.num_partitions = 24;
  FactTable table(table_spec);
  AnalyticsServiceConfig analytics_config;
  analytics_config.deadline = 40.0;
  AnalyticsService analytics(&table, tree, analytics_config);

  TraceCollector collector;
  SetActiveTraceCollector(&collector);
  CedarPolicy cedar;
  Rng query_rng(5);
  search.RunQuery(cedar, index.SampleQuery(3, query_rng), realization(1));
  analytics.RunQuery(cedar, realization(2));
  SetActiveTraceCollector(nullptr);

  std::map<uint64_t, std::multiset<std::string>> names_by_track;
  for (const TraceEvent& event : collector.Snapshot()) {
    names_by_track[event.track].insert(event.name);
  }
  ASSERT_EQ(names_by_track.size(), 2u);
  for (uint64_t track : {1u, 2u}) {
    const std::multiset<std::string>& names = names_by_track[track];
    EXPECT_EQ(names.count("query"), 1u) << "track " << track;
    EXPECT_EQ(names.count("hold_send") + names.count("fold_send"), 4u) << "track " << track;
  }

  JsonValue events = ValidatedTraceEvents(collector);
  std::map<std::string, std::string> engine_extra = {{"search", "recall"},
                                                     {"analytics", "mean_relative_error"}};
  std::set<std::string> engines;
  for (const JsonValue& event : events.array) {
    if (event.At("name").string != "query") {
      continue;
    }
    const JsonValue& args = event.At("args");
    const std::string& engine = args.At("engine").string;
    engines.insert(engine);
    EXPECT_EQ(args.At("policy").string, "cedar");
    ASSERT_TRUE(engine_extra.count(engine)) << engine;
    EXPECT_TRUE(args.Has(engine_extra[engine])) << engine;
  }
  EXPECT_EQ(engines, (std::set<std::string>{"search", "analytics"}));
}

}  // namespace
}  // namespace cedar
