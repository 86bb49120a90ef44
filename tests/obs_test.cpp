// Observability layer: JsonWriter structure/escaping, metrics registry
// semantics and thread-safety (run under TSan in CI), end-to-end trace-file
// schema validation against the Chrome trace-event format, and the
// disabled-path overhead smoke test the acceptance criteria require.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip_sim.hpp"
#include "arch/placement.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/rng.hpp"
#include "mapping/planner.hpp"
#include "obs/obs.hpp"
#include "pipeline/sim.hpp"
#include "tensor/ops.hpp"
#include "workload/model_zoo.hpp"
#include "oracle.hpp"

namespace reramdl {
namespace {

// ---- Minimal JSON parser ----------------------------------------------------
// Independent of JsonWriter so the schema tests actually validate the emitted
// bytes instead of trusting the writer's own bookkeeping.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool has(const std::string& k) const { return obj.count(k) > 0; }
  const JsonValue& at(const std::string& k) const { return obj.at(k); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  JsonValue parse() {
    const JsonValue v = parse_value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes after JSON document";
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  void expect(char c) {
    EXPECT_EQ(peek(), c) << "at byte " << pos_;
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.b = s_[pos_] == 't';
        pos_ += v.b ? 4 : 5;
        return v;
      }
      case 'n': {
        pos_ += 4;
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      v.obj[key] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Only \u00xx control escapes are emitted by JsonWriter.
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: c = e;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string("+-.eE").find(s_[pos_]) != std::string::npos))
      ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// RAII guard: every test leaves the global obs switches as it found them
// (off — ctest does not set the env vars).
struct ObsGuard {
  ~ObsGuard() {
    obs::set_trace_path("");
    obs::set_metrics_enabled(false);
    obs::set_metrics_path("");
    obs::reset_trace();
    obs::Registry::instance().reset();
    obs::Attribution::instance().reset();
    obs::Snapshotter::instance().reset();
    parallel::set_thread_count(0);
  }
};

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, EmitsNestedStructureWithCommas) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("a", 1);
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.begin_object();
  w.kv("x", std::uint64_t{7});
  w.end_object();
  w.end_array();
  w.kv("s", "hi");
  w.end_object();
  w.finish();
  EXPECT_EQ(os.str(),
            "{\"a\": 1, \"list\": [1.5, true, null, {\"x\": 7}], "
            "\"s\": \"hi\"}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::JsonWriter::escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(JsonWriter, RoundTripsThroughParser) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "he said \"hi\"\n");
  w.kv("pi", 3.14159);
  w.kv("neg", -2);
  w.key("empty");
  w.begin_array();
  w.end_array();
  w.end_object();
  w.finish();

  const std::string text = os.str();
  JsonParser p(text);
  const JsonValue v = p.parse();
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.at("name").str, "he said \"hi\"\n");
  EXPECT_DOUBLE_EQ(v.at("pi").num, 3.14159);
  EXPECT_DOUBLE_EQ(v.at("neg").num, -2.0);
  EXPECT_TRUE(v.at("empty").arr.empty());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  w.begin_array();
  w.value(std::nan(""));
  w.end_array();
  w.finish();
  EXPECT_EQ(os.str(), "[null]");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  obs::JsonWriter w(os, false);
  w.begin_object();
  EXPECT_THROW(w.value(1), CheckError);       // value without key
  EXPECT_THROW(w.end_array(), CheckError);    // mismatched close
}

// ---- Metrics registry -------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  ObsGuard guard;
  auto& reg = obs::Registry::instance();
  reg.reset();

  obs::Counter& c = reg.counter("t.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&c, &reg.counter("t.counter"));  // stable handles

  obs::Gauge& g = reg.gauge("t.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Histogram& h = reg.histogram("t.hist");
  EXPECT_TRUE(std::isnan(h.min()));  // empty: NaN, never a stale zero
  EXPECT_TRUE(std::isnan(h.max()));
  h.record(0.5);
  h.record(3.0);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1003.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log2 buckets: 0.5 -> [0,1), 3 -> [2,4), 1000 -> [512,1024).
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(0.5)), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper_bound(10), 1024.0);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, RegistryJsonIsValid) {
  ObsGuard guard;
  auto& reg = obs::Registry::instance();
  reg.reset();
  reg.counter("json.counter").add(3);
  reg.gauge("json.gauge").set(1.25);
  reg.histogram("json.hist").record(42.0);

  std::ostringstream os;
  reg.write_json(os);
  JsonParser p(os.str());
  const JsonValue v = p.parse();
  EXPECT_EQ(v.at("kind").str, "reramdl_metrics");
  EXPECT_DOUBLE_EQ(v.at("counters").at("json.counter").num, 3.0);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("json.gauge").num, 1.25);
  const JsonValue& h = v.at("histograms").at("json.hist");
  EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
  ASSERT_EQ(h.at("buckets").arr.size(), 1u);
  EXPECT_DOUBLE_EQ(h.at("buckets").arr[0].at("le").num, 64.0);
}

// Parallel counter/histogram updates from the thread pool; CI runs this
// binary under TSan to prove the registry is race-free.
TEST(Metrics, ConcurrentUpdatesFromThreadPool) {
  ObsGuard guard;
  auto& reg = obs::Registry::instance();
  reg.reset();
  obs::set_metrics_enabled(true);
  parallel::set_thread_count(8);

  constexpr std::size_t kIters = 20000;
  obs::Counter& hits = reg.counter("conc.hits");
  obs::Histogram& vals = reg.histogram("conc.vals");
  parallel::parallel_for(0, kIters, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits.add();
      vals.record(static_cast<double>(i % 1024));
      // Registry lookups race against other threads' lookups too.
      reg.counter("conc.shard" + std::to_string(i % 7)).add();
      reg.gauge("conc.last").set(static_cast<double>(i));
    }
  });

  EXPECT_EQ(hits.value(), kIters);
  EXPECT_EQ(vals.count(), kIters);
  EXPECT_DOUBLE_EQ(vals.min(), 0.0);
  EXPECT_DOUBLE_EQ(vals.max(), 1023.0);
  std::uint64_t shard_total = 0;
  for (int s = 0; s < 7; ++s)
    shard_total += reg.counter("conc.shard" + std::to_string(s)).value();
  EXPECT_EQ(shard_total, kIters);
}

// ---- Histogram quantiles ----------------------------------------------------

TEST(HistogramQuantile, EmptyIsNaN) {
  obs::Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(HistogramQuantile, SingleValueClampsToObserved) {
  // One occupied bucket: interpolation would report the bucket midpoint, but
  // the clamp to the observed [min, max] recovers the true value.
  obs::Histogram h;
  h.record(5.0);
  h.record(5.0);
  h.record(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);
}

TEST(HistogramQuantile, WalksCumulativeBuckets) {
  // 100 values in bucket [0,1) and 100 in bucket [2,4): q=0.25 stays in the
  // first bucket, q=0.75 lands at the midpoint of the second.
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0.5);
  for (int i = 0; i < 100; ++i) h.record(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.5);  // interp 0.5 == true value
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 3.0);  // 2 + 0.5 * (4 - 2)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);   // clamps to max
}

TEST(HistogramQuantile, InterpolatesWithinBucket) {
  // Both samples share bucket [512, 1024); the median interpolates halfway
  // through the bucket (mass assumed uniform) inside the observed range.
  obs::Histogram h;
  h.record(600.0);
  h.record(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 768.0);
}

TEST(HistogramQuantile, PercentilesAreOrderedAndBounded) {
  obs::Histogram h;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0.1, 5000.0));
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
}

// ---- SampleSummary ----------------------------------------------------------

TEST(SampleSummaryTest, EmptyIsNaN) {
  obs::SampleSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
}

TEST(SampleSummaryTest, SingleSampleCollapsesEveryStatistic) {
  obs::SampleSummary s;
  s.add(7.25);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), 7.25);
  EXPECT_DOUBLE_EQ(s.max(), 7.25);
  EXPECT_DOUBLE_EQ(s.mean(), 7.25);
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(s.quantile(q), 7.25) << "q=" << q;
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 7.25);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 7.25);
}

TEST(SampleSummaryTest, ExactNearestRankQuantiles) {
  obs::SampleSummary s;
  for (int v = 10; v >= 1; --v) s.add(v);  // insertion order is irrelevant
  EXPECT_EQ(s.count(), 10u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);   // rank ceil(5) -> 5th sample
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 9.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 10.0);  // rank ceil(9.9) -> 10th
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSummaryTest, JsonCarriesPercentiles) {
  obs::SampleSummary s;
  s.add(2.0);
  s.add(8.0);
  std::ostringstream os;
  obs::JsonWriter w(os);
  s.write_json(w);
  w.finish();
  JsonParser p(os.str());
  const JsonValue v = p.parse();
  EXPECT_DOUBLE_EQ(v.at("count").num, 2.0);
  EXPECT_DOUBLE_EQ(v.at("min").num, 2.0);
  EXPECT_DOUBLE_EQ(v.at("mean").num, 5.0);
  EXPECT_DOUBLE_EQ(v.at("p50").num, 2.0);
  EXPECT_DOUBLE_EQ(v.at("p99").num, 8.0);
}

// ---- Snapshotter ------------------------------------------------------------

TEST(Snapshotter, StrideDoublingCoversWholeRun) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset();
  auto& snaps = obs::Snapshotter::instance();
  snaps.reset();
  snaps.set_capacity(8);

  constexpr std::uint64_t kTicks = 100;
  obs::Counter& steps = reg.counter("snap.steps");
  for (std::uint64_t t = 0; t < kTicks; ++t) {
    steps.add();
    reg.gauge("snap.level").set(static_cast<double>(t));
    obs::snapshot_tick();
  }

  EXPECT_EQ(snaps.ticks(), kTicks);
  EXPECT_LE(snaps.size(), snaps.capacity());
  EXPECT_GT(snaps.size(), 0u);
  // 100 ticks into 8 slots forces stride doubling: 1 -> 2 -> 4 -> 16...
  EXPECT_GE(snaps.stride(), kTicks / 8);

  const auto samples = snaps.samples();
  std::uint64_t prev_tick = 0;
  double prev_count = -1.0;
  bool first = true;
  for (const obs::Snapshot& s : samples) {
    EXPECT_EQ(s.tick % snaps.stride(), 0u) << "off-stride sample retained";
    if (!first) {
      EXPECT_GT(s.tick, prev_tick);
    }
    prev_tick = s.tick;
    first = false;
    double count = -1.0, level = -1.0;
    for (const auto& [name, v] : s.counters)
      if (name == "snap.steps") count = v;
    for (const auto& [name, v] : s.gauges)
      if (name == "snap.level") level = v;
    // Sampled at tick boundary t: the counter has advanced t+1 times.
    ASSERT_GE(count, 0.0);
    EXPECT_DOUBLE_EQ(count, static_cast<double>(s.tick + 1));
    EXPECT_DOUBLE_EQ(level, static_cast<double>(s.tick));
    EXPECT_GT(count, prev_count);  // counters are monotone across samples
    prev_count = count;
  }
  // End-to-end coverage: the newest retained sample is within one stride of
  // the final tick.
  EXPECT_GE(samples.back().tick + snaps.stride(), kTicks - 1);

  snaps.set_capacity(256);  // restore the default for later tests
}

TEST(Snapshotter, DisabledTickIsANoOp) {
  ObsGuard guard;
  obs::set_metrics_enabled(false);
  auto& snaps = obs::Snapshotter::instance();
  snaps.reset();
  obs::snapshot_tick();
  obs::snapshot_wall_tick();
  EXPECT_EQ(snaps.size(), 0u);
  EXPECT_EQ(snaps.ticks(), 0u);
}

// Wall-clock-only mode: a workload with no step notion still gets sampled —
// and the interval rate limit holds between samples.
TEST(Snapshotter, WallClockOnlyModeSamples) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& snaps = obs::Snapshotter::instance();
  snaps.reset();
  const auto saved_ms = snaps.wall_interval_ms();
  snaps.set_wall_interval_ms(1);

  obs::snapshot_wall_tick();  // first tick after reset always fires
  EXPECT_EQ(snaps.size(), 1u);
  obs::snapshot_wall_tick();  // within the interval: suppressed
  EXPECT_EQ(snaps.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  obs::snapshot_wall_tick();  // interval elapsed: fires again
  EXPECT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps.ticks(), 2u);

  snaps.set_wall_interval_ms(saved_ms);
}

// Step ticks refresh the activity stamp, so an immediately following wall
// tick inside the interval must not double-sample.
TEST(Snapshotter, WallTickSuppressedWhileStepTicksFlow) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& snaps = obs::Snapshotter::instance();
  snaps.reset();
  const auto saved_ms = snaps.wall_interval_ms();
  snaps.set_wall_interval_ms(60000);  // nothing wall-fires in this test

  obs::snapshot_tick();
  EXPECT_EQ(snaps.size(), 1u);
  obs::snapshot_wall_tick();
  EXPECT_EQ(snaps.size(), 1u) << "wall tick fired despite fresh step tick";
  EXPECT_EQ(snaps.ticks(), 1u);

  snaps.set_wall_interval_ms(saved_ms);
}

// Shrinking the capacity below the retained count must compact immediately:
// consumers assume size() < capacity() at all times, not just at tick time.
TEST(Snapshotter, CapacityShrinkCompactsImmediately) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  auto& snaps = obs::Snapshotter::instance();
  snaps.reset();
  snaps.set_capacity(256);
  for (int t = 0; t < 100; ++t) obs::snapshot_tick();
  EXPECT_EQ(snaps.size(), 100u);
  EXPECT_EQ(snaps.stride(), 1u);

  snaps.set_capacity(8);
  EXPECT_LT(snaps.size(), 8u);
  EXPECT_GE(snaps.stride(), 16u);  // repeated halving, not a single pass
  const auto samples = snaps.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.front().tick, 0u);  // run start still covered
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].tick % snaps.stride(), 0u);
    if (i > 0) {
      EXPECT_GT(samples[i].tick, samples[i - 1].tick);
    }
  }
  // Ticking onward keeps sampling on the widened stride and keeps the ring
  // bounded.
  for (int t = 0; t < 32; ++t) obs::snapshot_tick();
  EXPECT_GT(snaps.size(), 0u);
  EXPECT_LT(snaps.size(), 8u);

  snaps.set_capacity(256);  // restore the default for later tests
}

// ---- Attribution ------------------------------------------------------------

TEST(Attribution, AddAndRollupTotals) {
  ObsGuard guard;
  auto& attr = obs::Attribution::instance();
  attr.reset();
  EXPECT_TRUE(attr.empty());

  attr.add("chip/bank0/layer1", "latency_ns", 5.0);
  attr.add("chip/bank0", "latency_ns", 2.0);
  attr.add("chip", "energy_pj", 7.0);

  EXPECT_FALSE(attr.empty());
  EXPECT_DOUBLE_EQ(attr.total("", "latency_ns"), 7.0);
  EXPECT_DOUBLE_EQ(attr.total("chip", "latency_ns"), 7.0);
  EXPECT_DOUBLE_EQ(attr.total("chip/bank0", "latency_ns"), 7.0);
  EXPECT_DOUBLE_EQ(attr.total("chip/bank0/layer1", "latency_ns"), 5.0);
  EXPECT_DOUBLE_EQ(attr.total("", "energy_pj"), 7.0);
  EXPECT_DOUBLE_EQ(attr.total("chip/bank0", "energy_pj"), 0.0);
  EXPECT_DOUBLE_EQ(attr.total("nonexistent", "latency_ns"), 0.0);

  attr.reset();
  EXPECT_TRUE(attr.empty());
  EXPECT_DOUBLE_EQ(attr.total("", "latency_ns"), 0.0);
}

TEST(Attribution, JsonRollupsReconcileAndDeriveRatios) {
  ObsGuard guard;
  auto& attr = obs::Attribution::instance();
  attr.reset();
  attr.add("chip/bank0", "latency_ns", 10.0);
  attr.add("chip/bank0/tile0", "latency_ns", 4.0);
  attr.add("chip/bank0/tile0", "flops", 50.0);
  attr.add("chip/bank0/tile0", "roofline_flops", 100.0);

  std::ostringstream os;
  obs::JsonWriter w(os);
  attr.write_json(w);
  w.finish();
  JsonParser p(os.str());
  const JsonValue root = p.parse();

  ASSERT_EQ(root.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(root.arr.size(), 1u);
  const JsonValue& chip = root.arr[0];
  EXPECT_EQ(chip.at("name").str, "chip");
  // Rollups: total = self + children totals at every level.
  EXPECT_DOUBLE_EQ(chip.at("total").at("latency_ns").num, 14.0);
  EXPECT_TRUE(chip.at("self").obj.empty());
  const JsonValue& bank = chip.at("children").arr[0];
  EXPECT_DOUBLE_EQ(bank.at("self").at("latency_ns").num, 10.0);
  EXPECT_DOUBLE_EQ(bank.at("total").at("latency_ns").num, 14.0);
  const JsonValue& tile = bank.at("children").arr[0];
  EXPECT_DOUBLE_EQ(tile.at("total").at("latency_ns").num, 4.0);
  // The derived ratio appears wherever the denominator rolls up positive.
  EXPECT_DOUBLE_EQ(tile.at("utilization").num, 0.5);
  EXPECT_DOUBLE_EQ(chip.at("utilization").num, 0.5);
}

// Acceptance: attribution (values AND JSON bytes) plus the computed outputs
// are identical for any RERAMDL_THREADS. Runs an attributed batched MVM at
// 1, 4, and 8 threads; CI repeats this binary under TSan.
TEST(Attribution, DeterministicAcrossThreadCounts) {
  ObsGuard guard;

  Rng wrng(41);
  const Tensor weights = Tensor::uniform(Shape{200, 96}, wrng, -0.5f, 0.5f);
  const Tensor batch = Tensor::uniform(Shape{8, 200}, wrng, -1.0f, 1.0f);

  std::string ref_json;
  std::vector<float> ref_out;
  for (const std::size_t threads : {1, 4, 8}) {
    parallel::set_thread_count(threads);
    obs::Registry::instance().reset();
    auto& attr = obs::Attribution::instance();
    attr.reset();
    obs::set_metrics_enabled(true);

    circuit::CrossbarConfig cfg;
    circuit::CrossbarGrid grid(cfg);
    grid.set_obs_label("chip/bank0/layer0");
    grid.program(weights, 1.0);
    const Tensor y = grid.compute_batch(batch, 1.0);

    std::ostringstream os;
    obs::JsonWriter w(os);
    attr.write_json(w);
    w.finish();
    obs::set_metrics_enabled(false);

    EXPECT_GT(attr.total("chip/bank0/layer0", "flops"), 0.0);
    if (ref_json.empty()) {
      ref_json = os.str();
      ref_out.assign(y.data(), y.data() + y.numel());
    } else {
      EXPECT_EQ(os.str(), ref_json)
          << "attribution differs at " << threads << " threads";
      ASSERT_EQ(y.numel(), ref_out.size());
      for (std::size_t i = 0; i < ref_out.size(); ++i)
        ASSERT_EQ(y.data()[i], ref_out[i])
            << "output diverged at " << threads << " threads, element " << i;
    }
  }
}

// ---- RunningStat / EnergyMeter satellites ----------------------------------

TEST(RunningStatMerge, MatchesSequentialFeed) {
  RunningStat all, left, right;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    all.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatMerge, EmptySidesAreIdentity) {
  RunningStat a, b;
  a.merge(b);  // empty into empty
  EXPECT_EQ(a.count(), 0u);
  EXPECT_THROW(a.min(), CheckError);  // still empty: moments undefined

  b.add(2.0);
  b.add(4.0);
  a.merge(b);  // empty absorbs non-empty
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);

  RunningStat c;
  a.merge(c);  // non-empty unchanged by empty
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(EnergyMeterMerge, AddsComponentwise) {
  arch::EnergyMeter a, b;
  a.add("compute", 10.0);
  a.add("adc", 5.0);
  b.add("compute", 2.5);
  b.add("noc", 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.component_pj("compute"), 12.5);
  EXPECT_DOUBLE_EQ(a.component_pj("adc"), 5.0);
  EXPECT_DOUBLE_EQ(a.component_pj("noc"), 1.0);
  EXPECT_DOUBLE_EQ(a.total_pj(), 18.5);
}

// ---- End-to-end trace schema ------------------------------------------------

// Runs instrumented hot paths from every layer with tracing live, then
// parses the emitted file and checks the Chrome trace-event schema: a
// top-level traceEvents array whose "X" events carry numeric ts/dur/tid/pid
// and whose spans cover thread-pool, crossbar, chip-sim, and pipeline scopes.
TEST(TraceSchema, EndToEndFileValidates) {
  ObsGuard guard;
  const std::string path = "obs_test_trace.json";
  obs::reset_trace();
  obs::set_trace_path(path);
  parallel::set_thread_count(4);

  {  // tensor + pool scopes
    Rng rng(1);
    const Tensor a = Tensor::uniform(Shape{96, 64}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape{64, 80}, rng, -1.0f, 1.0f);
    (void)ops::matmul(a, b);
  }
  {  // circuit scope
    Rng rng(2);
    const Tensor w = Tensor::uniform(Shape{200, 96}, rng, -0.5f, 0.5f);
    circuit::CrossbarConfig cfg;
    circuit::CrossbarGrid grid(cfg);
    grid.program(w, 1.0);
    std::vector<float> x(200, 0.25f);
    (void)oracle::compute_row(grid, x, 1.0);
  }
  {  // arch scope (simulated bank/noc timeline + wall span)
    const arch::ChipConfig chip = arch::pipelayer_chip();
    const auto net = workload::spec_lenet5();
    const auto mapping = mapping::plan_under_budget(
        net, {chip.array_rows, chip.array_cols}, 2048);
    const arch::MeshNoc noc = arch::make_mesh_for_banks(chip.banks);
    arch::ChipSimulator sim(chip, mapping,
                            arch::place_snake(mapping, chip, noc));
    (void)sim.run_forward_pass();
    (void)sim.run_training_batch(2);
  }
  {  // pipeline scope (virtual Gantt emission)
    (void)pipeline::sim_pipelayer_training(8, 3, 4);
  }

  ASSERT_GT(obs::trace_event_count(), 0u);
  obs::write_trace();
  obs::set_trace_path("");

  JsonParser p(read_file(path));
  const JsonValue root = p.parse();
  std::remove(path.c_str());

  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").arr;
  ASSERT_GT(events.size(), 0u);

  std::vector<std::string> span_names;
  std::vector<std::string> process_names;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").str;
    ASSERT_TRUE(e.has("pid"));
    EXPECT_EQ(e.at("pid").kind, JsonValue::Kind::kNumber);
    if (ph == "X") {
      ASSERT_TRUE(e.has("ts"));
      ASSERT_TRUE(e.has("dur"));
      ASSERT_TRUE(e.has("tid"));
      EXPECT_EQ(e.at("ts").kind, JsonValue::Kind::kNumber);
      EXPECT_EQ(e.at("dur").kind, JsonValue::Kind::kNumber);
      EXPECT_EQ(e.at("tid").kind, JsonValue::Kind::kNumber);
      EXPECT_GE(e.at("dur").num, 0.0);
      span_names.push_back(e.at("name").str);
    } else if (ph == "M") {
      ASSERT_TRUE(e.has("args"));
      if (e.at("name").str == "process_name")
        process_names.push_back(e.at("args").at("name").str);
    }
  }

  const auto has_span = [&](const std::string& name) {
    for (const auto& s : span_names)
      if (s == name) return true;
    return false;
  };
  EXPECT_TRUE(has_span("pool.parallel_for")) << "thread-pool spans missing";
  EXPECT_TRUE(has_span("pool.chunk")) << "worker chunk spans missing";
  EXPECT_TRUE(has_span("ops.matmul")) << "tensor spans missing";
  EXPECT_TRUE(has_span("xbar.compute")) << "crossbar spans missing";
  EXPECT_TRUE(has_span("chip.run")) << "chip-sim wall spans missing";
  EXPECT_TRUE(has_span("forward")) << "simulated bank spans missing";
  EXPECT_TRUE(has_span("train_batch")) << "simulated bank spans missing";

  const auto has_process = [&](const std::string& name) {
    for (const auto& s : process_names)
      if (s == name) return true;
    return false;
  };
  EXPECT_TRUE(has_process("chip_sim"));
  EXPECT_TRUE(has_process("pipelayer_training")) << "pipeline spans missing";
}

// ---- Disabled-path overhead -------------------------------------------------

// With both switches off, a traced scope plus a guarded counter must cost a
// couple of relaxed atomic loads. 1M iterations in well under a second — a
// generous ceiling that still catches an accidental always-on slow path
// (e.g. buffering events or taking locks while disabled).
TEST(ObsOverhead, DisabledPathIsCheap) {
  ObsGuard guard;
  obs::set_trace_path("");
  obs::set_metrics_enabled(false);
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::metrics_enabled());

  const std::size_t before = obs::trace_event_count();
  const std::uint64_t t0 = obs::monotonic_ns();
  for (int i = 0; i < 1000000; ++i) {
    RERAMDL_TRACE_SCOPE("overhead.probe", "test");
    if (obs::metrics_enabled())
      obs::Registry::instance().counter("overhead.count").add();
  }
  const std::uint64_t elapsed_ns = obs::monotonic_ns() - t0;
  EXPECT_EQ(obs::trace_event_count(), before);  // nothing buffered
  EXPECT_LT(elapsed_ns, 2'000'000'000ull) << "disabled path is not cheap";
}

}  // namespace
}  // namespace reramdl
