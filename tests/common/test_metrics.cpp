#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"

namespace edgeslice {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  // Tests share the process-global enable switch; restore defaults so
  // ordering between tests (and other suites) does not matter.
  void TearDown() override { set_metrics_enabled(true); }
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, CounterDisabledIsNoOp) {
  Counter c;
  set_metrics_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  set_metrics_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(MetricsTest, GaugeSetAddAndWrittenFlag) {
  Gauge g;
  EXPECT_FALSE(g.written());
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_TRUE(g.written());
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-0.5);  // last write wins
  EXPECT_DOUBLE_EQ(g.value(), -0.5);
}

TEST_F(MetricsTest, GaugeDisabledIsNoOp) {
  Gauge g;
  set_metrics_enabled(false);
  g.set(3.0);
  EXPECT_FALSE(g.written());
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramExactMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (double x : {3.0, -1.0, 7.0, 0.0}) h.observe(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.25);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  EXPECT_DOUBLE_EQ(h.total(), 9.0);
}

TEST_F(MetricsTest, HistogramQuantileWithinBucketResolution) {
  // Log buckets grow by kGrowth = 1.3, so any quantile estimate must sit
  // within a factor of 1.3 of the exact order statistic.
  Rng rng(7);
  Histogram h;
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    const double x = std::exp(rng.uniform(-3.0, 3.0));
    xs.push_back(x);
    h.observe(x);
  }
  std::sort(xs.begin(), xs.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_GT(est, exact / Histogram::kGrowth) << "q=" << q;
    EXPECT_LT(est, exact * Histogram::kGrowth) << "q=" << q;
  }
}

TEST_F(MetricsTest, HistogramQuantileClampedToObservedRange) {
  Histogram h;
  h.observe(5.0);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST_F(MetricsTest, HistogramHandlesNegativesAndZeros) {
  Histogram h;
  for (double x : {-10.0, -10.0, -10.0, 0.0, 10.0}) h.observe(x);
  // Quantile walk goes negatives (descending magnitude), zero, positives.
  EXPECT_LT(h.quantile(0.2), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.7), 0.0);
  EXPECT_GT(h.quantile(0.95), 0.0);
}

TEST_F(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x").value(), 3u);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
  EXPECT_EQ(registry.counter_names(), std::vector<std::string>{"x"});
}

TEST_F(MetricsTest, RegistryClearDropsEverything) {
  MetricsRegistry registry;
  registry.counter("x").add();
  registry.clear();
  EXPECT_TRUE(registry.counter_names().empty());
}

TEST_F(MetricsTest, JsonExportContainsAllKinds) {
  MetricsRegistry registry;
  registry.counter("bus.sent").add(5);
  registry.gauge("sys.util").set(0.75);
  auto& h = registry.histogram("lat");
  h.observe(1.0);
  h.observe(2.0);
  std::stringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"bus.sent\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"sys.util\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(MetricsTest, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("n").add();
        registry.histogram("h").observe(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("n").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("h").count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&global_metrics(), &global_metrics());
}

TEST_F(MetricsTest, WriteJsonEscapesHostileMetricNames) {
  // Regression: names with control characters used to be emitted raw,
  // producing invalid JSON (RFC 8259 forbids unescaped bytes < 0x20).
  MetricsRegistry registry;
  const std::string hostile = std::string("bad\nname\t") + '\x01' + "\"q\" \\end";
  registry.counter(hostile).add(7);
  std::ostringstream out;
  registry.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"bad\\nname\\t\\u0001\\\"q\\\" \\\\end\": 7"),
            std::string::npos)
      << text;
  // No raw control characters anywhere in the document (newlines from the
  // pretty-printer are the only ones allowed).
  for (char c : text) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST_F(MetricsTest, WriteJsonEscapedCoversEveryControlByte) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  std::ostringstream out;
  write_json_escaped(out, all);
  const std::string text = out.str();
  for (char c : text) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(text.find("\\b\\t\\n"), std::string::npos);      // 0x08, 0x09, 0x0a
  EXPECT_NE(text.find("\\u0001"), std::string::npos);        // generic escape
  EXPECT_NE(text.find("\\u001f"), std::string::npos);        // last control byte
}

TEST_F(MetricsTest, QuantileAllNegativeObservations) {
  Histogram h;
  for (double x : {-10.0, -5.0, -1.0}) h.observe(x);
  // Ascending order is most-negative first; every estimate must stay
  // within the observed range and within bucket resolution (x1.3) of the
  // exact order statistic.
  const double p0 = h.quantile(0.0);
  const double p50 = h.quantile(0.5);
  const double p100 = h.quantile(1.0);
  EXPECT_GE(p0, -10.0);
  EXPECT_LE(p0, -10.0 / 1.3);
  EXPECT_LE(p50, -5.0 / 1.3);
  EXPECT_GE(p50, -5.0 * 1.3);
  EXPECT_LE(p100, -1.0 / 1.3);
  EXPECT_GE(p100, -1.3);
  EXPECT_LE(p0, p50);
  EXPECT_LE(p50, p100);
}

TEST_F(MetricsTest, QuantileMixedSignObservations) {
  Histogram h;
  for (double x : {-4.0, -2.0, 2.0, 4.0}) h.observe(x);
  // Rank 2 of 4 is -2, rank 3 is +2: the estimates must carry the sign.
  EXPECT_LT(h.quantile(0.5), 0.0);
  EXPECT_GT(h.quantile(0.75), 0.0);
  EXPECT_NEAR(h.quantile(0.5), -2.0, 2.0 * 0.3);
  EXPECT_NEAR(h.quantile(0.75), 2.0, 2.0 * 0.3);
  // Extremes stay inside the observed range, within bucket resolution.
  EXPECT_LE(h.quantile(1.0), 4.0);
  EXPECT_GE(h.quantile(1.0), 4.0 / 1.3);
  EXPECT_GE(h.quantile(0.0), -4.0);
  EXPECT_LE(h.quantile(0.0), -4.0 / 1.3);
}

TEST_F(MetricsTest, QuantileStraddlingTheZeroBucket) {
  Histogram h;
  for (double x : {-1.0, 0.0, 0.0, 1.0}) h.observe(x);
  // Ranks 2 and 3 both land in the exact zero bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 0.0);
  EXPECT_LT(h.quantile(0.1), 0.0);
  EXPECT_GT(h.quantile(1.0), 0.0);
}

TEST_F(MetricsTest, WritePrometheusGoldenAndNameSanitization) {
  MetricsRegistry registry;
  registry.counter("bus.rcm_sent").add(3);
  registry.counter("99 bottles!").add(1);  // digit prefix + illegal chars
  registry.gauge("sla.margin.slice0").set(-2.5);
  auto& h = registry.histogram("coordinator.solve_s");
  h.observe(0.0);
  h.observe(0.0);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string expected =
      "# TYPE _99_bottles_ counter\n"
      "_99_bottles_ 1\n"
      "# TYPE bus_rcm_sent counter\n"
      "bus_rcm_sent 3\n"
      "# TYPE sla_margin_slice0 gauge\n"
      "sla_margin_slice0 -2.5\n"
      "# TYPE coordinator_solve_s summary\n"
      "coordinator_solve_s{quantile=\"0.5\"} 0\n"
      "coordinator_solve_s{quantile=\"0.9\"} 0\n"
      "coordinator_solve_s{quantile=\"0.99\"} 0\n"
      "coordinator_solve_s_sum 0\n"
      "coordinator_solve_s_count 2\n";
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace edgeslice
