// Unit tests for the util module: RNG, statistics, time series, strings,
// CSV and Result.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "csv_read.h"
#include "util/csv.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timeseries.h"

namespace coda::util {
namespace {

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentDrawCount) {
  // Forking with the same tag from the same state gives the same stream.
  Rng parent(7);
  Rng child1 = parent.fork(42);
  Rng child2 = parent.fork(42);
  EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Different tags give different streams.
  Rng child3 = parent.fork(43);
  Rng child4 = parent.fork(42);
  EXPECT_NE(child3.next_u64(), child4.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 8.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 8.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {2,3,4,5,6} show up
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.exponential(2.0));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.normal(10.0, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.lognormal(1.0, 0.5));
  }
  EXPECT_NEAR(percentile(samples, 0.5), std::exp(1.0), 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.bounded_pareto(10.0, 1000.0, 1.3);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    counts[rng.weighted_index(weights)] += 1;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

// -------------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(Percentile, BatchMatchesSingle) {
  std::vector<double> v = {5.0, 1.0, 9.0, 3.0, 7.0};
  auto ps = percentiles(v, {0.1, 0.5, 0.99});
  EXPECT_DOUBLE_EQ(ps[0], percentile(v, 0.1));
  EXPECT_DOUBLE_EQ(ps[1], percentile(v, 0.5));
  EXPECT_DOUBLE_EQ(ps[2], percentile(v, 0.99));
}

TEST(EmpiricalCdf, FractionAndQuantile) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(3.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(100.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
}

TEST(EmpiricalCdf, EvaluateGrid) {
  EmpiricalCdf cdf({10.0, 20.0});
  auto ys = cdf.evaluate({5.0, 10.0, 15.0, 25.0});
  EXPECT_DOUBLE_EQ(ys[0], 0.0);
  EXPECT_DOUBLE_EQ(ys[1], 0.5);
  EXPECT_DOUBLE_EQ(ys[2], 0.5);
  EXPECT_DOUBLE_EQ(ys[3], 1.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(3.0);
  h.add(3.5);
  h.add(-100.0);  // clamps into first bin
  h.add(100.0);   // clamps into last bin
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// --------------------------------------------------------------- timeseries

TEST(TimeSeries, MeansAndWindow) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 3.0);
  ts.add(20.0, 5.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 3.0);
  EXPECT_DOUBLE_EQ(ts.min(), 1.0);
  EXPECT_DOUBLE_EQ(ts.max(), 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in_window(5.0, 25.0), 4.0);
  EXPECT_DOUBLE_EQ(ts.mean_in_window(100.0, 200.0), 0.0);
}

TEST(TimeSeries, TimeWeightedMeanSampleAndHold) {
  TimeSeries ts;
  ts.add(0.0, 1.0);   // holds for 10s
  ts.add(10.0, 3.0);  // holds for 30s within [0, 40)
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(0.0, 40.0), (10.0 + 90.0) / 40.0);
}

TEST(TimeSeries, ResampleFillsEmptyBuckets) {
  TimeSeries ts;
  ts.add(0.0, 2.0);
  ts.add(25.0, 6.0);
  auto points = ts.resample(0.0, 30.0, 10.0);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 2.0);
  EXPECT_DOUBLE_EQ(points[1].value, 2.0);  // empty bucket carries previous
  EXPECT_DOUBLE_EQ(points[2].value, 6.0);
}

// ------------------------------------------------------------------ strings

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.2f", 1.234), "1.23");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(5.5), "5.5s");
  EXPECT_EQ(format_duration(125.0), "2m05s");
  EXPECT_EQ(format_duration(3661.0), "1h01m");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.621), "62.1%");
}

// ---------------------------------------------------------------------- csv

TEST(Csv, RoundTrip) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "2"}, {"3", "4"}};
  auto parsed = test::parse_csv(to_csv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(Csv, RejectsRaggedRows) {
  auto parsed = test::parse_csv("a,b\n1,2,3\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParseError);
}

TEST(Csv, RejectsEmptyInput) {
  EXPECT_FALSE(test::parse_csv("").ok());
}

TEST(Csv, ColumnLookup) {
  CsvDocument doc;
  doc.header = {"x", "y"};
  EXPECT_EQ(*test::column(doc, "y"), 1u);
  EXPECT_FALSE(test::column(doc, "z").ok());
}

TEST(Csv, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"k"};
  doc.rows = {{"v"}};
  const std::string path = testing::TempDir() + "/coda_csv_test.csv";
  ASSERT_TRUE(write_csv_file(path, doc).ok());
  auto loaded = test::read_csv_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, doc.rows);
  EXPECT_FALSE(test::read_csv_file("/nonexistent/coda.csv").ok());
}

// ------------------------------------------------------------------- result

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> bad = Error{ErrorCode::kNotFound, "missing"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, StatusOkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status bad = Error{ErrorCode::kIoError, "io"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kIoError);
}

TEST(Result, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(to_string(ErrorCode::kResourceExhausted),
               "resource_exhausted");
}

// -------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  t.add_note("a note");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("name   | value"), std::string::npos);
  EXPECT_NE(out.find("note: a note"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace coda::util
