#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/buffer.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/token_bucket.h"

namespace zen::util {
namespace {

// ---- ByteWriter / ByteReader ----

TEST(Buffer, WriteReadRoundtripAllWidths) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, BigEndianLayout) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Buffer, ReaderTruncationSetsFailFlag) {
  const std::vector<std::uint8_t> buf = {1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, FailedReaderStaysFailed) {
  const std::vector<std::uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8};
  ByteReader r(buf);
  r.skip(7);
  r.u32();  // overruns
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed, returns 0
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, FixedStringPadsAndTruncates) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.fixed_string("ab", 4);
  w.fixed_string("abcdef", 4);
  ASSERT_EQ(buf.size(), 8u);
  ByteReader r(buf);
  EXPECT_EQ(r.fixed_string(4), "ab");
  EXPECT_EQ(r.fixed_string(4), "abcd");
}

TEST(Buffer, PatchU16) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0);
  w.u32(7);
  w.patch_u16(0, 0xbeef);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(Buffer, BytesRoundtrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  w.bytes(payload);
  w.zeros(2);
  ByteReader r(buf);
  std::array<std::uint8_t, 3> out{};
  r.bytes(out);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[2], 7);
  EXPECT_EQ(r.remaining(), 2u);
}

// ---- Result ----

TEST(Result, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad = make_error<int>("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "boom");
}

// ---- Rng ----

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Zipf, AlphaZeroIsRoughlyUniform) {
  Rng rng(17);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.next(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.2);
}

TEST(Zipf, HighAlphaConcentratesOnRankZero) {
  Rng rng(19);
  ZipfGenerator zipf(1000, 1.2);
  int rank0 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (zipf.next(rng) == 0) ++rank0;
  // Rank 0 should take a large share under alpha=1.2.
  EXPECT_GT(rank0, n / 10);
}

// ---- Histogram ----

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(0.5), 50, 5);
  EXPECT_NEAR(h.percentile(0.99), 99, 5);
}

TEST(Histogram, PercentileAccuracyWithinBucketResolution) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record(1000.0);
  // Everything at one value: all percentiles land there (±1.6%).
  EXPECT_NEAR(h.percentile(0.5), 1000.0, 17.0);
  EXPECT_NEAR(h.percentile(0.999), 1000.0, 17.0);
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.record(1);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 1);
  EXPECT_DOUBLE_EQ(a.max(), 1000);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.mean(), 0);
}

TEST(Histogram, EmptyPercentileAtExtremes) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SingleSampleEveryPercentileLandsOnIt) {
  Histogram h;
  h.record(512.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 512.0);
  EXPECT_DOUBLE_EQ(h.max(), 512.0);
  EXPECT_DOUBLE_EQ(h.mean(), 512.0);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0})
    EXPECT_NEAR(h.percentile(q), 512.0, 512.0 * 0.02) << "q=" << q;
}

TEST(Histogram, MergeDisjointRangesKeepsBothTails) {
  Histogram low, high;
  for (int i = 1; i <= 100; ++i) low.record(i);            // 1..100
  for (int i = 0; i < 100; ++i) high.record(1e6 + i * 10);  // ~1e6
  low.merge(high);
  EXPECT_EQ(low.count(), 200u);
  EXPECT_DOUBLE_EQ(low.min(), 1);
  EXPECT_NEAR(low.max(), 1e6 + 990, 1.0);
  // Median stays in the low range, p99 lands in the high range.
  EXPECT_LT(low.percentile(0.25), 200.0);
  EXPECT_GT(low.percentile(0.99), 0.9e6);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.record(7);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 7);
  Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.max(), 7);
}

// ---- TokenBucket ----

TEST(TokenBucket, StartsFullAndDrains) {
  TokenBucket bucket(100.0, 50.0);
  EXPECT_TRUE(bucket.try_consume(50.0, 0.0));
  EXPECT_FALSE(bucket.try_consume(1.0, 0.0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(100.0, 50.0);
  ASSERT_TRUE(bucket.try_consume(50.0, 0.0));
  EXPECT_FALSE(bucket.try_consume(10.0, 0.05));  // only 5 tokens back
  EXPECT_TRUE(bucket.try_consume(10.0, 0.1));    // 10 tokens at t=0.1
}

TEST(TokenBucket, CapsAtBurst) {
  TokenBucket bucket(100.0, 50.0);
  EXPECT_NEAR(bucket.available(100.0), 50.0, 1e-9);  // long idle: still 50
}

TEST(TokenBucket, TimeGoingBackwardsIsIgnored) {
  TokenBucket bucket(100.0, 50.0);
  ASSERT_TRUE(bucket.try_consume(50.0, 1.0));
  EXPECT_NEAR(bucket.available(0.5), 0.0, 1e-9);
}

// ---- strings ----

TEST(Strings, Split) {
  const auto parts = split("a:b::c", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = split("", ':');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12a"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Logging, ParseLogLevel) {
  LogLevel level = LogLevel::Info;
  EXPECT_TRUE(parse_log_level("trace", level));
  EXPECT_EQ(level, LogLevel::Trace);
  EXPECT_TRUE(parse_log_level("DEBUG", level));
  EXPECT_EQ(level, LogLevel::Debug);
  EXPECT_TRUE(parse_log_level("Warn", level));
  EXPECT_EQ(level, LogLevel::Warn);
  EXPECT_TRUE(parse_log_level("warning", level));
  EXPECT_EQ(level, LogLevel::Warn);
  EXPECT_TRUE(parse_log_level("error", level));
  EXPECT_EQ(level, LogLevel::Error);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::Off);

  level = LogLevel::Error;
  EXPECT_FALSE(parse_log_level("", level));
  EXPECT_FALSE(parse_log_level("loud", level));
  EXPECT_EQ(level, LogLevel::Error);  // untouched on failure
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format_bps(1.5e9), "1.50 Gbit/s");
  EXPECT_EQ(format_bps(2.5e6), "2.50 Mbit/s");
  EXPECT_EQ(format_bps(999), "999.00 bit/s");
  // JSON escaping: short forms for quote, backslash, newline and tab;
  // \u00XX for the other control bytes.
  EXPECT_EQ(json_escape("q\"b\\n\nt\tc\x01"), "q\\\"b\\\\n\\nt\\tc\\u0001");
}

}  // namespace
}  // namespace zen::util
