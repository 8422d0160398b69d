// Unit and property tests for src/common.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"

namespace srds {
namespace {

TEST(Bytes, ConcatJoinsInOrder) {
  Bytes a = {1, 2}, b = {3}, c = {};
  Bytes r = concat(a, b, c);
  EXPECT_EQ(r, (Bytes{1, 2, 3}));
}

TEST(Bytes, StringRoundTrip) {
  std::string s = "hello srds";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Hex, RoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), b);
  EXPECT_EQ(from_hex("0001ABFF"), b);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Serial, IntegersRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Serial, BytesAndStrings) {
  Writer w;
  w.bytes(Bytes{9, 8, 7});
  w.str("abc");
  w.raw(Bytes{1});
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.str(), "abc");
  EXPECT_EQ(r.raw(1), Bytes{1});
  EXPECT_TRUE(r.done());
}

TEST(Serial, TruncatedReadFailsSafely) {
  Writer w;
  w.u32(100);  // length prefix promising 100 bytes that are not there
  Reader r(w.data());
  Bytes b = r.bytes();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  // Subsequent reads after failure stay safe.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serial, ViewsBorrowTheBuffer) {
  Writer w;
  w.bytes(Bytes{9, 8, 7});
  w.raw(Bytes{1, 2});
  Reader r(w.data());
  BytesView b = r.bytes_view();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data(), w.data().data() + 4);  // no copy
  EXPECT_EQ(Bytes(b.begin(), b.end()), (Bytes{9, 8, 7}));
  BytesView raw = r.view(2);
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), (Bytes{1, 2}));
  EXPECT_TRUE(r.done());
}

TEST(Serial, TruncatedViewsFailSafely) {
  Writer w;
  w.raw(Bytes{1, 2, 3});
  Reader r(w.data());
  EXPECT_TRUE(r.view(4).empty());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.view(0).empty());  // stays failed
  EXPECT_FALSE(r.ok());

  Writer lp;
  lp.u32(100);  // length prefix promising 100 bytes that are not there
  lp.raw(Bytes{5});
  Reader r2(lp.data());
  EXPECT_TRUE(r2.bytes_view().empty());
  EXPECT_FALSE(r2.ok());
  EXPECT_FALSE(r2.done());
  EXPECT_EQ(r2.remaining(), 0u);

  const Bytes short_prefix{1, 0};  // truncated length prefix itself
  Reader r3(short_prefix);
  EXPECT_TRUE(r3.bytes_view().empty());
  EXPECT_FALSE(r3.ok());
}

TEST(Serial, EmptyBufferReads) {
  Reader r(Bytes{});
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    auto v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values hit
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3);
  double f = static_cast<double>(hits) / trials;
  EXPECT_NEAR(f, 0.3, 0.02);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(5), b(5);
  EXPECT_EQ(a.bytes(33).size(), 33u);
  EXPECT_EQ(Rng(5).bytes(16), Rng(5).bytes(16));
  (void)b;
}

TEST(Rng, SubsetIsSortedUniqueAndInRange) {
  Rng rng(21);
  for (std::size_t n : {10u, 100u, 1000u}) {
    for (std::size_t k : {0u, 1u, 5u, 10u}) {
      if (k > n) continue;
      auto s = rng.subset(n, k);
      ASSERT_EQ(s.size(), k);
      EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
      EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
      for (auto v : s) EXPECT_LT(v, n);
    }
  }
  EXPECT_THROW(rng.subset(3, 4), std::invalid_argument);
}

TEST(Rng, SubsetCoversFullSet) {
  Rng rng(22);
  auto s = rng.subset(8, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependence) {
  Rng a(77);
  Rng child = a.fork();
  // Child stream should differ from parent continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == child.next());
  EXPECT_LT(same, 2);
}

TEST(MathUtil, Logs) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, CeilDivAndAtLeast) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(at_least(2, 5), 5u);
  EXPECT_EQ(at_least(7, 5), 7u);
}

// Property sweep: Writer/Reader round-trip on random structures.
class SerialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialFuzz, RandomRoundTrip) {
  Rng rng(GetParam());
  Writer w;
  struct Item {
    int kind;
    std::uint64_t num;
    Bytes blob;
  };
  std::vector<Item> items;
  int count = static_cast<int>(rng.below(20)) + 1;
  for (int i = 0; i < count; ++i) {
    Item it;
    it.kind = static_cast<int>(rng.below(3));
    switch (it.kind) {
      case 0:
        it.num = rng.next();
        w.u64(it.num);
        break;
      case 1:
        it.num = rng.below(256);
        w.u8(static_cast<std::uint8_t>(it.num));
        break;
      default:
        it.blob = rng.bytes(rng.below(64));
        w.bytes(it.blob);
        break;
    }
    items.push_back(it);
  }
  Reader r(w.data());
  for (const auto& it : items) {
    switch (it.kind) {
      case 0:
        EXPECT_EQ(r.u64(), it.num);
        break;
      case 1:
        EXPECT_EQ(r.u8(), it.num);
        break;
      default:
        EXPECT_EQ(r.bytes(), it.blob);
        break;
    }
  }
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialFuzz, ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace srds
