// Streaming (push-based) OPS matcher tests: agreement with the batch
// matcher, incremental emission, end-of-stream closure, and bounded
// memory via eviction.

#include <random>

#include <gtest/gtest.h>

#include "engine/stream.h"
#include "test_util.h"

namespace sqlts {
namespace {

using testing_util::MatchesToString;
using testing_util::MustPlan;
using testing_util::SameMatches;
using testing_util::SeriesFixture;

Row QuoteRow(Date d, double price) {
  return {Value::String("S"), Value::FromDate(d), Value::Double(price)};
}

std::vector<Match> StreamAll(const PatternPlan& plan,
                             const std::vector<double>& prices,
                             SearchStats* stats_out = nullptr,
                             int64_t* max_buffered = nullptr) {
  std::vector<Match> out;
  auto m = OpsStreamMatcher::Create(
      &plan, QuoteSchema(), [&](const Match& match, const SequenceView&, int64_t) { out.push_back(match); });
  SQLTS_CHECK(m.ok()) << m.status();
  Date d(10000);
  for (double p : prices) {
    SQLTS_CHECK_OK(m->Push(QuoteRow(d, p)));
    d = d.AddDays(1);
    if (max_buffered != nullptr) {
      *max_buffered = std::max(*max_buffered, m->buffered());
    }
  }
  m->Finish();
  if (stats_out != nullptr) *stats_out = m->stats();
  return out;
}

TEST(Stream, SimpleMatchEmission) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
      "WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15");
  auto ms = StreamAll(plan, {9, 10, 11, 15, 10, 11, 15});
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].first(), 1);
  EXPECT_EQ(ms[1].last(), 6);
}

TEST(Stream, TrailingStarClosesOnFinish) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y) "
      "WHERE Y.price < Y.previous.price");
  std::vector<Match> out;
  auto m = OpsStreamMatcher::Create(
      &plan, QuoteSchema(), [&](const Match& mm, const SequenceView&, int64_t) { out.push_back(mm); });
  ASSERT_TRUE(m.ok());
  Date d(10000);
  for (double p : {10.0, 9.0, 8.0}) {
    ASSERT_TRUE(m->Push(QuoteRow(d, p)).ok());
    d = d.AddDays(1);
  }
  EXPECT_TRUE(out.empty());  // star still open: no match yet
  m->Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].spans[1].last, 2);
}

TEST(Stream, MatchesEmittedAsSoonAsComplete) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  std::vector<size_t> sizes;
  std::vector<Match> out;
  auto m = OpsStreamMatcher::Create(
      &plan, QuoteSchema(), [&](const Match& mm, const SequenceView&, int64_t) { out.push_back(mm); });
  ASSERT_TRUE(m.ok());
  Date d(10000);
  for (double p : {1.0, 2.0, 1.0, 2.0}) {
    ASSERT_TRUE(m->Push(QuoteRow(d, p)).ok());
    sizes.push_back(out.size());
    d = d.AddDays(1);
  }
  // A match completes exactly when its last tuple arrives.
  EXPECT_EQ(sizes, (std::vector<size_t>{0, 1, 1, 2}));
}

TEST(Stream, RejectsLookaheadPredicates) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X) "
      "WHERE X.next.price > X.price");
  auto m = OpsStreamMatcher::Create(&plan, QuoteSchema(), nullptr);
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

class StreamEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamEquivalence, AgreesWithBatchOps) {
  PatternPlan plan = MustPlan(GetParam());
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> prices;
    double p = 50;
    int n = 20 + static_cast<int>(rng() % 150);
    for (int i = 0; i < n; ++i) {
      p += static_cast<double>(static_cast<int>(rng() % 11)) - 5.0;
      if (p < 5) p = 5;
      prices.push_back(p);
    }
    SeriesFixture fx(prices);
    SearchStats batch_stats, stream_stats;
    auto batch = OpsSearch(fx.view(), plan, &batch_stats);
    auto streamed = StreamAll(plan, prices, &stream_stats);
    ASSERT_TRUE(SameMatches(batch, streamed))
        << "trial " << trial << "\nbatch:  " << MatchesToString(batch)
        << "\nstream: " << MatchesToString(streamed);
    // Identical algorithm ⇒ identical cost accounting.
    EXPECT_EQ(batch_stats.evaluations, stream_stats.evaluations);
    EXPECT_EQ(batch_stats.presat_skips, stream_stats.presat_skips);
    EXPECT_EQ(batch_stats.jumps, stream_stats.jumps);
    EXPECT_EQ(batch_stats.matches, stream_stats.matches);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StreamEquivalence,
    ::testing::Values(
        "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
        "WHERE Y.price > X.price AND Z.price < Y.price",
        "SELECT X.price FROM quote SEQUENCE BY date AS (*X, *Y, *Z) "
        "WHERE X.price > X.previous.price AND Y.price < "
        "Y.previous.price AND Z.price > Z.previous.price",
        "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
        "WHERE X.price > 60 AND Y.price < Y.previous.price AND "
        "Z.price >= Z.previous.price AND Z.price < 40",
        "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
        "WHERE Y.price < Y.previous.price AND "
        "Z.previous.price < 0.9 * X.price",
        // A star first element with a later anchored reference to it: a
        // mismatch with shift 1 after a multi-tuple first group restarts
        // one tuple forward instead of rebasing (the star shift guard).
        "SELECT X.price FROM quote SEQUENCE BY date AS (*X, Y) "
        "WHERE X.price > X.previous.price AND Y.price < 0.97 * X.price"));

TEST(Stream, EvictionPreservesResultsOnLongStream) {
  // Force many evictions (70k tuples, short attempts) on a star pattern
  // with anchored references, then verify the full match list against
  // batch OPS — eviction must never cut an active attempt's lookback.
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, *Y, Z) "
      "WHERE Y.price < Y.previous.price AND "
      "Z.price >= Z.previous.price AND Z.previous.price < 0.98 * X.price");
  std::vector<double> prices;
  double p = 100;
  std::mt19937_64 rng(12);
  for (int i = 0; i < 70000; ++i) {
    p *= 1.0 + (static_cast<double>(rng() % 9) - 4.0) / 100.0;
    prices.push_back(p);
  }
  SeriesFixture fx(prices);
  SearchStats batch_stats, stream_stats;
  auto batch = OpsSearch(fx.view(), plan, &batch_stats);
  int64_t max_buffered = 0;
  auto streamed = StreamAll(plan, prices, &stream_stats, &max_buffered);
  EXPECT_GT(batch.size(), 100u);  // the workload is match-rich
  ASSERT_TRUE(SameMatches(batch, streamed));
  EXPECT_EQ(batch_stats.evaluations, stream_stats.evaluations);
  EXPECT_EQ(batch_stats.jumps, stream_stats.jumps);
  EXPECT_EQ(batch_stats.matches, stream_stats.matches);
  EXPECT_LT(max_buffered, 20000);  // several evictions happened
}

TEST(Stream, BoundedMemoryOnLongStream) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > 1.5 * X.price");  // never matches on this walk
  std::vector<double> prices;
  double p = 100;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 50000; ++i) {
    p *= 1.0 + (static_cast<double>(rng() % 5) - 2.0) / 1000.0;
    prices.push_back(p);
  }
  int64_t max_buffered = 0;
  auto ms = StreamAll(plan, prices, nullptr, &max_buffered);
  EXPECT_TRUE(ms.empty());
  // Attempts are O(1) tuples long; the buffer must stay far below the
  // stream length (eviction threshold is 4096 + headroom).
  EXPECT_LT(max_buffered, 10000);
}

TEST(Stream, EvictionKeepsDictionaryWithinLiveRows) {
  // 120k tuples, each with a name never seen before, under a pattern
  // whose attempts are two tuples long.  Eviction must drop the dead
  // names from the buffer's dictionary, not only the dead rows; and the
  // names the matches project must survive the re-coding.
  PatternPlan plan = MustPlan(
      "SELECT X.name FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  int64_t matches = 0, wrong_names = 0, worst_excess = 0;
  auto m = OpsStreamMatcher::Create(
      &plan, QuoteSchema(),
      [&](const Match& match, const SequenceView& view, int64_t base) {
        ++matches;
        const Value name = view.at(match.first() - base, 0);
        if (name.string_value() != "N" + std::to_string(match.first())) {
          ++wrong_names;
        }
      });
  ASSERT_TRUE(m.ok()) << m.status();
  Date d(10000);
  for (int i = 0; i < 120000; ++i) {
    // A rise every third tuple: a match, then a fresh attempt.
    const double price = i % 3 == 2 ? 50.0 : 40.0 - (i % 3);
    ASSERT_TRUE(m->Push({Value::String("N" + std::to_string(i)),
                         Value::FromDate(d), Value::Double(price)})
                    .ok());
    d = d.AddDays(1);
    const int64_t entries = m->buffer().column(0).dict().size();
    worst_excess = std::max(worst_excess, entries - m->buffered());
  }
  EXPECT_GT(matches, 30000);
  EXPECT_EQ(wrong_names, 0);
  EXPECT_LE(worst_excess, 0);
  EXPECT_LT(m->peak_buffered(), 10000);  // evictions happened
}

}  // namespace
}  // namespace sqlts
