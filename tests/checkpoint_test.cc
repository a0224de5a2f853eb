// Checkpoint/restore tests: the versioned binary container (header
// validation, typed bounds-checked reads), matcher-level state round
// trips mid-attempt, and executor-level kill-and-restore equivalence —
// including restoring at a different thread count than the checkpoint
// was taken at.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.h"
#include "engine/executor.h"
#include "engine/stream.h"
#include "engine/stream_executor.h"
#include "test_util.h"

namespace sqlts {
namespace {

using testing_util::MustPlan;

Row QuoteRow(const std::string& name, Date d, double price) {
  return {Value::String(name), Value::FromDate(d), Value::Double(price)};
}

// ---------------------------------------------------------------------------
// Container format.
// ---------------------------------------------------------------------------

TEST(CheckpointFormat, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.WriteU8(200);
  w.WriteU32(0xdeadbeefu);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteDouble(-2.5);
  w.WriteString("hello\0world");  // embedded NUL via string_view length
  w.WriteString("");
  const std::string bytes = w.Finalize();

  auto payload = OpenCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status();
  CheckpointReader r(*payload);
  EXPECT_EQ(*r.ReadU8(), 200);
  EXPECT_EQ(*r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadBool(), true);
  EXPECT_EQ(*r.ReadDouble(), -2.5);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_EQ(r.remaining(), 0u);
  // Reading past the end fails with a typed error, never UB.
  EXPECT_EQ(r.ReadU8().status().code(), StatusCode::kIoError);
}

TEST(CheckpointFormat, ValuesAndRowsRoundTrip) {
  Row row = {Value::Null(), Value::Bool(false), Value::Int64(-7),
             Value::Double(3.25), Value::String("x\x1fy"),
             Value::FromDate(Date(12345))};
  CheckpointWriter w;
  w.WriteRow(row);
  const std::string bytes = w.Finalize();
  auto payload = OpenCheckpoint(bytes);
  ASSERT_TRUE(payload.ok());
  CheckpointReader r(*payload);
  auto got = r.ReadRow();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*got)[i].kind(), row[i].kind()) << "column " << i;
    EXPECT_EQ((*got)[i].ToString(), row[i].ToString()) << "column " << i;
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointFormat, RejectsCorruptedHeaders) {
  CheckpointWriter w;
  w.WriteU64(99);
  const std::string good = w.Finalize();
  ASSERT_TRUE(OpenCheckpoint(good).ok());

  // Too short to even hold the header.
  EXPECT_EQ(OpenCheckpoint(good.substr(0, 10)).status().code(),
            StatusCode::kIoError);
  // Wrong magic.
  std::string bad = good;
  bad[0] ^= 0x01;
  EXPECT_EQ(OpenCheckpoint(bad).status().code(), StatusCode::kIoError);
  // Unknown version.
  bad = good;
  bad[8] = static_cast<char>(kCheckpointVersion + 1);
  EXPECT_EQ(OpenCheckpoint(bad).status().code(), StatusCode::kIoError);
  // Declared payload size disagrees with the actual byte count.
  bad = good;
  bad.pop_back();
  EXPECT_EQ(OpenCheckpoint(bad).status().code(), StatusCode::kIoError);
  // Payload corruption is caught by the checksum.
  bad = good;
  bad.back() ^= 0x40;
  EXPECT_EQ(OpenCheckpoint(bad).status().code(), StatusCode::kIoError);
}

TEST(CheckpointFormat, ReaderRejectsOversizedLengthPrefix) {
  // A string whose length prefix claims more bytes than the payload
  // holds must fail its bounds check.
  CheckpointWriter w;
  w.WriteU64(1ull << 40);  // "length" with no bytes behind it
  CheckpointReader r(w.payload());
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kIoError);
}

TEST(CheckpointFormat, ChecksumIsFnv1a) {
  // Pin the checksum function so the on-disk format stays stable.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(CheckpointFormat, VersionSkewRejectedWithVersionInMessage) {
  // A reader handed bytes from a newer writer (version + 1) must reject
  // cleanly and say which versions were involved — the operator's first
  // clue during a mixed-version rollout (docs/OPERATIONS.md).
  CheckpointWriter w;
  w.WriteU64(7);
  std::string skewed = w.Finalize();
  skewed[8] = static_cast<char>(kCheckpointVersion + 1);
  const Status st = OpenCheckpoint(skewed).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(std::to_string(kCheckpointVersion + 1)),
            std::string::npos)
      << "message must name the unsupported version: " << st.message();
  EXPECT_NE(st.message().find(std::to_string(kCheckpointVersion)),
            std::string::npos)
      << "message must name the supported version: " << st.message();
}

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  return hex;
}

TEST(CheckpointFormat, GoldenContainerBytes) {
  // Pins the container layout bit-for-bit: header fields, little-endian
  // integer encoding, length prefixes, value type tags.  If this test
  // breaks, the format changed — bump kCheckpointVersion and keep the
  // old reader path, or every persisted checkpoint in the field becomes
  // unreadable.
  CheckpointWriter w;
  w.WriteU8(7);
  w.WriteU32(258);
  w.WriteI64(-2);
  w.WriteBool(true);
  w.WriteDouble(1.5);
  w.WriteString("seq");
  w.WriteValue(Value::Null());
  w.WriteValue(Value::Int64(5));
  w.WriteRow({Value::String("q"), Value::FromDate(Date(10000))});
  EXPECT_EQ(ToHex(w.Finalize()),
            "53515453434b5054030000004200000000000000af3031197f1299db070201"
            "0000feffffffffffffff01000000000000f83f030000000000000073657100"
            "020500000000000000020000000401000000000000007105102700000000"
            "0000");
}

TEST(CheckpointFormat, ReadRowRejectsOversizedArity) {
  // An adversarial arity prefix (4 billion columns in a 4-byte payload)
  // must fail its bounds check, not drive a giant reserve() whose
  // allocation failure would escape as an exception.
  CheckpointWriter w;
  w.WriteU32(0xffffffffu);
  CheckpointReader r(w.payload());
  EXPECT_EQ(r.ReadRow().status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Matcher-level round trip.
// ---------------------------------------------------------------------------

/// Runs `prices` through one matcher uninterrupted, and through a
/// checkpoint/restore split at every prefix k; all runs must agree on
/// emitted matches and stats.
void CheckMatcherSplits(const std::string& query,
                        const std::vector<double>& prices) {
  PatternPlan plan = MustPlan(query);
  auto run = [&](size_t split, bool use_split) -> std::string {
    std::string log;
    auto record = [&](const Match& m, const SequenceView&, int64_t) {
      log += m.ToString() + ";";
    };
    auto m = OpsStreamMatcher::Create(&plan, QuoteSchema(), record);
    SQLTS_CHECK(m.ok()) << m.status();
    Date d(10000);
    size_t pushed = 0;
    for (double p : prices) {
      if (use_split && pushed == split) {
        CheckpointWriter w;
        m->Checkpoint(&w);
        auto fresh = OpsStreamMatcher::Create(&plan, QuoteSchema(), record);
        SQLTS_CHECK(fresh.ok());
        CheckpointReader r(w.payload());
        SQLTS_CHECK_OK(fresh->RestoreState(&r));
        SQLTS_CHECK(r.remaining() == 0u);
        *m = std::move(*fresh);
      }
      SQLTS_CHECK_OK(m->Push(QuoteRow("S", d, p)));
      d = d.AddDays(1);
      ++pushed;
    }
    m->Finish();
    log += "| evals=" + std::to_string(m->stats().evaluations) +
           " matches=" + std::to_string(m->stats().matches);
    return log;
  };
  const std::string oracle = run(0, false);
  for (size_t k = 0; k <= prices.size(); ++k) {
    EXPECT_EQ(run(k, true), oracle) << "split at " << k;
  }
}

TEST(MatcherCheckpoint, RoundTripsMidAttempt) {
  CheckMatcherSplits(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y, Z) "
      "WHERE Y.price > X.price AND Z.price > Y.price",
      {1, 2, 3, 2, 4, 5, 1, 0, 3, 9});
}

TEST(MatcherCheckpoint, RoundTripsOpenStarGroup) {
  CheckMatcherSplits(
      "SELECT X.price, COUNT(Y) FROM quote SEQUENCE BY date "
      "AS (X, *Y, Z) WHERE Y.price < Y.previous.price "
      "AND Z.price > 1.1 * X.price",
      {10, 9, 8, 7, 12, 10, 9, 11, 30, 5});
}

TEST(MatcherCheckpoint, RestoreRequiresFreshMatcher) {
  PatternPlan plan = MustPlan(
      "SELECT X.price FROM quote SEQUENCE BY date AS (X, Y) "
      "WHERE Y.price > X.price");
  auto m = OpsStreamMatcher::Create(&plan, QuoteSchema(),
                                    [](const Match&, const SequenceView&,
                                       int64_t) {});
  ASSERT_TRUE(m.ok());
  CheckpointWriter w;
  m->Checkpoint(&w);
  ASSERT_TRUE(m->Push(QuoteRow("S", Date(10000), 1)).ok());
  CheckpointReader r(w.payload());
  EXPECT_EQ(m->RestoreState(&r).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Executor-level kill and restore.
// ---------------------------------------------------------------------------

const char kPortfolioQuery[] =
    "SELECT X.name, FIRST(Y).date, COUNT(Y) FROM quote "
    "CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price >= "
    "Z.previous.price AND Z.price < 0.97 * X.price";

std::vector<Row> PortfolioStream(int n) {
  std::vector<Row> rows;
  std::vector<std::string> names = {"A", "B", "C"};
  std::vector<double> price = {50, 43, 61};
  std::vector<Date> day = {Date(10000), Date(10000), Date(10000)};
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < n; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    int s = static_cast<int>((rng >> 33) % 3);
    price[s] *= 1.0 + (static_cast<double>((rng >> 13) % 9) - 4.0) / 100.0;
    rows.push_back(QuoteRow(names[s], day[s], price[s]));
    day[s] = day[s].AddDays(1);
  }
  return rows;
}

std::string RowsToString(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    for (const Value& v : r) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

/// Pushes `rows[0..k)`, checkpoints, destroys the executor, restores a
/// fresh one at `restore_threads` and pushes the rest.  Returns the
/// concatenated output; also reports the checkpoint bytes.
std::string KillAndRestore(const std::vector<Row>& rows, int k,
                           int checkpoint_threads, int restore_threads,
                           std::string* bytes_out = nullptr) {
  std::vector<Row> got;
  auto sink = [&](const Row& r) { got.push_back(r); };
  ExecOptions options;
  options.num_threads = checkpoint_threads;
  auto exec = StreamingQueryExecutor::Create(kPortfolioQuery, QuoteSchema(),
                                             sink, options);
  SQLTS_CHECK(exec.ok()) << exec.status();
  for (int i = 0; i < k; ++i) SQLTS_CHECK_OK((*exec)->Push(rows[i]));
  std::string bytes;
  SQLTS_CHECK_OK((*exec)->Checkpoint(&bytes));
  SQLTS_CHECK((*exec)->rows_consumed() == k);
  (*exec).reset();  // the "kill": all in-memory state is gone

  options.num_threads = restore_threads;
  auto resumed = StreamingQueryExecutor::Create(kPortfolioQuery, QuoteSchema(),
                                                sink, options);
  SQLTS_CHECK(resumed.ok()) << resumed.status();
  SQLTS_CHECK_OK((*resumed)->Restore(bytes));
  SQLTS_CHECK((*resumed)->rows_consumed() == k);
  for (size_t i = k; i < rows.size(); ++i) {
    SQLTS_CHECK_OK((*resumed)->Push(rows[i]));
  }
  SQLTS_CHECK_OK((*resumed)->Finish());
  if (bytes_out != nullptr) *bytes_out = bytes;
  return RowsToString(got) + "matches=" +
         std::to_string((*resumed)->stats().matches);
}

TEST(ExecutorCheckpoint, KillAndRestoreMatchesUninterruptedRun) {
  const std::vector<Row> rows = PortfolioStream(240);
  // Uninterrupted oracle (single-threaded).
  std::vector<Row> oracle_rows;
  auto oracle = StreamingQueryExecutor::Create(
      kPortfolioQuery, QuoteSchema(),
      [&](const Row& r) { oracle_rows.push_back(r); });
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (const Row& r : rows) ASSERT_TRUE((*oracle)->Push(r).ok());
  ASSERT_TRUE((*oracle)->Finish().ok());
  const std::string expected =
      RowsToString(oracle_rows) + "matches=" +
      std::to_string((*oracle)->stats().matches);
  ASSERT_GT(oracle_rows.size(), 0u) << "vacuous fixture";

  for (int k : {0, 1, 37, 120, 239, 240}) {
    // Same thread count on both sides…
    EXPECT_EQ(KillAndRestore(rows, k, 1, 1), expected) << "k=" << k;
    EXPECT_EQ(KillAndRestore(rows, k, 4, 4), expected) << "k=" << k;
    // …and crossing thread counts over the kill/restore boundary.
    EXPECT_EQ(KillAndRestore(rows, k, 1, 4), expected) << "k=" << k;
    EXPECT_EQ(KillAndRestore(rows, k, 4, 1), expected) << "k=" << k;
  }
}

TEST(ExecutorCheckpoint, BytesIdenticalAcrossThreadCounts) {
  const std::vector<Row> rows = PortfolioStream(150);
  std::string b1, b4;
  KillAndRestore(rows, 97, 1, 1, &b1);
  KillAndRestore(rows, 97, 4, 4, &b4);
  EXPECT_EQ(b1, b4)
      << "checkpoint bytes must not depend on the thread count";
}

TEST(ExecutorCheckpoint, RestoreRejectsMismatchesAndCorruption) {
  const std::vector<Row> rows = PortfolioStream(40);
  std::string bytes;
  KillAndRestore(rows, 20, 1, 1, &bytes);

  auto fresh = [&](const std::string& query) {
    auto e = StreamingQueryExecutor::Create(query, QuoteSchema(), nullptr);
    SQLTS_CHECK(e.ok()) << e.status();
    return std::move(*e);
  };
  // Different query text.
  auto other = fresh(
      "SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date "
      "AS (X, Y) WHERE Y.price > X.price");
  EXPECT_EQ(other->Restore(bytes).code(), StatusCode::kInvalidArgument);
  // Corrupted payload byte: checksum catches it.
  std::string bad = bytes;
  bad[bad.size() / 2] ^= 0x10;
  EXPECT_EQ(fresh(kPortfolioQuery)->Restore(bad).code(),
            StatusCode::kIoError);
  // Truncation.
  EXPECT_EQ(fresh(kPortfolioQuery)
                ->Restore(std::string_view(bytes).substr(0, bytes.size() - 3))
                .code(),
            StatusCode::kIoError);
  // A used executor cannot be restored into.
  auto used = fresh(kPortfolioQuery);
  ASSERT_TRUE(used->Push(rows[0]).ok());
  EXPECT_EQ(used->Restore(bytes).code(), StatusCode::kInvalidArgument);
  // The pristine bytes still work.
  EXPECT_TRUE(fresh(kPortfolioQuery)->Restore(bytes).ok());
}

// ---------------------------------------------------------------------------
// Adversarial-bytes fuzz: Restore must never crash, over-read, or throw.
// ---------------------------------------------------------------------------

uint64_t TestSplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Re-wraps an arbitrary payload in a valid header (correct magic,
/// version, size, checksum) — the adversary that gets *past* the
/// checksum, exercising every typed bounds check in the restore path.
std::string WrapPayload(std::string_view payload) {
  std::string out(kCheckpointMagic);
  auto le = [&](uint64_t v, int n) {
    for (int b = 0; b < n; ++b) {
      out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  le(kCheckpointVersion, 4);
  le(payload.size(), 8);
  le(Fnv1a64(payload), 8);
  out += payload;
  return out;
}

TEST(ExecutorCheckpoint, CorruptionFuzzNeverCrashes) {
  // Seeded corruption sweep over a real executor checkpoint: truncation,
  // bit flips, oversized length-prefix stamps (0xff runs), and
  // checksum-fixed payload mutations.  Every mutant must come back as a
  // typed Status — kIoError for corrupted bytes, kInvalidArgument for
  // well-formed-but-mismatched state — never a crash, throw, or hang.
  const std::vector<Row> rows = PortfolioStream(120);
  std::string bytes;
  KillAndRestore(rows, 60, 1, 1, &bytes);
  auto payload = OpenCheckpoint(bytes);
  ASSERT_TRUE(payload.ok());
  const std::string clean_payload(*payload);

  uint64_t state = 0xc0442u;
  int rejected = 0, io_errors = 0;
  const int kIters = 300;
  for (int i = 0; i < kIters; ++i) {
    std::string bad;
    switch (TestSplitMix64(&state) % 4) {
      case 0:  // truncation at a random length
        bad = bytes.substr(0, TestSplitMix64(&state) % bytes.size());
        break;
      case 1: {  // single bit flip anywhere
        bad = bytes;
        bad[TestSplitMix64(&state) % bad.size()] ^=
            static_cast<char>(1u << (TestSplitMix64(&state) % 8));
        break;
      }
      case 2: {  // oversized length-prefix: stamp 8 bytes of 0xff
        bad = bytes;
        const size_t at = TestSplitMix64(&state) % bad.size();
        for (size_t b = at; b < bad.size() && b < at + 8; ++b) {
          bad[b] = static_cast<char>(0xff);
        }
        break;
      }
      default: {  // payload mutation with the checksum fixed up: the
                  // adversary the typed reads must stop on their own
        std::string p = clean_payload;
        const size_t at = TestSplitMix64(&state) % p.size();
        for (size_t b = at; b < p.size() && b < at + 8; ++b) {
          p[b] = static_cast<char>(TestSplitMix64(&state) & 0xff);
        }
        if (TestSplitMix64(&state) % 2 == 0) {
          p = p.substr(0, TestSplitMix64(&state) % p.size());
        }
        bad = WrapPayload(p);
        break;
      }
    }
    auto exec = StreamingQueryExecutor::Create(kPortfolioQuery, QuoteSchema(),
                                               nullptr);
    ASSERT_TRUE(exec.ok());
    const Status st = (*exec)->Restore(bad);
    if (!st.ok()) {
      ++rejected;
      if (st.code() == StatusCode::kIoError) ++io_errors;
      EXPECT_TRUE(st.code() == StatusCode::kIoError ||
                  st.code() == StatusCode::kInvalidArgument ||
                  st.code() == StatusCode::kParseError)
          << "iteration " << i << ": unexpected code " << st;
    }
  }
  // Non-vacuous: corruption is overwhelmingly detected, and the typed
  // kIoError path (checksum + bounds checks) actually fired.
  EXPECT_GT(rejected, kIters * 9 / 10);
  EXPECT_GT(io_errors, 0);
}

// ---------------------------------------------------------------------------
// Matcher payload: pinned bytes and validated attempt state.
// ---------------------------------------------------------------------------

const char kOpenStarQuery[] =
    "SELECT X.price, COUNT(Y) FROM quote SEQUENCE BY date "
    "AS (X, *Y, Z) WHERE Y.price < Y.previous.price "
    "AND Z.price > 1.1 * X.price";

/// A matcher over kOpenStarQuery fed {5, 10, 9, 8}: one jump, then an
/// attempt X=10 with the star group Y open over 9, 8.
StatusOr<OpsStreamMatcher> OpenStarMatcher(const PatternPlan& plan) {
  auto m = OpsStreamMatcher::Create(
      &plan, QuoteSchema(), [](const Match&, const SequenceView&, int64_t) {});
  if (!m.ok()) return m.status();
  Date d(10000);
  for (double p : {5.0, 10.0, 9.0, 8.0}) {
    SQLTS_RETURN_IF_ERROR(m->Push(QuoteRow("S", d, p)));
    d = d.AddDays(1);
  }
  return m;
}

TEST(MatcherCheckpoint, GoldenPayloadBytes) {
  // Pins the matcher payload bit-for-bit, taken mid-attempt inside an
  // open star group: plan fingerprint, stream position, attempt state
  // (start, i, j, presatisfied flag, count array, spans), statistics and
  // buffered rows.  If this breaks, persisted checkpoints no longer
  // restore — bump kCheckpointVersion and keep the old reader.
  PatternPlan plan = MustPlan(kOpenStarQuery);
  auto m = OpenStarMatcher(plan);
  ASSERT_TRUE(m.ok()) << m.status();
  CheckpointWriter w;
  m->Checkpoint(&w);
  EXPECT_EQ(ToHex(w.Finalize()),
            "53515453434b50540300000041010000000000009a4eeee926724be00400"
            "000000000000000000000000000004000000000000000300000004010000"
            "000000000053051027000000000000030000000000001440030000000401"
            "000000000000005305112700000000000003000000000000244003000000"
            "040100000000000000530512270000000000000300000000000022400300"
            "000004010000000000000053051327000000000000030000000000002040"
            "010000000000000003000000ffffffffffffffff00000000000000000100"
            "000000000000040000000000000002000000000400000000000000000000"
            "000100000000000000030000000000000000000000000000000300000001"
            "000000000000000100000000000000020000000000000003000000000000"
            "00ffffffffffffffffffffffffffffffff04000000000000000100000000"
            "00000001000000000000000000000000000000");
}

TEST(MatcherCheckpoint, RejectsInconsistentAttemptState) {
  // Checksum-valid payloads whose attempt state contradicts itself or
  // the buffer.  Unchecked, such state indexes the count array out of
  // range (j = 0) or drives the advance loop over 2^40 positions that
  // were never pushed; restore must refuse it with a typed error.
  PatternPlan plan = MustPlan(kOpenStarQuery);
  auto m = OpenStarMatcher(plan);
  ASSERT_TRUE(m.ok()) << m.status();
  CheckpointWriter w;
  m->Checkpoint(&w);
  const std::string clean = w.payload();

  // Payload offsets of the golden layout (m = 3): pushed 4, first
  // buffered position (base) 0, four rows, then the one cursor: start 1,
  // i 4, j 2, cnt {0, 1, 3, 0}, spans {1..1, 2..3, none}.
  constexpr size_t kBase = 8, kPushed = 0, kStart = 180, kI = 188, kJ = 196,
                   kCnt = 205, kSpans = 241;
  struct Patch {
    const char* what;
    size_t at;
    int width;
    int64_t value;
  };
  const Patch patches[] = {
      {"j = 0", kJ, 4, 0},
      {"j = m + 2", kJ, 4, 5},
      {"base < 0", kBase, 8, -1},
      {"base > start", kBase, 8, 2},
      {"pushed = 2^40", kPushed, 8, int64_t{1} << 40},
      {"pushed < i", kPushed, 8, 3},
      {"start > i", kStart, 8, 5},
      {"start + cnt[j] != i", kStart, 8, 0},
      {"i != start + cnt[j]", kI, 8, 3},
      {"cnt[0] != 0", kCnt, 8, 1},
      {"cnt decreases", kCnt + 8, 8, 4},
      {"cnt[j] != i - start", kCnt + 16, 8, 2},
      {"span before start", kSpans, 8, 0},
      {"span reaches i", kSpans + 24, 8, 4},
      {"span first > last", kSpans + 16, 8, 4},
  };
  auto restore = [&](const std::string& payload) {
    auto fresh = OpsStreamMatcher::Create(
        &plan, QuoteSchema(),
        [](const Match&, const SequenceView&, int64_t) {});
    SQLTS_CHECK(fresh.ok());
    const std::string bytes = WrapPayload(payload);
    auto opened = OpenCheckpoint(bytes);
    SQLTS_CHECK(opened.ok()) << opened.status();
    CheckpointReader r(*opened);
    return fresh->RestoreState(&r);
  };
  ASSERT_TRUE(restore(clean).ok());
  for (const Patch& patch : patches) {
    std::string bad = clean;
    for (int b = 0; b < patch.width; ++b) {
      bad[patch.at + b] = static_cast<char>(
          (static_cast<uint64_t>(patch.value) >> (8 * b)) & 0xff);
    }
    ASSERT_NE(bad, clean) << patch.what;
    EXPECT_EQ(restore(bad).code(), StatusCode::kIoError) << patch.what;
  }
}

TEST(ExecutorCheckpoint, RestoreRejectsRetaggedRowValue) {
  // A checksum-valid payload whose buffered row carries a value of the
  // wrong type (a DATE where the DOUBLE price belongs) is corruption:
  // restore must say kIoError, not surface the table's kTypeError.
  std::vector<Row> rows;
  Date d(10000);
  for (double p : {10.0, 9.0, 8.0, 7.25}) {
    rows.push_back(QuoteRow("A", d, p));
    d = d.AddDays(1);
  }
  std::string bytes;
  KillAndRestore(rows, 4, 1, 1, &bytes);
  auto payload = OpenCheckpoint(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status();
  std::string p(*payload);
  // The open star group keeps the last row buffered; find its price.
  CheckpointWriter probe;
  probe.WriteValue(Value::Double(7.25));
  const size_t at = p.find(probe.payload());
  ASSERT_NE(at, std::string::npos) << "price 7.25 is not in the payload";
  p[at] = static_cast<char>(TypeKind::kDate);
  auto exec =
      StreamingQueryExecutor::Create(kPortfolioQuery, QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok()) << exec.status();
  const Status st = (*exec)->Restore(WrapPayload(p));
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st;
}

TEST(ExecutorCheckpoint, RestoreRefusesVersion2Payload) {
  // Version 2 persisted route keys as rendered text; version 3 keys are
  // EncodeClusterKey bytes.  Restoring a version 2 payload would put a
  // restored cluster and its next tuples on two routes, so a payload
  // stamped version 2 is refused as kIoError, checksum and all intact.
  const std::vector<Row> rows = PortfolioStream(60);
  std::string bytes;
  KillAndRestore(rows, 30, 1, 1, &bytes);
  ASSERT_EQ(static_cast<uint8_t>(bytes[8]), kCheckpointVersion);
  bytes[8] = 2;
  auto exec =
      StreamingQueryExecutor::Create(kPortfolioQuery, QuoteSchema(), nullptr);
  ASSERT_TRUE(exec.ok()) << exec.status();
  const Status st = (*exec)->Restore(bytes);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st;
}

TEST(ExecutorCheckpoint, CheckpointFlushesBufferedShardedOutput) {
  // In sharded mode completed matches are buffered until Finish; a
  // checkpoint must deliver them first (they precede the checkpoint and
  // a resumed run will not re-emit them).
  const std::vector<Row> rows = PortfolioStream(240);
  std::vector<Row> before;
  ExecOptions options;
  options.num_threads = 4;
  auto exec = StreamingQueryExecutor::Create(
      kPortfolioQuery, QuoteSchema(),
      [&](const Row& r) { before.push_back(r); }, options);
  ASSERT_TRUE(exec.ok()) << exec.status();
  for (const Row& r : rows) ASSERT_TRUE((*exec)->Push(r).ok());
  const size_t pre_checkpoint = before.size();
  std::string bytes;
  ASSERT_TRUE((*exec)->Checkpoint(&bytes).ok());
  EXPECT_GT(before.size(), pre_checkpoint)
      << "expected completed matches to be flushed at checkpoint time";
  // Finishing after the checkpoint must not re-emit them.
  const size_t at_checkpoint = before.size();
  ASSERT_TRUE((*exec)->Finish().ok());
  EXPECT_GE(before.size(), at_checkpoint);
}

}  // namespace
}  // namespace sqlts
