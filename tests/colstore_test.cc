// Columnar container (src/colstore/) unit tests: encode/decode round
// trips over adversarial values, the CSV -> columnar conversion path,
// clustered physical layout, a golden-bytes format pin, and seeded
// corruption fuzzing (truncation + bit flips must yield typed errors,
// never crashes or silent wrong answers).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "colstore/format.h"
#include "colstore/reader.h"
#include "colstore/writer.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace sqlts {
namespace {

Schema QuoteSchema() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble, /*nullable=*/true));
  SQLTS_CHECK_OK(s.AddColumn("vol", TypeKind::kInt64, /*nullable=*/true));
  return s;
}

Row MakeRow(const char* n, const char* d, Value price, Value vol) {
  return {Value::String(n), Value::FromDate(*Date::Parse(d)),
          std::move(price), std::move(vol)};
}

/// Cell-exact table comparison (kind + NULL-ness + value).
void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      const Value& va = a.at(r, c);
      const Value& vb = b.at(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "row " << r << " col " << c;
      ASSERT_EQ(va.ToString(), vb.ToString()) << "row " << r << " col " << c;
    }
  }
}

std::string RowText(const Table& t, int64_t r) {
  std::string s;
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    if (c) s += '\x1f';
    s += t.at(r, c).is_null() ? std::string("<null>") : t.at(r, c).ToString();
  }
  return s;
}

StatusOr<Table> RoundTrip(const Table& t,
                          const ColumnarWriterOptions& opts = {}) {
  SQLTS_ASSIGN_OR_RETURN(std::string bytes,
                         ColumnarWriter::WriteBytes(t, opts));
  SQLTS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarReader> reader,
                         ColumnarReader::OpenBytes(std::move(bytes)));
  return reader->ReadTable();
}

TEST(ColumnarRoundTrip, AdversarialValues) {
  Table t(QuoteSchema());
  // Strings with CSV-hostile content (commas, quotes, CR, LF, empty),
  // NULLs in both nullable columns, negative/huge int64, and doubles
  // that don't render losslessly in short decimal.
  ASSERT_TRUE(t.AppendRow(MakeRow("a,b", "1999-01-04", Value::Double(0.1),
                                  Value::Int64(INT64_MIN)))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("say \"hi\"", "1999-01-05", Value::Null(),
                                  Value::Int64(INT64_MAX)))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("line\r\nbreak", "1999-01-06",
                                  Value::Double(-0.0), Value::Null()))
                  .ok());
  ASSERT_TRUE(t.AppendRow(MakeRow("", "1999-01-07",
                                  Value::Double(1.0 / 3.0),
                                  Value::Int64(-1)))
                  .ok());
  ASSERT_TRUE(
      t.AppendRow(MakeRow("plain", "1999-01-08", Value::Null(), Value::Null()))
          .ok());
  auto back = RoundTrip(t);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(t, *back);
}

TEST(ColumnarRoundTrip, CsvEdgeCasesThroughConversion) {
  // The sqlts_cli --convert pipeline: CSV text (quoted separators,
  // escaped quotes, CRLF record terminators, embedded newlines, blank
  // cells = NULL) -> Table -> columnar bytes -> decoded Table must be
  // cell-identical to the parsed CSV.
  const std::string csv =
      "name,date,price,vol\r\n"
      "\"a,b\",1999-01-04,10.5,3\r\n"
      "\"say \"\"hi\"\"\",1999-01-05,,7\r\n"
      "\"two\nlines\",1999-01-06,12.25,\r\n"
      "plain,1999-01-07,13,9\r\n";
  auto parsed = ReadCsvString(csv, QuoteSchema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_rows(), 4);
  EXPECT_TRUE(parsed->at(1, 2).is_null());
  EXPECT_TRUE(parsed->at(2, 3).is_null());
  auto back = RoundTrip(*parsed);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(*parsed, *back);
}

TEST(ColumnarRoundTrip, EmptyTableAndManyBlocks) {
  Table empty(QuoteSchema());
  auto back = RoundTrip(empty);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 0);

  // > 2 blocks in one cluster: exercises block splitting + FOR/RLE
  // encodings on the monotone/constant columns.
  Table big(QuoteSchema());
  for (int i = 0; i < 700; ++i) {
    Date d = *Date::Parse("1999-01-04");
    ASSERT_TRUE(big.AppendRow({Value::String("IBM"),
                               Value::FromDate(Date(d.days_since_epoch() + i)),
                               Value::Double(80 + (i % 7)),
                               Value::Int64(1000 + i)})
                    .ok());
  }
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(big, opts)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  EXPECT_EQ(reader->footer().blocks.size(), 3u);  // 256 + 256 + 188
  EXPECT_TRUE(reader->footer().clustered);
  auto full = reader->ReadTable();
  ASSERT_TRUE(full.ok()) << full.status();
  ExpectTablesEqual(big, *full);
}

/// A file under the test temp directory, removed when the test ends.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name + "." +
              std::to_string(::getpid())) {}
  ~TempFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Three clusters over many blocks, with NULLs in both nullable columns.
Table ManyBlockTable() {
  Table t(QuoteSchema());
  const char* names[] = {"IBM", "AAPL", "XEROX"};
  const int rows[] = {700, 300, 1100};
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < rows[k]; ++i) {
      SQLTS_CHECK_OK(t.AppendRow(
          {Value::String(names[k]), Value::FromDate(Date(10000 + i)),
           i % 11 == 0 ? Value::Null() : Value::Double(80 + (i % 13) * 0.5),
           i % 17 == 0 ? Value::Null() : Value::Int64(1000 + i * k)}));
    }
  }
  return t;
}

// Block fetches of a file-backed reader take no lock: four threads
// decoding every block range at once must each see exactly the rows a
// one-threaded full decode sees.
TEST(ShardedColumnarRead, FourThreadsOverEveryBlockRangeMatchReadTable) {
  TempFile file("sharded_read.sqlc");
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  ASSERT_TRUE(
      ColumnarWriter::WriteFile(ManyBlockTable(), file.path(), opts).ok());
  auto reader = ColumnarReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto full = (*reader)->ReadTable();
  ASSERT_TRUE(full.ok()) << full.status();
  const std::vector<RowBlockMeta>& blocks = (*reader)->footer().blocks;
  const int num_blocks = static_cast<int>(blocks.size());
  ASSERT_GE(num_blocks, 9);
  std::vector<std::pair<int, int>> ranges;
  for (int first = 0; first < num_blocks; ++first) {
    for (int count = 1; first + count <= num_blocks; ++count) {
      ranges.emplace_back(first, count);
    }
  }

  std::atomic<int> failures{0};
  std::atomic<int64_t> cells{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < ranges.size(); i += 4) {
        const auto [first, count] = ranges[i];
        StatusOr<Table> part = (*reader)->ReadBlockRange(first, count);
        if (!part.ok()) {
          ++failures;
          continue;
        }
        const int64_t row0 = blocks[first].start_row;
        for (int64_t r = 0; r < part->num_rows(); ++r) {
          for (int c = 0; c < part->schema().num_columns(); ++c) {
            if (!part->at(r, c).StructurallyEquals(full->at(row0 + r, c))) {
              ++failures;
            }
            ++cells;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every range was decoded in full: sum over ranges of their rows.
  int64_t want = 0;
  for (const auto& [first, count] : ranges) {
    want += blocks[first + count - 1].start_row +
            blocks[first + count - 1].row_count - blocks[first].start_row;
  }
  EXPECT_EQ(cells.load(), want * full->schema().num_columns());
}

TEST(ColumnarReaderFile, TruncatedAfterOpenIsAShortBlockRead) {
  TempFile file("truncated.sqlc");
  ASSERT_TRUE(ColumnarWriter::WriteFile(ManyBlockTable(), file.path()).ok());
  auto reader = ColumnarReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE((*reader)->ReadBlockRange(0, 1).ok());
  // Cut the data region short under the open reader: the footer it
  // already holds still points past the new end.
  std::filesystem::resize_file(file.path(), kColumnarHeaderSize + 100);
  auto back = (*reader)->ReadTable();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError) << back.status();
  EXPECT_NE(back.status().message().find("short block read"),
            std::string::npos)
      << back.status();
}

/// A pread(2) that hands out at most 7 bytes a call and fails every
/// other call with EINTR.
int g_pread_calls = 0;
ssize_t ChoppyPread(int fd, void* buf, size_t count, off_t offset) {
  if (g_pread_calls++ % 2 == 0) {
    errno = EINTR;
    return -1;
  }
  return ::pread(fd, buf, std::min<size_t>(count, 7), offset);
}

ssize_t FailingPread(int, void*, size_t, off_t) {
  errno = EIO;
  return -1;
}

TEST(ColumnarReaderFile, PreadFullLoopsOnPartialReadsAndEintr) {
  TempFile file("pread.bin");
  std::string content;
  for (int i = 0; i < 1000; ++i) content.push_back(static_cast<char>(i * 7));
  std::ofstream(file.path(), std::ios::binary) << content;
  const int fd = ::open(file.path().c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  std::string buf(500, '\0');
  g_pread_calls = 0;
  auto got = PreadFull(fd, 100, buf.data(), buf.size(), ChoppyPread);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 500u);
  EXPECT_EQ(buf, content.substr(100, 500));
  EXPECT_GT(g_pread_calls, 2 * (500 / 7));  // it really was chopped

  // The file ends first: the count says how much there was.
  got = PreadFull(fd, 900, buf.data(), buf.size(), ChoppyPread);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 100u);
  EXPECT_EQ(buf.substr(0, 100), content.substr(900));

  got = PreadFull(fd, 0, buf.data(), buf.size(), FailingPread);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  ::close(fd);
}

TEST(ColumnarLayout, ClusteredFileIsClusterMajorAndSorted) {
  // Interleaved arrival order; the clustered writer must store rows
  // cluster-major (first-appearance order: B then A) and date-sorted
  // within each cluster, with blocks never spanning clusters.
  Table t(QuoteSchema());
  auto add = [&](const char* n, const char* d, double p) {
    ASSERT_TRUE(
        t.AppendRow(MakeRow(n, d, Value::Double(p), Value::Int64(0))).ok());
  };
  add("B", "1999-01-06", 1);
  add("A", "1999-01-05", 2);
  add("B", "1999-01-04", 3);
  add("A", "1999-01-07", 4);
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(t, opts)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  const ColumnarFooter& f = reader->footer();
  ASSERT_EQ(f.clusters.size(), 2u);
  EXPECT_EQ(f.clusters[0].key[0].string_value(), "B");
  EXPECT_EQ(f.clusters[1].key[0].string_value(), "A");
  for (const RowBlockMeta& b : f.blocks) EXPECT_GE(b.cluster, 0);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 4);
  EXPECT_EQ(back->at(0, 0).string_value(), "B");
  EXPECT_EQ(back->at(0, 1).date_value(), *Date::Parse("1999-01-04"));
  EXPECT_EQ(back->at(1, 1).date_value(), *Date::Parse("1999-01-06"));
  EXPECT_EQ(back->at(2, 0).string_value(), "A");
  EXPECT_EQ(back->at(2, 1).date_value(), *Date::Parse("1999-01-05"));
}

TEST(ColumnarLayout, EncodingsActuallyCompress) {
  // Constant int64 -> width-0 FOR (9 bytes, beats RLE's 16); long runs
  // -> RLE; small-range int64 -> FOR or RLE; repeated strings ->
  // dictionary.  This pins the encoder's choices so a regression to
  // raw encodings is visible.
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("tag", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("k", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("c", TypeKind::kInt64));
  SQLTS_CHECK_OK(s.AddColumn("runs", TypeKind::kInt64));
  Table t(s);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String(i % 2 ? "yes" : "no"),
                             Value::Int64(100 + i % 10), Value::Int64(42),
                             Value::Int64(i / 128)})
                    .ok());
  }
  auto bytes = (ColumnarWriter::WriteBytes(t)).value();
  auto reader = (ColumnarReader::OpenBytes(std::move(bytes))).value();
  const ColumnarFooter& f = reader->footer();
  ASSERT_EQ(f.blocks.size(), 1u);
  EXPECT_EQ(f.columns[0][0].encoding, BlockEncoding::kDict);
  EXPECT_TRUE(f.columns[1][0].encoding == BlockEncoding::kForI64 ||
              f.columns[1][0].encoding == BlockEncoding::kRleI64);
  EXPECT_EQ(f.columns[2][0].encoding, BlockEncoding::kForI64);
  EXPECT_EQ(f.columns[3][0].encoding, BlockEncoding::kRleI64);
  // Sketches carry exact zone bounds.
  EXPECT_EQ(f.columns[1][0].sketch.min.int64_value(), 100);
  EXPECT_EQ(f.columns[1][0].sketch.max.int64_value(), 109);
  EXPECT_EQ(f.columns[2][0].sketch.null_count, 0);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(t, *back);
}

TEST(ColumnarFormat, BloomPrimitives) {
  std::string bits(kColBloomBytes, '\0');
  BloomAdd(&bits, BloomHashBytes("IBM"));
  BloomAdd(&bits, BloomHashInt64(12345));
  EXPECT_TRUE(BloomMayContain(bits, BloomHashBytes("IBM")));
  EXPECT_TRUE(BloomMayContain(bits, BloomHashInt64(12345)));
  EXPECT_FALSE(BloomMayContain(bits, BloomHashBytes("INTC")));
  EXPECT_FALSE(BloomMayContain(bits, BloomHashInt64(54321)));
}

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk format is pinned byte-for-byte.  Any change
// to the container layout must bump kColumnarVersion and regenerate the
// golden with SQLTS_UPDATE_GOLDEN=1.
// ---------------------------------------------------------------------------

Table GoldenTable() {
  Table t(QuoteSchema());
  const char* days[] = {"1999-01-04", "1999-01-05", "1999-01-06"};
  const char* names[] = {"IBM", "INTC"};
  int i = 0;
  for (const char* n : names) {
    for (const char* d : days) {
      SQLTS_CHECK_OK(t.AppendRow(MakeRow(
          n, d, i % 5 == 4 ? Value::Null() : Value::Double(60 + 2 * i),
          Value::Int64(1000 + i))));
      ++i;
    }
  }
  return t;
}

TEST(ColumnarFormat, GoldenBytes) {
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(GoldenTable(), opts)).value();
  const std::string path = std::string(SQLTS_TEST_DATA_DIR) + "/golden.sqlc";
  if (std::getenv("SQLTS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "failed to rewrite " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with SQLTS_UPDATE_GOLDEN=1)";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string golden = ss.str();
  ASSERT_EQ(bytes.size(), golden.size())
      << "container size drifted; format changes need a version bump";
  EXPECT_TRUE(bytes == golden)
      << "container bytes drifted from tests/data/golden.sqlc; a format "
         "change must bump kColumnarVersion and regenerate the golden";
  // And the pinned bytes still decode to the source rows.
  auto reader = (ColumnarReader::OpenBytes(std::move(golden))).value();
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesEqual(GoldenTable(), *back);
}

// ---------------------------------------------------------------------------
// Corruption: every malformed container must fail with a typed Status.
// ---------------------------------------------------------------------------

std::string ValidContainer() {
  ColumnarWriterOptions opts;
  opts.cluster_by = {"name"};
  opts.sequence_by = {"date"};
  auto bytes = (ColumnarWriter::WriteBytes(GoldenTable(), opts)).value();
  return bytes;
}

bool IsTypedFailure(const Status& s) {
  return s.code() == StatusCode::kParseError ||
         s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kInvalidArgument;
}

TEST(ColumnarCorruption, HeaderValidation) {
  const std::string bytes = ValidContainer();
  EXPECT_TRUE(ColumnarReader::SniffBytes(bytes));
  EXPECT_FALSE(ColumnarReader::SniffBytes("name,date\nIBM,1999-01-04\n"));
  EXPECT_FALSE(ColumnarReader::SniffBytes(""));

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  auto r = ColumnarReader::OpenBytes(bad_magic);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();

  std::string bad_version = bytes;
  bad_version[8] = 99;  // version field
  r = ColumnarReader::OpenBytes(bad_version);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();

  r = ColumnarReader::OpenBytes(bytes.substr(0, kColumnarHeaderSize - 1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTypedFailure(r.status())) << r.status();
}

TEST(ColumnarCorruption, BlockBitflipDetectedExactlyWhenRead) {
  // Flip one byte inside block 0's first column.  The footer stays
  // intact, so Open succeeds; reading the damaged block fails its
  // per-block checksum; reading only the *other* block still works —
  // the format doc's "corruption is detected iff the block is read".
  std::string bytes = ValidContainer();
  auto probe = (ColumnarReader::OpenBytes(bytes)).value();
  ASSERT_GE(probe->footer().blocks.size(), 2u);  // one block per cluster
  const ColumnBlockMeta& target = probe->footer().columns[0][0];
  ASSERT_GT(target.size, 0u);
  bytes[target.offset] = static_cast<char>(bytes[target.offset] ^ 0x40);

  auto reader = (ColumnarReader::OpenBytes(bytes)).value();
  auto damaged = reader->ReadBlockRange(0, 1);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kParseError)
      << damaged.status();
  auto intact = reader->ReadBlockRange(1, 1);
  EXPECT_TRUE(intact.ok()) << intact.status();
}

TEST(ColumnarCorruption, TruncationFuzz) {
  const std::string bytes = ValidContainer();
  const std::vector<std::string> reference = [&] {
    auto r = (ColumnarReader::OpenBytes(bytes)).value();
    auto t = (r->ReadTable()).value();
    std::vector<std::string> rows;
    for (int64_t i = 0; i < t.num_rows(); ++i) rows.push_back(RowText(t, i));
    return rows;
  }();
  int failures = 0;
  for (size_t len = 0; len < bytes.size(); len += 3) {
    auto r = ColumnarReader::OpenBytes(bytes.substr(0, len));
    if (!r.ok()) {
      EXPECT_TRUE(IsTypedFailure(r.status())) << "len=" << len << ": "
                                              << r.status();
      ++failures;
      continue;
    }
    auto t = (*r)->ReadTable();
    if (!t.ok()) {
      EXPECT_TRUE(IsTypedFailure(t.status())) << "len=" << len << ": "
                                              << t.status();
      ++failures;
    }
  }
  // Every strict prefix must have been rejected somewhere.
  EXPECT_EQ(failures, static_cast<int>((bytes.size() + 2) / 3));
  (void)reference;
}

TEST(ColumnarCorruption, BitflipFuzz) {
  const std::string bytes = ValidContainer();
  std::mt19937_64 rng(0xc0ffee);
  std::uniform_int_distribution<size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  const std::vector<std::string> reference = [&] {
    auto r = (ColumnarReader::OpenBytes(bytes)).value();
    auto t = (r->ReadTable()).value();
    std::vector<std::string> rows;
    for (int64_t i = 0; i < t.num_rows(); ++i) rows.push_back(RowText(t, i));
    return rows;
  }();
  int detected = 0;
  const int kIters = 300;
  for (int i = 0; i < kIters; ++i) {
    std::string mutated = bytes;
    const size_t p = pos(rng);
    mutated[p] = static_cast<char>(mutated[p] ^ (1u << bit(rng)));
    auto r = ColumnarReader::OpenBytes(std::move(mutated));
    if (!r.ok()) {
      EXPECT_TRUE(IsTypedFailure(r.status())) << "flip@" << p << ": "
                                              << r.status();
      ++detected;
      continue;
    }
    auto t = (*r)->ReadTable();
    if (!t.ok()) {
      EXPECT_TRUE(IsTypedFailure(t.status())) << "flip@" << p << ": "
                                              << t.status();
      ++detected;
      continue;
    }
    // A flip the checksums did not catch must not have changed any
    // decoded cell (it landed in dead bytes, if anywhere).
    ASSERT_EQ(t->num_rows(), static_cast<int64_t>(reference.size()));
    for (int64_t row = 0; row < t->num_rows(); ++row) {
      ASSERT_EQ(RowText(*t, row), reference[row]) << "flip@" << p;
    }
  }
  // FNV-1a over same-length inputs always separates single-byte
  // differences, and the header/footer fields are validated, so a flip
  // in any live byte is caught.
  EXPECT_GT(detected, kIters * 9 / 10);
}

}  // namespace
}  // namespace sqlts
