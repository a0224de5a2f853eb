#ifndef SQLTS_COLSTORE_READER_H_
#define SQLTS_COLSTORE_READER_H_

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "colstore/format.h"
#include "common/statusor.h"
#include "storage/table.h"

namespace sqlts {

/// pread(2)'s signature, for PreadFull.
using PreadFn = ssize_t (*)(int fd, void* buf, size_t count, off_t offset);

/// Reads up to `n` bytes at `offset` of `fd` into `buf` by positional
/// reads, which move no shared file position, so concurrent callers
/// need no lock.  Loops on partial reads and EINTR; the count returned
/// is below `n` only at end of file.  IoError on any other read
/// failure.  `pread_fn` is pread(2) unless a test substitutes one.
StatusOr<size_t> PreadFull(int fd, uint64_t offset, char* buf, size_t n,
                           PreadFn pread_fn = ::pread);

/// Random-access reader over a `.sqlc` columnar container.
///
/// Open() validates the header, loads and checksum-verifies the footer,
/// and validates the whole directory (DecodeFooter) — but reads no block
/// data.  Block bytes are fetched lazily, verified against their
/// per-block FNV-1a checksum on every fetch, and decoded on demand
/// straight into typed columns, so blocks the zone maps prove
/// irrelevant cost zero I/O.  Fetches take no lock: a file-backed
/// reader reads each block with its own positional pread(2), and an
/// in-memory image hands out a view of its bytes.  The reader is safe
/// to share across the sharded executor's workers.
class ColumnarReader {
 public:
  /// Opens a container file.  Magic/version/footer-checksum mismatches
  /// and directory inconsistencies yield typed errors.
  static StatusOr<std::unique_ptr<ColumnarReader>> Open(
      const std::string& path);

  /// Opens an in-memory container image (tests, corruption fuzzing).
  static StatusOr<std::unique_ptr<ColumnarReader>> OpenBytes(
      std::string bytes);

  /// True when `path` starts with the columnar magic (format
  /// auto-detection; false on unreadable or short files).
  static bool SniffFile(const std::string& path);
  static bool SniffBytes(std::string_view bytes);

  ~ColumnarReader();
  ColumnarReader(const ColumnarReader&) = delete;
  ColumnarReader& operator=(const ColumnarReader&) = delete;

  const ColumnarFooter& footer() const { return footer_; }
  const Schema& schema() const { return footer_.schema; }

  /// Decodes every column of blocks [first_block, first_block +
  /// num_blocks) into a row-aligned Table (the contiguous-segment form
  /// the matchers consume).
  StatusOr<Table> ReadBlockRange(int first_block, int num_blocks);

  /// Full decode of the file in stored row order.
  StatusOr<Table> ReadTable();

  /// Cumulative encoded payload bytes fetched from the container so
  /// far (excludes header/footer; feeds SearchStats::bytes_read).
  int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 private:
  ColumnarReader() = default;

  /// Fetches + checksum-verifies the encoded bytes of (col, block): a
  /// view of the in-memory image, or of `*scratch` after a pread.
  StatusOr<std::string_view> FetchBlockBytes(int col, int block,
                                             std::string* scratch);

  ColumnarFooter footer_;
  uint64_t file_size_ = 0;

  int fd_ = -1;         // file-backed mode; closed by the destructor
  std::string buffer_;  // in-memory mode (immutable after Open)
  std::atomic<int64_t> bytes_read_{0};
};

}  // namespace sqlts

#endif  // SQLTS_COLSTORE_READER_H_
