#ifndef SQLTS_COLSTORE_FORMAT_H_
#define SQLTS_COLSTORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace sqlts {

/// ---------------------------------------------------------------------
/// Persistent columnar container (ROADMAP item 3; docs/STORAGE.md).
///
/// A `.sqlc` file is a single self-describing container:
///
///   offset  size  field
///        0     8  magic "SQTSCOL1"
///        8     4  format version (little-endian u32, currently 1)
///       12     8  footer offset (little-endian u64)
///       20     8  footer size in bytes (little-endian u64)
///       28     8  FNV-1a 64 checksum of the footer bytes (LE)
///       36     …  block data region (concatenated encoded blocks)
///        …     …  footer (CheckpointWriter field conventions)
///
/// Rows are grouped into fixed-size row blocks of kColBlockRows
/// positions (aligned with the kernel tier's 256-lane blocks) that
/// never span a cluster boundary, and each column of each block is
/// encoded independently (per-column compression) and checksummed
/// separately — so a block the zone maps prove irrelevant is never
/// read, and corruption inside it is detected if and only if it is.
/// The footer carries the schema, the cluster directory, the block
/// directory, and per-(column, block) sketches: min/max zone maps,
/// null counts, and optional bloom filters.
/// ---------------------------------------------------------------------

inline constexpr std::string_view kColumnarMagic = "SQTSCOL1";
inline constexpr uint32_t kColumnarVersion = 1;
inline constexpr size_t kColumnarHeaderSize = 36;
/// Rows per block; equals expr/kernel.h's kKernelBlock so stored blocks
/// line up with vectorized evaluation blocks.
inline constexpr int kColBlockRows = 256;
/// Bloom filter geometry: 1024 bits, 4 probes per key.
inline constexpr size_t kColBloomBytes = 128;
inline constexpr int kColBloomProbes = 4;

/// How one column of one block is encoded in the data region.  Every
/// encoding stores only the non-NULL cells (densely packed); a leading
/// validity bitmap is present exactly when the block has NULLs.
enum class BlockEncoding : uint8_t {
  kRawI64 = 0,  ///< 8-byte LE two's-complement per value (int64/date)
  kRawF64 = 1,  ///< 8-byte LE IEEE-754 bit pattern per value
  kRawBool = 2, ///< 1 byte per value (0/1)
  kForI64 = 3,  ///< frame of reference: min + byte-width-packed deltas
  kRleI64 = 4,  ///< run-length: (value, run) pairs
  kDict = 5,    ///< prefix-compressed sorted dictionary + fixed indexes
};

std::string_view BlockEncodingName(BlockEncoding e);

/// Per-(column, block) statistics the skipping planner consumes.
/// `min`/`max` are typed Values over the non-NULL cells (NULL when the
/// block is entirely NULL); strings use lexicographic order.  `bloom`
/// is empty or exactly kColBloomBytes.
struct BlockSketch {
  Value min;
  Value max;
  int64_t null_count = 0;
  std::string bloom;
};

/// Location + integrity + sketch of one column of one block.
struct ColumnBlockMeta {
  BlockEncoding encoding = BlockEncoding::kRawI64;
  uint64_t offset = 0;    ///< absolute file offset of the encoded bytes
  uint64_t size = 0;      ///< encoded byte count
  uint64_t checksum = 0;  ///< FNV-1a 64 of the encoded bytes
  BlockSketch sketch;
};

/// One row block of the file (all columns share the row range).
struct RowBlockMeta {
  int64_t start_row = 0;
  int32_t row_count = 0;
  int32_t cluster = -1;  ///< owning cluster index; -1 when unclustered
};

/// One CLUSTER BY group: a contiguous row range covering whole blocks.
struct ClusterMeta {
  Row key;  ///< one value per cluster_by column
  int64_t start_row = 0;
  int64_t row_count = 0;
  int32_t first_block = 0;
  int32_t num_blocks = 0;
};

/// The decoded footer: everything needed to plan reads.
struct ColumnarFooter {
  Schema schema;
  int64_t num_rows = 0;
  int32_t block_rows = kColBlockRows;
  /// The physical ordering contract: when `clustered` is true the rows
  /// are stored cluster-major (clusters in first-appearance order of
  /// the source table) and sorted within each cluster by `sequence_by`
  /// (stable), i.e. exactly the order ClusteredSequence::Build yields.
  bool clustered = false;
  std::vector<std::string> cluster_by;
  std::vector<std::string> sequence_by;
  std::vector<ClusterMeta> clusters;    ///< empty when !clustered
  std::vector<RowBlockMeta> blocks;
  /// column-major: columns[c][b] describes column c of block b.
  std::vector<std::vector<ColumnBlockMeta>> columns;
};

/// Encodes the cells of `col` at source rows `rows[0, n)`, in that
/// (file) order, as one column block.  Picks the cheapest eligible
/// encoding for the column type, fills `meta`'s encoding + sketch
/// (offset/size/checksum are the caller's), and returns the encoded
/// bytes.  `want_bloom` adds a per-block bloom filter (string/int64/
/// date columns only).
std::string EncodeColumnBlock(const Column& col, const int64_t* rows, int n,
                              bool want_bloom, ColumnBlockMeta* meta);

/// Decodes one encoded column block of `rows` cells, appending them to
/// `out` (whose type is the column's).  A kDict block's strings are
/// interned into `out`'s dictionary once each and its indexes become
/// codes.  Bounds-checked: corrupt or truncated bytes yield a typed
/// ParseError, never UB or a crash.
Status DecodeColumnBlock(std::string_view bytes, BlockEncoding encoding,
                         int rows, int64_t null_count, Column* out);

/// Footer serialization (CheckpointWriter/Reader field conventions).
std::string EncodeFooter(const ColumnarFooter& footer);
/// Decodes and *validates* a footer against `file_size`: every offset/
/// size must stay inside the data region, cluster and block directories
/// must tile [0, num_rows) consistently.  Corruption yields ParseError.
StatusOr<ColumnarFooter> DecodeFooter(std::string_view payload,
                                      uint64_t file_size);

/// Bloom filter primitives (split-probe FNV double hashing).
uint64_t BloomHashBytes(std::string_view bytes);
uint64_t BloomHashInt64(int64_t v);
void BloomAdd(std::string* bits, uint64_t hash);
/// False only when the key is definitely absent.
bool BloomMayContain(std::string_view bits, uint64_t hash);

}  // namespace sqlts

#endif  // SQLTS_COLSTORE_FORMAT_H_
