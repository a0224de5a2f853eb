#ifndef SQLTS_ENGINE_CHECKPOINT_H_
#define SQLTS_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace sqlts {

/// Binary checkpoint container: a fixed self-describing header followed
/// by an opaque payload.
///
///   offset  size  field
///        0     8  magic "SQTSCKPT"
///        8     4  format version (little-endian u32, kCheckpointVersion)
///       12     8  payload size in bytes (little-endian u64)
///       20     8  FNV-1a 64 checksum of the payload (little-endian)
///       28     …  payload
///
/// All integers little-endian.  The payload is written/read with
/// CheckpointWriter/CheckpointReader; every variable-length field is
/// length-prefixed, so a reader can skip content it does not
/// understand and corruption is caught either by the checksum or by a
/// typed read failing its bounds check.
inline constexpr std::string_view kCheckpointMagic = "SQTSCKPT";
/// Version 2: a streaming cluster is written once per scan group —
/// rows from the lowest cursor reach, then each cursor's slot, floor
/// and attempt state.  Version 3: route keys are the typed
/// EncodeClusterKey bytes (storage/cluster_key.h), not version 2's
/// rendered text, so a version 2 key would name a route no new tuple
/// reaches.  Other versions are refused.
inline constexpr uint32_t kCheckpointVersion = 3;

/// FNV-1a 64-bit hash (the header checksum).
uint64_t Fnv1a64(std::string_view bytes);

/// Appends typed fields to a growing payload buffer.
class CheckpointWriter {
 public:
  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteDouble(double v);
  /// Length-prefixed (u64) raw bytes.
  void WriteString(std::string_view s);
  /// Type tag (u8 TypeKind) + kind-specific payload; NULL is just the tag.
  void WriteValue(const Value& v);
  /// Arity (u32) + each value.
  void WriteRow(const Row& row);
  /// The same bytes as WriteRow(table.GetRow(row)), read from the
  /// typed slots without boxing a Value.
  void WriteRow(const Table& table, int64_t row);

  const std::string& payload() const { return payload_; }

  /// Wraps the accumulated payload in the versioned checksummed header.
  std::string Finalize() const;

 private:
  std::string payload_;
};

/// Bounds-checked sequential reader over a checkpoint payload.  Every
/// accessor fails with a typed Status instead of reading out of range,
/// so truncated or corrupted payloads surface as errors, never UB.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view payload) : data_(payload) {}

  StatusOr<uint8_t> ReadU8();
  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int64_t> ReadI64();
  StatusOr<bool> ReadBool();
  StatusOr<double> ReadDouble();
  StatusOr<std::string> ReadString();
  StatusOr<Value> ReadValue();
  StatusOr<Row> ReadRow();

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

/// Validates `bytes` as a checkpoint (magic, version, size, checksum)
/// and returns a view of the payload.  The view borrows `bytes`.
StatusOr<std::string_view> OpenCheckpoint(std::string_view bytes);

/// Rough live-memory estimate of a buffered row (payload bytes plus
/// per-value bookkeeping), used for the byte-budget ledger.
int64_t EstimateRowBytes(const Row& row);

}  // namespace sqlts

#endif  // SQLTS_ENGINE_CHECKPOINT_H_
