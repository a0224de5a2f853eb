#include "engine/checkpoint.h"

#include <cstring>

namespace sqlts {
namespace {

void AppendLe(std::string* out, uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

uint64_t LoadLe(std::string_view data, size_t pos, int bytes) {
  uint64_t v = 0;
  for (int b = 0; b < bytes; ++b) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + b]))
         << (8 * b);
  }
  return v;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void CheckpointWriter::WriteU8(uint8_t v) {
  payload_.push_back(static_cast<char>(v));
}

void CheckpointWriter::WriteU32(uint32_t v) { AppendLe(&payload_, v, 4); }

void CheckpointWriter::WriteU64(uint64_t v) { AppendLe(&payload_, v, 8); }

void CheckpointWriter::WriteI64(int64_t v) {
  AppendLe(&payload_, static_cast<uint64_t>(v), 8);
}

void CheckpointWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendLe(&payload_, bits, 8);
}

void CheckpointWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  payload_.append(s.data(), s.size());
}

void CheckpointWriter::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      WriteBool(v.bool_value());
      break;
    case TypeKind::kInt64:
      WriteI64(v.int64_value());
      break;
    case TypeKind::kDouble:
      WriteDouble(v.double_value());
      break;
    case TypeKind::kString:
      WriteString(v.string_value());
      break;
    case TypeKind::kDate:
      WriteI64(v.date_value().days_since_epoch());
      break;
  }
}

void CheckpointWriter::WriteRow(const Row& row) {
  WriteU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) WriteValue(v);
}

void CheckpointWriter::WriteRow(const Table& table, int64_t row) {
  WriteU32(static_cast<uint32_t>(table.schema().num_columns()));
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    const Column& col = table.column(c);
    const TypeKind kind = col.is_null(row) ? TypeKind::kNull : col.type();
    WriteU8(static_cast<uint8_t>(kind));
    switch (kind) {
      case TypeKind::kNull:
        break;
      case TypeKind::kBool:
        WriteBool(col.ints()[row] != 0);
        break;
      case TypeKind::kInt64:
      case TypeKind::kDate:  // the day number, as WriteValue writes it
        WriteI64(col.ints()[row]);
        break;
      case TypeKind::kDouble:
        WriteDouble(col.doubles()[row]);
        break;
      case TypeKind::kString:
        WriteString(col.string_at(row));
        break;
    }
  }
}

std::string CheckpointWriter::Finalize() const {
  std::string out(kCheckpointMagic);
  AppendLe(&out, kCheckpointVersion, 4);
  AppendLe(&out, payload_.size(), 8);
  AppendLe(&out, Fnv1a64(payload_), 8);
  out += payload_;
  return out;
}

Status CheckpointReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::IoError("checkpoint payload truncated: need " +
                           std::to_string(n) + " bytes at offset " +
                           std::to_string(pos_) + ", have " +
                           std::to_string(remaining()));
  }
  return Status::OK();
}

StatusOr<uint8_t> CheckpointReader::ReadU8() {
  SQLTS_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> CheckpointReader::ReadU32() {
  SQLTS_RETURN_IF_ERROR(Need(4));
  uint32_t v = static_cast<uint32_t>(LoadLe(data_, pos_, 4));
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> CheckpointReader::ReadU64() {
  SQLTS_RETURN_IF_ERROR(Need(8));
  uint64_t v = LoadLe(data_, pos_, 8);
  pos_ += 8;
  return v;
}

StatusOr<int64_t> CheckpointReader::ReadI64() {
  SQLTS_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

StatusOr<bool> CheckpointReader::ReadBool() {
  SQLTS_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  if (v > 1) return Status::IoError("checkpoint bool field out of range");
  return v == 1;
}

StatusOr<double> CheckpointReader::ReadDouble() {
  SQLTS_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> CheckpointReader::ReadString() {
  SQLTS_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  SQLTS_RETURN_IF_ERROR(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

StatusOr<Value> CheckpointReader::ReadValue() {
  SQLTS_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (static_cast<TypeKind>(tag)) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool: {
      SQLTS_ASSIGN_OR_RETURN(bool b, ReadBool());
      return Value::Bool(b);
    }
    case TypeKind::kInt64: {
      SQLTS_ASSIGN_OR_RETURN(int64_t i, ReadI64());
      return Value::Int64(i);
    }
    case TypeKind::kDouble: {
      SQLTS_ASSIGN_OR_RETURN(double d, ReadDouble());
      return Value::Double(d);
    }
    case TypeKind::kString: {
      SQLTS_ASSIGN_OR_RETURN(std::string s, ReadString());
      return Value::String(std::move(s));
    }
    case TypeKind::kDate: {
      SQLTS_ASSIGN_OR_RETURN(int64_t days, ReadI64());
      return Value::FromDate(Date(static_cast<int32_t>(days)));
    }
  }
  return Status::IoError("checkpoint value has unknown type tag " +
                         std::to_string(tag));
}

StatusOr<Row> CheckpointReader::ReadRow() {
  SQLTS_ASSIGN_OR_RETURN(uint32_t arity, ReadU32());
  // Every value occupies at least its one-byte type tag, so an arity
  // larger than the remaining payload is corruption: reject it up front
  // rather than letting an adversarial length-prefix drive a huge
  // reserve() (allocation failure would escape as an exception from an
  // otherwise exception-free API).
  if (arity > remaining()) {
    return Status::IoError("checkpoint row arity " + std::to_string(arity) +
                           " exceeds the " + std::to_string(remaining()) +
                           " payload bytes remaining");
  }
  Row row;
  row.reserve(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    SQLTS_ASSIGN_OR_RETURN(Value v, ReadValue());
    row.push_back(std::move(v));
  }
  return row;
}

StatusOr<std::string_view> OpenCheckpoint(std::string_view bytes) {
  constexpr size_t kHeader = 8 + 4 + 8 + 8;
  if (bytes.size() < kHeader) {
    return Status::IoError("checkpoint too small to hold a header (" +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (bytes.substr(0, 8) != kCheckpointMagic) {
    return Status::IoError("checkpoint magic mismatch: not a SQL-TS "
                           "checkpoint");
  }
  uint32_t version = static_cast<uint32_t>(LoadLe(bytes, 8, 4));
  if (version != kCheckpointVersion) {
    return Status::IoError("unsupported checkpoint version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kCheckpointVersion) + ")");
  }
  uint64_t size = LoadLe(bytes, 12, 8);
  if (bytes.size() - kHeader != size) {
    return Status::IoError(
        "checkpoint payload size mismatch: header declares " +
        std::to_string(size) + " bytes, file carries " +
        std::to_string(bytes.size() - kHeader));
  }
  std::string_view payload = bytes.substr(kHeader);
  uint64_t checksum = LoadLe(bytes, 20, 8);
  if (Fnv1a64(payload) != checksum) {
    return Status::IoError("checkpoint checksum mismatch: payload is "
                           "corrupted");
  }
  return payload;
}

int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value) * (row.size() + 1));
  for (const Value& v : row) {
    if (v.kind() == TypeKind::kString) {
      bytes += static_cast<int64_t>(v.string_value().size());
    }
  }
  return bytes;
}

}  // namespace sqlts
