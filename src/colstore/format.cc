#include "colstore/format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "engine/checkpoint.h"

namespace sqlts {
namespace {

void PutU8(std::string* s, uint8_t v) { s->push_back(static_cast<char>(v)); }

void PutU32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(s, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(s, static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::string* s, int64_t v) { PutU64(s, static_cast<uint64_t>(v)); }

/// Bounds-checked little-endian reader over encoded block bytes.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool Need(size_t n) const { return data_.size() - pos_ >= n; }
  size_t remaining() const { return data_.size() - pos_; }

  StatusOr<uint8_t> U8() {
    if (!Need(1)) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  StatusOr<uint32_t> U32() {
    if (!Need(4)) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  StatusOr<std::string_view> Bytes(size_t n) {
    if (!Need(n)) return Truncated();
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  static Status Truncated() {
    return Status::ParseError("columnar block: truncated payload");
  }
  std::string_view data_;
  size_t pos_ = 0;
};

/// An int slot of an INT64 or DATE column as its Value.
Value I64Cell(int64_t raw, TypeKind type) {
  return type == TypeKind::kDate
             ? Value::FromDate(Date(static_cast<int32_t>(raw)))
             : Value::Int64(raw);
}

int ForWidth(uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xffu) return 1;
  if (range <= 0xffffu) return 2;
  if (range <= 0xffffffffu) return 4;
  return 8;
}

std::string EncodeI64s(const std::vector<int64_t>& vals,
                       BlockEncoding* encoding) {
  const size_t n = vals.size();
  if (n == 0) {
    *encoding = BlockEncoding::kRawI64;
    return {};
  }
  int64_t lo = vals[0], hi = vals[0];
  size_t runs = 1;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, vals[i]);
    hi = std::max(hi, vals[i]);
    if (vals[i] != vals[i - 1]) ++runs;
  }
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const int width = ForWidth(range);
  const size_t for_size = 9 + n * static_cast<size_t>(width);
  const size_t rle_size = 4 + runs * 12;
  std::string out;
  if (rle_size < for_size) {
    *encoding = BlockEncoding::kRleI64;
    out.reserve(rle_size);
    PutU32(&out, static_cast<uint32_t>(runs));
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j < n && vals[j] == vals[i]) ++j;
      PutI64(&out, vals[i]);
      PutU32(&out, static_cast<uint32_t>(j - i));
      i = j;
    }
  } else {
    *encoding = BlockEncoding::kForI64;
    out.reserve(for_size);
    PutI64(&out, lo);
    PutU8(&out, static_cast<uint8_t>(width));
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d =
          static_cast<uint64_t>(vals[i]) - static_cast<uint64_t>(lo);
      for (int b = 0; b < width; ++b) {
        PutU8(&out, static_cast<uint8_t>(d >> (8 * b)));
      }
    }
  }
  return out;
}

/// Little-endian unsigned integer of `width` (0 to 8) bytes at `p`.
inline uint64_t LoadLe(const char* p, int width) {
  uint64_t v = 0;
  for (int b = 0; b < width; ++b) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[b])) << (8 * b);
  }
  return v;
}

/// `lo` plus each of `n` packed `W`-byte deltas at `p`.
template <int W>
void UnpackFor(const char* p, uint64_t lo, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(lo + LoadLe(p + i * W, W));
  }
}

/// Decodes `n` int64 values into `out[0, n)`.
Status DecodeI64s(std::string_view bytes, BlockEncoding encoding, size_t n,
                  int64_t* out) {
  switch (encoding) {
    case BlockEncoding::kRawI64:
      if (bytes.size() != 8 * n) break;
      UnpackFor<8>(bytes.data(), 0, n, out);
      return Status::OK();
    case BlockEncoding::kForI64: {
      if (bytes.size() < 9) break;
      const uint64_t lo = LoadLe(bytes.data(), 8);
      const int width = static_cast<uint8_t>(bytes[8]);
      if (width != 0 && width != 1 && width != 2 && width != 4 &&
          width != 8) {
        return Status::ParseError("columnar block: bad FOR width");
      }
      if (bytes.size() != 9 + n * width) break;
      const char* p = bytes.data() + 9;
      switch (width) {
        case 0: UnpackFor<0>(p, lo, n, out); break;
        case 1: UnpackFor<1>(p, lo, n, out); break;
        case 2: UnpackFor<2>(p, lo, n, out); break;
        case 4: UnpackFor<4>(p, lo, n, out); break;
        default: UnpackFor<8>(p, lo, n, out); break;
      }
      return Status::OK();
    }
    case BlockEncoding::kRleI64: {
      if (bytes.size() < 4) break;
      const uint64_t runs = LoadLe(bytes.data(), 4);
      if (bytes.size() != 4 + 12 * runs) break;
      size_t done = 0;
      for (uint64_t r = 0; r < runs; ++r) {
        const char* run = bytes.data() + 4 + 12 * r;
        const int64_t v = static_cast<int64_t>(LoadLe(run, 8));
        const uint64_t len = LoadLe(run + 8, 4);
        if (len == 0 || done + len > n) {
          return Status::ParseError("columnar block: bad RLE run");
        }
        std::fill(out + done, out + done + len, v);
        done += len;
      }
      if (done != n) break;
      return Status::OK();
    }
    default:
      return Status::ParseError("columnar block: encoding/type mismatch");
  }
  return Status::ParseError("columnar block: length mismatch");
}

/// Sorted unique dictionary with common-prefix compression, then one
/// fixed-width index per value.  `codes` are the values' codes in
/// `dict`; distinct codes are distinct strings.
std::string EncodeDict(const std::vector<int64_t>& codes,
                       const StringDict& dict) {
  std::vector<int64_t> sorted(codes);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::sort(sorted.begin(), sorted.end(), [&dict](int64_t a, int64_t b) {
    return dict.at(a) < dict.at(b);
  });
  // (code, index) pairs ordered by code, for the index lookup below.
  std::vector<std::pair<int64_t, uint32_t>> index;
  index.reserve(sorted.size());
  std::string out;
  PutU32(&out, static_cast<uint32_t>(sorted.size()));
  for (size_t i = 0; i < sorted.size(); ++i) {
    const std::string& curr = dict.at(sorted[i]);
    size_t prefix = 0;
    if (i > 0) {
      const std::string& prev = dict.at(sorted[i - 1]);
      const size_t limit = std::min(prev.size(), curr.size());
      while (prefix < limit && prev[prefix] == curr[prefix]) ++prefix;
    }
    PutU32(&out, static_cast<uint32_t>(prefix));
    PutU32(&out, static_cast<uint32_t>(curr.size() - prefix));
    out.append(curr, prefix, curr.size() - prefix);
    index.emplace_back(sorted[i], static_cast<uint32_t>(i));
  }
  std::sort(index.begin(), index.end());
  const int width =
      sorted.size() <= 0xff ? 1 : sorted.size() <= 0xffff ? 2 : 4;
  PutU8(&out, static_cast<uint8_t>(width));
  for (int64_t code : codes) {
    const uint32_t idx =
        std::lower_bound(index.begin(), index.end(),
                         std::make_pair(code, uint32_t{0}))
            ->second;
    for (int b = 0; b < width; ++b) {
      PutU8(&out, static_cast<uint8_t>(idx >> (8 * b)));
    }
  }
  return out;
}

/// Decodes a dictionary block of `n` values: each block dictionary
/// entry is interned into `out`'s dictionary once, and the values
/// become codes in `codes[0, n)`.
Status DecodeDict(std::string_view bytes, size_t n, Column* out,
                  int64_t* codes) {
  Cursor cur(bytes);
  SQLTS_ASSIGN_OR_RETURN(uint32_t dict_size, cur.U32());
  if (dict_size > bytes.size()) {
    return Status::ParseError("columnar block: dictionary too large");
  }
  std::vector<int64_t> remap;
  remap.reserve(dict_size);
  std::string entry;
  for (uint32_t i = 0; i < dict_size; ++i) {
    SQLTS_ASSIGN_OR_RETURN(uint32_t prefix, cur.U32());
    SQLTS_ASSIGN_OR_RETURN(uint32_t suffix, cur.U32());
    if (i == 0 ? prefix != 0 : prefix > entry.size()) {
      return Status::ParseError("columnar block: bad dictionary prefix");
    }
    SQLTS_ASSIGN_OR_RETURN(std::string_view tail, cur.Bytes(suffix));
    entry.resize(prefix);
    entry.append(tail);
    remap.push_back(out->InternString(entry));
  }
  SQLTS_ASSIGN_OR_RETURN(uint8_t width, cur.U8());
  if (width != 1 && width != 2 && width != 4) {
    return Status::ParseError("columnar block: bad dictionary index width");
  }
  if (cur.remaining() != n * width) {
    return Status::ParseError(cur.remaining() < n * width
                                  ? "columnar block: truncated payload"
                                  : "columnar block: trailing bytes");
  }
  SQLTS_ASSIGN_OR_RETURN(std::string_view raw, cur.Bytes(n * width));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t idx = LoadLe(raw.data() + i * width, width);
    if (idx >= dict_size) {
      return Status::ParseError("columnar block: dictionary index range");
    }
    codes[i] = remap[idx];
  }
  return Status::OK();
}

}  // namespace

std::string_view BlockEncodingName(BlockEncoding e) {
  switch (e) {
    case BlockEncoding::kRawI64: return "raw-i64";
    case BlockEncoding::kRawF64: return "raw-f64";
    case BlockEncoding::kRawBool: return "raw-bool";
    case BlockEncoding::kForI64: return "for-i64";
    case BlockEncoding::kRleI64: return "rle-i64";
    case BlockEncoding::kDict: return "dict";
  }
  return "?";
}

uint64_t BloomHashBytes(std::string_view bytes) { return Fnv1a64(bytes); }

uint64_t BloomHashInt64(int64_t v) {
  char raw[8];
  const uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>(u >> (8 * i));
  return Fnv1a64(std::string_view(raw, 8));
}

namespace {
inline uint32_t BloomProbe(uint64_t hash, int k) {
  const uint64_t h2 = hash * 0x9e3779b97f4a7c15ull | 1;
  return static_cast<uint32_t>((hash + static_cast<uint64_t>(k) * h2) %
                               (kColBloomBytes * 8));
}
}  // namespace

void BloomAdd(std::string* bits, uint64_t hash) {
  if (bits->size() != kColBloomBytes) bits->assign(kColBloomBytes, '\0');
  for (int k = 0; k < kColBloomProbes; ++k) {
    const uint32_t p = BloomProbe(hash, k);
    (*bits)[p >> 3] |= static_cast<char>(1u << (p & 7));
  }
}

bool BloomMayContain(std::string_view bits, uint64_t hash) {
  if (bits.size() != kColBloomBytes) return true;  // no filter: unknown
  for (int k = 0; k < kColBloomProbes; ++k) {
    const uint32_t p = BloomProbe(hash, k);
    if ((static_cast<uint8_t>(bits[p >> 3]) & (1u << (p & 7))) == 0) {
      return false;
    }
  }
  return true;
}

std::string EncodeColumnBlock(const Column& col, const int64_t* rows, int n,
                              bool want_bloom, ColumnBlockMeta* meta) {
  const TypeKind type = col.type();
  BlockSketch& sketch = meta->sketch;
  sketch = BlockSketch{};
  std::string bitmap((n + 7) / 8, '\0');
  for (int r = 0; r < n; ++r) {
    if (col.is_null(rows[r])) {
      ++sketch.null_count;
    } else {
      bitmap[r >> 3] |= static_cast<char>(1u << (r & 7));
    }
  }
  // The non-NULL cells' source rows, in block order.
  std::vector<int64_t> live;
  live.reserve(n);
  for (int r = 0; r < n; ++r) {
    if (!col.is_null(rows[r])) live.push_back(rows[r]);
  }

  std::string payload;
  switch (type) {
    case TypeKind::kInt64:
    case TypeKind::kDate: {
      std::vector<int64_t> vals;
      vals.reserve(live.size());
      for (int64_t row : live) {
        const int64_t x = col.ints()[row];
        vals.push_back(x);
        if (want_bloom) BloomAdd(&sketch.bloom, BloomHashInt64(x));
      }
      if (!vals.empty()) {
        const auto [lo, hi] = std::minmax_element(vals.begin(), vals.end());
        sketch.min = I64Cell(*lo, type);
        sketch.max = I64Cell(*hi, type);
      }
      payload = EncodeI64s(vals, &meta->encoding);
      break;
    }
    case TypeKind::kDouble: {
      meta->encoding = BlockEncoding::kRawF64;
      bool first = true;
      bool saw_nan = false;
      double lo = 0, hi = 0;
      payload.reserve(8 * live.size());
      for (int64_t row : live) {
        const double x = col.doubles()[row];
        if (std::isnan(x)) {
          saw_nan = true;
        } else if (first) {
          lo = hi = x;
          first = false;
        } else {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
        PutU64(&payload, std::bit_cast<uint64_t>(x));
      }
      // A NaN cell poisons ordering; publish no zone bounds (sound:
      // the skipper simply cannot constrain this block).
      if (!first && !saw_nan) {
        sketch.min = Value::Double(lo);
        sketch.max = Value::Double(hi);
      }
      break;
    }
    case TypeKind::kBool: {
      meta->encoding = BlockEncoding::kRawBool;
      bool lo = true, hi = false;
      for (int64_t row : live) {
        const bool x = col.ints()[row] != 0;
        lo = lo && x;
        hi = hi || x;
        PutU8(&payload, x ? 1 : 0);
      }
      if (!live.empty()) {
        sketch.min = Value::Bool(lo);
        sketch.max = Value::Bool(hi);
      }
      break;
    }
    case TypeKind::kString: {
      meta->encoding = BlockEncoding::kDict;
      std::vector<int64_t> codes;
      codes.reserve(live.size());
      for (int64_t row : live) codes.push_back(col.ints()[row]);
      payload = EncodeDict(codes, col.dict());
      if (!codes.empty()) {
        // The dictionary payload lists the block's strings sorted.
        const std::string* lo = nullptr;
        const std::string* hi = nullptr;
        for (int64_t code : codes) {
          const std::string& v = col.dict().at(code);
          if (lo == nullptr || v < *lo) lo = &v;
          if (hi == nullptr || *hi < v) hi = &v;
        }
        sketch.min = Value::String(*lo);
        sketch.max = Value::String(*hi);
        if (want_bloom) {
          for (int64_t code : codes) {
            BloomAdd(&sketch.bloom, BloomHashBytes(col.dict().at(code)));
          }
        }
      }
      break;
    }
    case TypeKind::kNull:
      meta->encoding = BlockEncoding::kRawI64;
      break;
  }

  std::string out;
  if (sketch.null_count > 0) out = std::move(bitmap);
  out += payload;
  return out;
}

namespace {

/// Moves the `n` dense non-NULL values at the front of `slots[0, rows)`
/// to the rows `bitmap` marks valid, and turns the rest NULL.  Works
/// backwards in place: a value never moves to an earlier row.
template <typename T>
void SpreadValid(std::string_view bitmap, int rows, size_t n, int64_t base,
                 T* slots, Column* out) {
  size_t k = n;
  for (int r = rows - 1; r >= 0; --r) {
    if ((static_cast<uint8_t>(bitmap[r >> 3]) >> (r & 7)) & 1) {
      slots[r] = slots[--k];
    } else {
      out->SetNull(base + r);
    }
  }
}

}  // namespace

Status DecodeColumnBlock(std::string_view bytes, BlockEncoding encoding,
                         int rows, int64_t null_count, Column* out) {
  if (rows < 0 || null_count < 0 || null_count > rows) {
    return Status::ParseError("columnar block: bad row/null counts");
  }
  std::string_view bitmap;
  if (null_count > 0) {
    const size_t bitmap_bytes = (static_cast<size_t>(rows) + 7) / 8;
    if (bytes.size() < bitmap_bytes) {
      return Status::ParseError("columnar block: truncated validity bitmap");
    }
    bitmap = bytes.substr(0, bitmap_bytes);
    bytes.remove_prefix(bitmap_bytes);
    int64_t set = 0;
    for (int r = 0; r < rows; ++r) {
      set += (static_cast<uint8_t>(bitmap[r >> 3]) >> (r & 7)) & 1;
    }
    if (set != rows - null_count) {
      return Status::ParseError("columnar block: validity bitmap mismatch");
    }
  }
  const size_t n = static_cast<size_t>(rows - null_count);
  const int64_t base = out->size();
  // Each case decodes the n non-NULL values into the front of the
  // block's new slots, then spreads them over the valid rows.  On error
  // `out` keeps a partial block; the caller discards it.
  switch (out->type()) {
    case TypeKind::kInt64:
    case TypeKind::kDate:
    case TypeKind::kBool:
    case TypeKind::kString: {
      int64_t* slots = out->AppendInts(rows);
      if (out->type() == TypeKind::kString) {
        if (encoding != BlockEncoding::kDict) {
          return Status::ParseError("columnar block: encoding/type mismatch");
        }
        SQLTS_RETURN_IF_ERROR(DecodeDict(bytes, n, out, slots));
      } else if (out->type() == TypeKind::kBool) {
        if (encoding != BlockEncoding::kRawBool) {
          return Status::ParseError("columnar block: encoding/type mismatch");
        }
        if (bytes.size() != n) {
          return Status::ParseError("columnar block: length mismatch");
        }
        for (size_t k = 0; k < n; ++k) {
          const uint8_t b = static_cast<uint8_t>(bytes[k]);
          if (b > 1) return Status::ParseError("columnar block: bad bool");
          slots[k] = b;
        }
      } else {
        if (encoding != BlockEncoding::kRawI64 &&
            encoding != BlockEncoding::kForI64 &&
            encoding != BlockEncoding::kRleI64) {
          return Status::ParseError("columnar block: encoding/type mismatch");
        }
        SQLTS_RETURN_IF_ERROR(DecodeI64s(bytes, encoding, n, slots));
        if (out->type() == TypeKind::kDate) {
          for (size_t k = 0; k < n; ++k) {
            if (slots[k] < std::numeric_limits<int32_t>::min() ||
                slots[k] > std::numeric_limits<int32_t>::max()) {
              return Status::ParseError("columnar block: date out of range");
            }
          }
        }
      }
      if (null_count > 0) SpreadValid(bitmap, rows, n, base, slots, out);
      return Status::OK();
    }
    case TypeKind::kDouble: {
      if (encoding != BlockEncoding::kRawF64) {
        return Status::ParseError("columnar block: encoding/type mismatch");
      }
      if (bytes.size() != 8 * n) {
        return Status::ParseError("columnar block: length mismatch");
      }
      double* slots = out->AppendDoubles(rows);
      for (size_t k = 0; k < n; ++k) {
        slots[k] = std::bit_cast<double>(LoadLe(bytes.data() + 8 * k, 8));
      }
      if (null_count > 0) SpreadValid(bitmap, rows, n, base, slots, out);
      return Status::OK();
    }
    case TypeKind::kNull:
      return Status::ParseError("columnar block: untyped column");
  }
  return Status::ParseError("columnar block: unknown encoding");
}

std::string EncodeFooter(const ColumnarFooter& footer) {
  CheckpointWriter w;
  const Schema& schema = footer.schema;
  w.WriteU32(static_cast<uint32_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& col = schema.column(c);
    w.WriteString(col.name);
    w.WriteU8(static_cast<uint8_t>(col.type));
    w.WriteBool(col.nullable);
    w.WriteBool(col.positive);
  }
  w.WriteI64(footer.num_rows);
  w.WriteU32(static_cast<uint32_t>(footer.block_rows));
  w.WriteBool(footer.clustered);
  w.WriteU32(static_cast<uint32_t>(footer.cluster_by.size()));
  for (const std::string& s : footer.cluster_by) w.WriteString(s);
  w.WriteU32(static_cast<uint32_t>(footer.sequence_by.size()));
  for (const std::string& s : footer.sequence_by) w.WriteString(s);
  w.WriteU32(static_cast<uint32_t>(footer.clusters.size()));
  for (const ClusterMeta& cl : footer.clusters) {
    w.WriteRow(cl.key);
    w.WriteI64(cl.start_row);
    w.WriteI64(cl.row_count);
    w.WriteU32(static_cast<uint32_t>(cl.first_block));
    w.WriteU32(static_cast<uint32_t>(cl.num_blocks));
  }
  w.WriteU32(static_cast<uint32_t>(footer.blocks.size()));
  for (const RowBlockMeta& b : footer.blocks) {
    w.WriteI64(b.start_row);
    w.WriteU32(static_cast<uint32_t>(b.row_count));
    w.WriteI64(b.cluster);
  }
  for (const auto& column : footer.columns) {
    for (const ColumnBlockMeta& m : column) {
      w.WriteU8(static_cast<uint8_t>(m.encoding));
      w.WriteU64(m.offset);
      w.WriteU64(m.size);
      w.WriteU64(m.checksum);
      w.WriteI64(m.sketch.null_count);
      w.WriteValue(m.sketch.min);
      w.WriteValue(m.sketch.max);
      w.WriteString(m.sketch.bloom);
    }
  }
  return w.payload();
}

StatusOr<ColumnarFooter> DecodeFooter(std::string_view payload,
                                      uint64_t file_size) {
  CheckpointReader r(payload);
  ColumnarFooter footer;
  SQLTS_ASSIGN_OR_RETURN(uint32_t ncols, r.ReadU32());
  if (ncols == 0 || ncols > 100000) {
    return Status::ParseError("columnar footer: bad column count");
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    SQLTS_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    SQLTS_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    SQLTS_ASSIGN_OR_RETURN(bool nullable, r.ReadBool());
    SQLTS_ASSIGN_OR_RETURN(bool positive, r.ReadBool());
    if (type == 0 || type > static_cast<uint8_t>(TypeKind::kDate)) {
      return Status::ParseError("columnar footer: bad column type");
    }
    SQLTS_RETURN_IF_ERROR(footer.schema.AddColumn(
        name, static_cast<TypeKind>(type), nullable, positive));
  }
  SQLTS_ASSIGN_OR_RETURN(footer.num_rows, r.ReadI64());
  SQLTS_ASSIGN_OR_RETURN(uint32_t block_rows, r.ReadU32());
  if (footer.num_rows < 0 || block_rows == 0 || block_rows > (1u << 20)) {
    return Status::ParseError("columnar footer: bad row/block geometry");
  }
  footer.block_rows = static_cast<int32_t>(block_rows);
  SQLTS_ASSIGN_OR_RETURN(footer.clustered, r.ReadBool());
  SQLTS_ASSIGN_OR_RETURN(uint32_t ncluster_by, r.ReadU32());
  if (ncluster_by > ncols) {
    return Status::ParseError("columnar footer: bad cluster_by");
  }
  for (uint32_t i = 0; i < ncluster_by; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string s, r.ReadString());
    footer.cluster_by.push_back(std::move(s));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nsequence_by, r.ReadU32());
  if (nsequence_by > ncols) {
    return Status::ParseError("columnar footer: bad sequence_by");
  }
  for (uint32_t i = 0; i < nsequence_by; ++i) {
    SQLTS_ASSIGN_OR_RETURN(std::string s, r.ReadString());
    footer.sequence_by.push_back(std::move(s));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nclusters, r.ReadU32());
  if (nclusters > static_cast<uint64_t>(footer.num_rows) + 1) {
    return Status::ParseError("columnar footer: bad cluster count");
  }
  for (uint32_t i = 0; i < nclusters; ++i) {
    ClusterMeta cl;
    SQLTS_ASSIGN_OR_RETURN(cl.key, r.ReadRow());
    SQLTS_ASSIGN_OR_RETURN(cl.start_row, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(cl.row_count, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(uint32_t first_block, r.ReadU32());
    SQLTS_ASSIGN_OR_RETURN(uint32_t num_blocks, r.ReadU32());
    cl.first_block = static_cast<int32_t>(first_block);
    cl.num_blocks = static_cast<int32_t>(num_blocks);
    if (cl.key.size() != footer.cluster_by.size()) {
      return Status::ParseError("columnar footer: cluster key arity");
    }
    footer.clusters.push_back(std::move(cl));
  }
  SQLTS_ASSIGN_OR_RETURN(uint32_t nblocks, r.ReadU32());
  if (nblocks > static_cast<uint64_t>(footer.num_rows) + 1) {
    return Status::ParseError("columnar footer: bad block count");
  }
  int64_t next_row = 0;
  for (uint32_t b = 0; b < nblocks; ++b) {
    RowBlockMeta m;
    SQLTS_ASSIGN_OR_RETURN(m.start_row, r.ReadI64());
    SQLTS_ASSIGN_OR_RETURN(uint32_t row_count, r.ReadU32());
    int64_t cluster;
    SQLTS_ASSIGN_OR_RETURN(cluster, r.ReadI64());
    m.row_count = static_cast<int32_t>(row_count);
    m.cluster = static_cast<int32_t>(cluster);
    if (m.start_row != next_row || m.row_count <= 0 ||
        m.row_count > footer.block_rows ||
        (footer.clustered &&
         (m.cluster < 0 ||
          m.cluster >= static_cast<int64_t>(footer.clusters.size())))) {
      return Status::ParseError("columnar footer: bad block directory");
    }
    next_row += m.row_count;
    footer.blocks.push_back(m);
  }
  if (next_row != footer.num_rows) {
    return Status::ParseError("columnar footer: blocks do not tile rows");
  }
  // Clusters must cover whole, consecutive block ranges.
  if (footer.clustered) {
    int64_t next_block = 0;
    int64_t row = 0;
    for (const ClusterMeta& cl : footer.clusters) {
      if (cl.first_block != next_block || cl.num_blocks <= 0 ||
          cl.first_block + cl.num_blocks >
              static_cast<int64_t>(footer.blocks.size()) ||
          cl.start_row != row || cl.row_count <= 0) {
        return Status::ParseError("columnar footer: bad cluster directory");
      }
      int64_t rows_in_blocks = 0;
      for (int b = cl.first_block; b < cl.first_block + cl.num_blocks; ++b) {
        if (footer.blocks[b].cluster !=
            static_cast<int32_t>(&cl - footer.clusters.data())) {
          return Status::ParseError("columnar footer: cluster/block link");
        }
        rows_in_blocks += footer.blocks[b].row_count;
      }
      if (rows_in_blocks != cl.row_count) {
        return Status::ParseError("columnar footer: cluster row count");
      }
      next_block += cl.num_blocks;
      row += cl.row_count;
    }
    if (next_block != static_cast<int64_t>(footer.blocks.size()) ||
        row != footer.num_rows) {
      return Status::ParseError("columnar footer: clusters do not tile");
    }
  } else if (!footer.clusters.empty()) {
    return Status::ParseError("columnar footer: clusters without ordering");
  }
  footer.columns.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    const TypeKind type = footer.schema.column(static_cast<int>(c)).type;
    footer.columns[c].resize(nblocks);
    for (uint32_t b = 0; b < nblocks; ++b) {
      ColumnBlockMeta& m = footer.columns[c][b];
      SQLTS_ASSIGN_OR_RETURN(uint8_t enc, r.ReadU8());
      if (enc > static_cast<uint8_t>(BlockEncoding::kDict)) {
        return Status::ParseError("columnar footer: bad encoding");
      }
      m.encoding = static_cast<BlockEncoding>(enc);
      SQLTS_ASSIGN_OR_RETURN(m.offset, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.size, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.checksum, r.ReadU64());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.null_count, r.ReadI64());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.min, r.ReadValue());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.max, r.ReadValue());
      SQLTS_ASSIGN_OR_RETURN(m.sketch.bloom, r.ReadString());
      if (m.offset < kColumnarHeaderSize || m.size > file_size ||
          m.offset + m.size > file_size ||
          m.sketch.null_count < 0 ||
          m.sketch.null_count > footer.blocks[b].row_count ||
          (!m.sketch.bloom.empty() &&
           m.sketch.bloom.size() != kColBloomBytes)) {
        return Status::ParseError("columnar footer: bad block extent");
      }
      // Zone values must be NULL or match the column type; anything else
      // would let a corrupted footer feed the skipping oracle garbage.
      if ((!m.sketch.min.is_null() && m.sketch.min.kind() != type) ||
          (!m.sketch.max.is_null() && m.sketch.max.kind() != type) ||
          m.sketch.min.is_null() != m.sketch.max.is_null()) {
        return Status::ParseError("columnar footer: bad zone map");
      }
    }
  }
  if (r.remaining() != 0) {
    return Status::ParseError("columnar footer: trailing bytes");
  }
  return footer;
}

}  // namespace sqlts
