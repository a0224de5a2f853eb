#include "colstore/reader.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "engine/checkpoint.h"

namespace sqlts {
namespace {

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

struct Header {
  uint32_t version = 0;
  uint64_t footer_offset = 0;
  uint64_t footer_size = 0;
  uint64_t footer_checksum = 0;
};

StatusOr<Header> ParseHeader(std::string_view head, uint64_t file_size) {
  if (head.size() < kColumnarHeaderSize) {
    return Status::ParseError("columnar container: truncated header");
  }
  if (head.substr(0, kColumnarMagic.size()) != kColumnarMagic) {
    return Status::ParseError("columnar container: bad magic");
  }
  Header h;
  h.version = GetU32(head.data() + 8);
  if (h.version != kColumnarVersion) {
    return Status::ParseError("columnar container: unsupported version " +
                              std::to_string(h.version));
  }
  h.footer_offset = GetU64(head.data() + 12);
  h.footer_size = GetU64(head.data() + 20);
  h.footer_checksum = GetU64(head.data() + 28);
  if (h.footer_offset < kColumnarHeaderSize || h.footer_size > file_size ||
      h.footer_offset > file_size ||
      h.footer_offset + h.footer_size > file_size) {
    return Status::ParseError("columnar container: bad footer extent");
  }
  return h;
}

}  // namespace

bool ColumnarReader::SniffBytes(std::string_view bytes) {
  return bytes.size() >= kColumnarMagic.size() &&
         bytes.substr(0, kColumnarMagic.size()) == kColumnarMagic;
}

bool ColumnarReader::SniffFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char buf[8];
  in.read(buf, sizeof(buf));
  return in.gcount() == static_cast<std::streamsize>(sizeof(buf)) &&
         SniffBytes(std::string_view(buf, sizeof(buf)));
}

StatusOr<size_t> PreadFull(int fd, uint64_t offset, char* buf, size_t n,
                           PreadFn pread_fn) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = pread_fn(fd, buf + done, n - done,
                                 static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("columnar container: read failed: ") +
                             std::strerror(errno));
    }
    if (got == 0) break;  // end of file
    done += static_cast<size_t>(got);
  }
  return done;
}

ColumnarReader::~ColumnarReader() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<ColumnarReader>> ColumnarReader::Open(
    const std::string& path) {
  auto reader = std::unique_ptr<ColumnarReader>(new ColumnarReader());
  reader->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader->fd_ < 0) {
    return Status::IoError("cannot open '" + path + "'");
  }
  struct stat st;
  if (::fstat(reader->fd_, &st) != 0) {
    return Status::IoError("cannot stat '" + path + "'");
  }
  reader->file_size_ = static_cast<uint64_t>(st.st_size);
  std::string head(kColumnarHeaderSize, '\0');
  SQLTS_ASSIGN_OR_RETURN(
      size_t got, PreadFull(reader->fd_, 0, head.data(), head.size()));
  if (got != kColumnarHeaderSize) {
    return Status::ParseError("columnar container: truncated header");
  }
  SQLTS_ASSIGN_OR_RETURN(Header h, ParseHeader(head, reader->file_size_));
  std::string footer_bytes(h.footer_size, '\0');
  SQLTS_ASSIGN_OR_RETURN(got, PreadFull(reader->fd_, h.footer_offset,
                                        footer_bytes.data(),
                                        footer_bytes.size()));
  if (got != h.footer_size) {
    return Status::ParseError("columnar container: truncated footer");
  }
  if (Fnv1a64(footer_bytes) != h.footer_checksum) {
    return Status::ParseError("columnar container: footer checksum mismatch");
  }
  SQLTS_ASSIGN_OR_RETURN(reader->footer_,
                         DecodeFooter(footer_bytes, reader->file_size_));
  return reader;
}

StatusOr<std::unique_ptr<ColumnarReader>> ColumnarReader::OpenBytes(
    std::string bytes) {
  auto reader = std::unique_ptr<ColumnarReader>(new ColumnarReader());
  reader->buffer_ = std::move(bytes);
  reader->file_size_ = reader->buffer_.size();
  SQLTS_ASSIGN_OR_RETURN(Header h,
                         ParseHeader(reader->buffer_, reader->file_size_));
  const std::string_view footer_bytes =
      std::string_view(reader->buffer_)
          .substr(h.footer_offset, h.footer_size);
  if (Fnv1a64(footer_bytes) != h.footer_checksum) {
    return Status::ParseError("columnar container: footer checksum mismatch");
  }
  SQLTS_ASSIGN_OR_RETURN(reader->footer_,
                         DecodeFooter(footer_bytes, reader->file_size_));
  return reader;
}

StatusOr<std::string_view> ColumnarReader::FetchBlockBytes(
    int col, int block, std::string* scratch) {
  const ColumnBlockMeta& m = footer_.columns[col][block];
  std::string_view bytes;
  if (fd_ < 0) {
    bytes = std::string_view(buffer_).substr(m.offset, m.size);
  } else {
    scratch->resize(m.size);
    SQLTS_ASSIGN_OR_RETURN(
        size_t got, PreadFull(fd_, m.offset, scratch->data(), m.size));
    if (got != m.size) {
      return Status::IoError("columnar container: short block read");
    }
    bytes = *scratch;
  }
  if (Fnv1a64(bytes) != m.checksum) {
    return Status::ParseError("columnar container: block checksum mismatch (column " +
                              footer_.schema.column(col).name + ", block " +
                              std::to_string(block) + ")");
  }
  bytes_read_.fetch_add(static_cast<int64_t>(m.size),
                        std::memory_order_relaxed);
  return bytes;
}

StatusOr<Table> ColumnarReader::ReadBlockRange(int first_block,
                                               int num_blocks) {
  if (first_block < 0 || num_blocks < 0 ||
      first_block + num_blocks > static_cast<int>(footer_.blocks.size())) {
    return Status::InvalidArgument("columnar reader: block range out of bounds");
  }
  int64_t rows = 0;
  for (int b = first_block; b < first_block + num_blocks; ++b) {
    rows += footer_.blocks[b].row_count;
  }
  std::vector<Column> columns;
  columns.reserve(footer_.schema.num_columns());
  std::string scratch;
  for (int c = 0; c < footer_.schema.num_columns(); ++c) {
    Column& col = columns.emplace_back(footer_.schema.column(c).type);
    col.Reserve(rows);
    for (int b = first_block; b < first_block + num_blocks; ++b) {
      SQLTS_ASSIGN_OR_RETURN(std::string_view bytes,
                             FetchBlockBytes(c, b, &scratch));
      const ColumnBlockMeta& m = footer_.columns[c][b];
      SQLTS_RETURN_IF_ERROR(DecodeColumnBlock(bytes, m.encoding,
                                              footer_.blocks[b].row_count,
                                              m.sketch.null_count, &col));
    }
  }
  return Table::FromColumns(footer_.schema, std::move(columns));
}

StatusOr<Table> ColumnarReader::ReadTable() {
  return ReadBlockRange(0, static_cast<int>(footer_.blocks.size()));
}

}  // namespace sqlts
