#include "colstore/writer.h"

#include <algorithm>
#include <fstream>

#include "engine/checkpoint.h"
#include "storage/sequence.h"

namespace sqlts {
namespace {

void PutU32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

StatusOr<std::string> ColumnarWriter::WriteBytes(
    const Table& table, const ColumnarWriterOptions& options) {
  const Schema& schema = table.schema();
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("columnar writer: table has no columns");
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == TypeKind::kNull) {
      return Status::InvalidArgument("columnar writer: untyped column '" +
                                     schema.column(c).name + "'");
    }
  }

  ColumnarFooter footer;
  footer.schema = schema;
  footer.num_rows = table.num_rows();
  footer.block_rows = kColBlockRows;
  footer.cluster_by = options.cluster_by;
  footer.sequence_by = options.sequence_by;
  footer.clustered =
      !options.cluster_by.empty() || !options.sequence_by.empty();

  // Physical row order: identity, or cluster-major + sequence-sorted.
  // `order[i]` is the source row stored at file position i.
  std::vector<int64_t> order;
  order.reserve(table.num_rows());
  if (footer.clustered) {
    SQLTS_ASSIGN_OR_RETURN(
        ClusteredSequence clusters,
        ClusteredSequence::Build(&table, options.cluster_by,
                                 options.sequence_by));
    for (int c = 0; c < clusters.num_clusters(); ++c) {
      const SequenceView& seq = clusters.cluster(c);
      ClusterMeta meta;
      meta.key = clusters.cluster_key(c);
      meta.start_row = static_cast<int64_t>(order.size());
      meta.row_count = seq.size();
      meta.first_block = static_cast<int32_t>(footer.blocks.size());
      // Blocks never span clusters: each cluster opens a fresh block.
      int64_t done = 0;
      while (done < seq.size()) {
        const int rows = static_cast<int>(
            std::min<int64_t>(kColBlockRows, seq.size() - done));
        footer.blocks.push_back({meta.start_row + done, rows,
                                 static_cast<int32_t>(footer.clusters.size())});
        done += rows;
      }
      meta.num_blocks =
          static_cast<int32_t>(footer.blocks.size()) - meta.first_block;
      for (int64_t p = 0; p < seq.size(); ++p) {
        order.push_back(seq.row_index(p));
      }
      footer.clusters.push_back(std::move(meta));
    }
  } else {
    for (int64_t r = 0; r < table.num_rows(); ++r) order.push_back(r);
    int64_t done = 0;
    while (done < table.num_rows()) {
      const int rows = static_cast<int>(
          std::min<int64_t>(kColBlockRows, table.num_rows() - done));
      footer.blocks.push_back({done, rows, -1});
      done += rows;
    }
  }

  // Encode each block straight from the typed columns, gathering the
  // block's rows through `order`.
  std::string data;
  footer.columns.resize(schema.num_columns());
  for (int c = 0; c < schema.num_columns(); ++c) {
    const TypeKind type = schema.column(c).type;
    const bool want_bloom =
        options.bloom && (type == TypeKind::kString ||
                          type == TypeKind::kInt64 || type == TypeKind::kDate);
    footer.columns[c].resize(footer.blocks.size());
    for (size_t b = 0; b < footer.blocks.size(); ++b) {
      const RowBlockMeta& rb = footer.blocks[b];
      ColumnBlockMeta& m = footer.columns[c][b];
      std::string bytes =
          EncodeColumnBlock(table.column(c), order.data() + rb.start_row,
                            rb.row_count, want_bloom, &m);
      m.offset = kColumnarHeaderSize + data.size();
      m.size = bytes.size();
      m.checksum = Fnv1a64(bytes);
      data += bytes;
    }
  }

  const std::string footer_bytes = EncodeFooter(footer);
  std::string out;
  out.reserve(kColumnarHeaderSize + data.size() + footer_bytes.size());
  out += kColumnarMagic;
  PutU32(&out, kColumnarVersion);
  PutU64(&out, kColumnarHeaderSize + data.size());  // footer offset
  PutU64(&out, footer_bytes.size());
  PutU64(&out, Fnv1a64(footer_bytes));
  out += data;
  out += footer_bytes;
  return out;
}

Status ColumnarWriter::WriteFile(const Table& table, const std::string& path,
                                 const ColumnarWriterOptions& options) {
  SQLTS_ASSIGN_OR_RETURN(std::string bytes, WriteBytes(table, options));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace sqlts
