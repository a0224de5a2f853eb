#ifndef SQLTS_STORAGE_CLUSTER_KEY_H_
#define SQLTS_STORAGE_CLUSTER_KEY_H_

#include <string>
#include <vector>

#include "storage/table.h"
#include "types/value.h"

namespace sqlts {

/// The one encoding of a CLUSTER BY key, shared by the batch cluster
/// build (ClusteredSequence::Build) and the streaming router
/// (StreamEngine::RouteFor), so both partition an input identically.
///
/// Each part is a kind tag byte followed by
///   - nothing for NULL;
///   - a fixed-width little-endian payload for BOOL (1 byte), DATE
///     (4 bytes, day number), INT64 and DOUBLE (8 bytes);
///   - a LEB128 length plus the raw bytes for STRING.
/// The parts are prefix-free, so the encoding is injective: no value
/// content (separators, quotes, embedded NULs) can make two distinct
/// key tuples encode equal.  DOUBLE payloads are canonical: -0.0
/// encodes as +0.0 and every NaN as one NaN, so two keys of one column
/// type encode equal exactly when Value::Compare calls every part
/// equal.  A key is compared as a whole and never decoded; its bytes
/// are also persisted as stream checkpoint route keys.
///
/// Keys of different kinds never encode equal: an INT64 cell bound for
/// a DOUBLE column must be coerced first (CoerceToColumn), as
/// Table::AppendRow does.

/// Encodes `row[cols...]` into `*out`, replacing its contents.  A
/// caller keying many rows reuses `*out` and allocates nothing per row.
void EncodeClusterKey(const Row& row, const std::vector<int>& cols,
                      std::string* out);
/// Same, over the cells of row `row` of `table`.
void EncodeClusterKey(const Table& table, int64_t row,
                      const std::vector<int>& cols, std::string* out);
std::string EncodeClusterKey(const Row& row, const std::vector<int>& cols);

}  // namespace sqlts

#endif  // SQLTS_STORAGE_CLUSTER_KEY_H_
