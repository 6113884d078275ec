#ifndef TEXTJOIN_RELATIONAL_TABLE_H_
#define TEXTJOIN_RELATIONAL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// In-memory heap table.

namespace textjoin {

/// A named, in-memory relation: a schema plus a vector of rows. Tables are
/// append-only (sufficient for the paper's read-only analytical workload),
/// apart from Clear().
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  const Row& row(size_t i) const { return rows_.at(i); }

  /// Appends a row after checking arity and per-column type compatibility
  /// (NULL is compatible with every column type).
  Status Insert(Row row);

  /// Appends a row without validation (hot path for generators that
  /// construct rows from the schema itself).
  void InsertUnchecked(Row row) {
    rows_.push_back(std::move(row));
    ++version_;
  }

  /// Removes all rows, keeping the schema.
  void Clear() {
    rows_.clear();
    ++version_;
  }

  /// Bumped by every Insert, InsertUnchecked and Clear: equal versions of
  /// one table mean equal contents (a row count would miss a Clear followed
  /// by a refill of the same size). Plan caches stamp entries with it.
  uint64_t version() const { return version_; }

  /// Returns the distinct count of the projection onto `column_indices`.
  size_t CountDistinct(const std::vector<size_t>& column_indices) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  uint64_t version_ = 0;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TABLE_H_
