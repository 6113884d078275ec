#include "relational/table.h"

#include <unordered_set>

namespace textjoin {

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).QualifiedName() +
          "': expected " + ValueTypeName(schema_.column(i).type) + ", got " +
          ValueTypeName(row[i].type()));
    }
  }
  rows_.push_back(std::move(row));
  ++version_;
  return Status::OK();
}

size_t Table::CountDistinct(const std::vector<size_t>& column_indices) const {
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows_.size());
  for (const Row& row : rows_) {
    seen.insert(ProjectRow(row, column_indices));
  }
  return seen.size();
}

}  // namespace textjoin
