#ifndef LODVIZ_SPARQL_RESULT_TABLE_H_
#define LODVIZ_SPARQL_RESULT_TABLE_H_

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace lodviz::sparql {

/// A materialized query result: column names + rows of cells. A cell is
/// unbound (an OPTIONAL miss, an unprojected variable) or holds a term.
///
/// Cells are stored row-major as 32-bit values: most are ids into the
/// source's dictionary, so a row of a plain projection costs one id per
/// cell and no term is copied until a serializer reads it. Terms the
/// dictionary does not hold — aggregate outputs, hand-built tables — are
/// owned by the table (see Own).
///
/// Lifetime: a table that refers to a dictionary (every table the query
/// engine returns) is valid while its source's dictionary lives; term()
/// reads through to it. A copy shares that dictionary and copies only the
/// owned terms.
class ResultTable {
 public:
  /// A cell value: a dictionary id (rdf::kInvalidTermId = unbound) or a
  /// value returned by Own().
  using Cell = uint32_t;

  ResultTable() = default;
  /// A table whose dictionary cells refer to `dict` (nullptr: a table of
  /// owned cells only).
  explicit ResultTable(std::vector<std::string> columns,
                       const rdf::Dictionary* dict = nullptr)
      : columns_(std::move(columns)), dict_(dict) {}

  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_rows() const { return num_rows_; }

  /// Whether row `r`, column `c` holds a term.
  [[nodiscard]] bool bound(size_t r, size_t c) const {
    return cell(r, c) != rdf::kInvalidTermId;
  }

  /// The term in row `r`, column `c`; the cell must be bound. A reference
  /// into the dictionary or the table, valid while both live.
  [[nodiscard]] const rdf::Term& term(size_t r, size_t c) const {
    return CellTerm(cell(r, c));
  }

  /// The term a bound cell refers to — one in this table's dictionary or
  /// one it owns.
  [[nodiscard]] const rdf::Term& CellTerm(Cell cell) const {
    LODVIZ_DCHECK(cell != rdf::kInvalidTermId) << "term of an unbound cell";
    return cell >= kOwned ? owned_[cell - kOwned] : dict_->term(cell);
  }

  /// Stores `term` in the table and returns the cell that refers to it,
  /// for a later AddRow — how a row mixes dictionary terms with computed
  /// ones.
  [[nodiscard]] Cell Own(rdf::Term term);

  /// Appends one row of cells; its width must match the column count.
  void AddRow(std::span<const Cell> cells);

  /// Pre-sizes the cell store (the engine's materialization paths know
  /// their output cardinality up front).
  void Reserve(size_t rows) { cells_.reserve(rows * columns_.size()); }

  /// Index of a column by name; -1 if absent.
  int ColumnIndex(std::string_view name) const;

  /// ASCII rendering for CLI examples.
  std::string ToString(size_t max_rows = 50) const;

  /// For ASK queries: whether any solution existed.
  bool ask_result = false;

 private:
  /// Cells at or above kOwned index owned_ (dictionary ids stay below).
  static constexpr Cell kOwned = Cell{1} << 31;

  Cell cell(size_t r, size_t c) const {
    return cells_[r * columns_.size() + c];
  }

  std::vector<std::string> columns_;
  const rdf::Dictionary* dict_ = nullptr;
  std::vector<Cell> cells_;
  size_t num_rows_ = 0;  // kept apart: a zero-column table still has rows
  std::vector<rdf::Term> owned_;
};

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_RESULT_TABLE_H_
