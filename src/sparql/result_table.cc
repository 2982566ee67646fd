#include "sparql/result_table.h"

#include <sstream>

#include "common/check.h"
#include "common/table_printer.h"
#include "sparql/row_append.h"

namespace lodviz::sparql {

ResultTable::Cell ResultTable::Own(rdf::Term term) {
  LODVIZ_CHECK(owned_.size() < kOwned) << "result table owns too many terms";
  owned_.push_back(std::move(term));
  return kOwned + static_cast<Cell>(owned_.size() - 1);
}

void ResultTable::AddRow(std::span<const Cell> cells) {
  CheckRowWidth(cells.size(), columns_.size());
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  ++num_rows_;
}

int ResultTable::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string ResultTable::ToString(size_t max_rows) const {
  std::vector<std::string> header;
  for (const std::string& c : columns_) header.push_back("?" + c);
  if (header.empty()) header.push_back("(ask)");
  TablePrinter tp(header);
  for (size_t r = 0; r < num_rows_ && r < max_rows; ++r) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(bound(r, c) ? term(r, c).ToNTriples() : "—");
    }
    if (cells.empty()) cells.push_back(ask_result ? "true" : "false");
    tp.AddRow(std::move(cells));
  }
  std::ostringstream oss;
  tp.Print(oss);
  if (num_rows_ > max_rows) {
    oss << "... (" << num_rows_ - max_rows << " more rows)\n";
  }
  return oss.str();
}

}  // namespace lodviz::sparql
