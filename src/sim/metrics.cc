#include "pbs/sim/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace pbs {

void Table::AddRow(const std::vector<std::string>& cells) {
  std::vector<Cell> row(columns.size());
  for (size_t c = 0; c < row.size() && c < cells.size(); ++c) {
    row[c].text = cells[c];
  }
  rows.push_back(std::move(row));
}

const Cell& Table::At(size_t row, const std::string& column) const {
  const auto it = std::find(columns.begin(), columns.end(), column);
  if (it == columns.end()) {
    throw std::out_of_range(bench + " has no column '" + column + "'");
  }
  return rows.at(row).at(static_cast<size_t>(it - columns.begin()));
}

std::string Table::ToString() const {
  std::vector<std::vector<std::string>> text = {columns};
  for (const auto& row : rows) {
    text.emplace_back();
    for (const Cell& cell : row) text.back().push_back(cell.text);
  }
  std::vector<size_t> widths(columns.size());
  for (const auto& line : text) {
    for (size_t c = 0; c < line.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
  }

  std::ostringstream os;
  if (!caption.empty()) os << caption << '\n';
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  for (size_t i = 0; i < text.size(); ++i) {
    for (size_t c = 0; c < text[i].size(); ++c) {
      os << (c == 0 ? "" : "  ") << text[i][c]
         << std::string(widths[c] - text[i][c].size(), ' ');
    }
    os << '\n';
    if (i == 0) os << std::string(total, '-') << '\n';
  }
  for (const auto& line : text) {
    os << "# csv: ";
    for (size_t c = 0; c < line.size(); ++c) os << (c ? "," : "") << line[c];
    os << '\n';
  }
  return os.str();
}

void Table::Print() const {
  const std::string s = ToString();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatScientific(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fKB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  }
  return buf;
}

}  // namespace pbs
