// Aggregation and table formatting for experiment output.

#ifndef PBS_SIM_METRICS_H_
#define PBS_SIM_METRICS_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace pbs {

/// Aggregated statistics over a batch of reconciliation instances.
struct RunStats {
  int instances = 0;
  double success_rate = 0.0;
  double mean_bytes = 0.0;
  double mean_encode_seconds = 0.0;
  double mean_decode_seconds = 0.0;
  double mean_rounds = 0.0;
  /// mean_bytes / (d * sig_bits/8): multiples of the information-theoretic
  /// minimum d log|U| (Section 1.1).
  double overhead_ratio = 0.0;
};

/// One table cell: the printed text and, for numeric cells, the unrounded
/// value checks read (NaN for text cells).
struct Cell {
  std::string text;
  double value = std::numeric_limits<double>::quiet_NaN();
};

/// Column-aligned result table with a CSV echo (easy to plot). The bench
/// name and columns are the keys of its PBS_BENCH_JSON records.
struct Table {
  std::string bench;
  std::string caption;  ///< Printed above the table (may be empty).
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  /// Appends a row of text cells, padded or cut to the column count.
  void AddRow(const std::vector<std::string>& cells);

  /// The cell of `column` in `row`; throws std::out_of_range if there is
  /// no such cell.
  const Cell& At(size_t row, const std::string& column) const;
  double Value(size_t row, const std::string& column) const {
    return At(row, column).value;
  }

  /// Renders the caption, aligned text and a `# csv:`-prefixed CSV block.
  std::string ToString() const;

  /// Prints to stdout.
  void Print() const;
};

/// Formatting helpers.
std::string FormatDouble(double v, int precision = 4);
std::string FormatScientific(double v, int precision = 2);
std::string FormatBytes(double bytes);

}  // namespace pbs

#endif  // PBS_SIM_METRICS_H_
