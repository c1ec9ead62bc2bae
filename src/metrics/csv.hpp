// han::metrics — CSV export of time series and tables.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "metrics/timeseries.hpp"

namespace han::metrics {

/// Writes aligned series as CSV: time_min,<name0>,<name1>,...
/// All series must share start/interval; shorter ones pad with blanks.
void write_csv(std::ostream& os, const std::vector<std::string>& names,
               const std::vector<const TimeSeries*>& series);

/// Renders a fixed-width text table (benches print paper-style rows).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Appends `v` in fixed notation with `precision` decimals, byte for
/// byte what printf("%.*f") prints (exact decimal expansion, ties to
/// even), without a locale, a format parse or a temporary string.
/// `precision` must be >= 0.
void append_fixed(std::string& out, double v, int precision);

/// Formats a double with fixed precision (helper for bench output).
[[nodiscard]] std::string fmt(double v, int precision = 2);

}  // namespace han::metrics
