#include "metrics/csv.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <system_error>

namespace han::metrics {

void write_csv(std::ostream& os, const std::vector<std::string>& names,
               const std::vector<const TimeSeries*>& series) {
  os << "time_min";
  for (const std::string& n : names) os << ',' << n;
  os << '\n';
  std::size_t rows = 0;
  for (const TimeSeries* s : series) rows = std::max(rows, s->size());
  for (std::size_t i = 0; i < rows; ++i) {
    double t_min = 0.0;
    for (const TimeSeries* s : series) {
      if (i < s->size()) {
        t_min = s->time_of(i).since_epoch().minutes_f();
        break;
      }
    }
    os << fmt(t_min, 2);
    for (const TimeSeries* s : series) {
      os << ',';
      if (i < s->size()) os << fmt(s->at(i), 4);
    }
    os << '\n';
  }
}

void append_fixed(std::string& out, double v, int precision) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                         precision);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
    return;
  }
  // Only huge magnitudes or long precisions get here: the fixed
  // expansion of a finite double has at most 309 integer digits.
  std::string big(static_cast<std::size_t>(precision) + 320, '\0');
  r = std::to_chars(big.data(), big.data() + big.size(), v,
                    std::chars_format::fixed, precision);
  out.append(big.data(), r.ptr);
}

std::string fmt(double v, int precision) {
  std::string s;
  append_fixed(s, v, precision);
  return s;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::string& label,
                        const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt(v, precision));
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cell;
    }
    os << '\n';
  };
  print_row(headers_);
  std::vector<std::string> rule;
  rule.reserve(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule.emplace_back(width[c], '-');
  }
  print_row(rule);
  for (const auto& row : rows_) print_row(row);
}

}  // namespace han::metrics
