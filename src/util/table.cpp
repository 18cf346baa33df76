#include "util/table.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/assert.hpp"

namespace cid {

std::string format_double(double value, int precision) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // Use scientific notation for extreme magnitudes, fixed otherwise.
  const double mag = std::abs(value);
  char buf[64];
  if (mag != 0.0 && (mag >= 1e7 || mag < 1e-4)) {
    std::snprintf(buf, sizeof buf, "%.*e", precision, value);
  } else {
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  }
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CID_ENSURE(!headers_.empty(), "Table needs at least one column");
}

Table& Table::row() {
  if (!rows_.empty()) {
    CID_ENSURE(rows_.back().size() == headers_.size(),
               "previous row is incomplete");
  }
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string value) {
  CID_ENSURE(!rows_.empty(), "call row() before cell()");
  CID_ENSURE(rows_.back().size() < headers_.size(), "row has too many cells");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }

Table& Table::cell_pm(double value, double err, int precision) {
  return cell(format_double(value, precision) + " ± " +
              format_double(err, precision));
}

std::string Table::to_string(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  if (!title.empty()) os << "== " << title << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << (c == 0 ? "" : "  ");
      os << v;
      os << std::string(widths[c] - v.size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(const std::string& title) const {
  std::cout << to_string(title) << std::flush;
}

}  // namespace cid
