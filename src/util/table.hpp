// Console table output used by the benchmark harness and the tools.
//
// Every experiment binary prints an aligned, paper-style table to stdout;
// machine-readable output goes through the writers that keep full
// precision (sweep/output.hpp, obs/telemetry.hpp, the --json bench
// reports). Cells are formatted at insertion time, so the table itself is
// just strings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cid {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row. Subsequent add_* calls append cells to it.
  Table& row();

  Table& cell(std::string value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 4);
  Table& cell(std::int64_t value);
  Table& cell(int value) { return cell(static_cast<std::int64_t>(value)); }
  Table& cell(std::size_t value) {
    return cell(static_cast<std::int64_t>(value));
  }

  /// Formats value as "x.xx ± y.yy".
  Table& cell_pm(double value, double err, int precision = 3);

  std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Renders with column alignment, a header rule, and an optional title.
  std::string to_string(const std::string& title = "") const;
  void print(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed, trailing-zero trimmed).
std::string format_double(double value, int precision);

}  // namespace cid
