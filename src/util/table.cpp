#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace wdag::util {

Table::Table(std::string title, std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {
  WDAG_REQUIRE(!header_.empty(), "Table: header must not be empty");
}

void Table::add_row(std::vector<Cell> row) {
  WDAG_REQUIRE(row.size() == header_.size(),
               "Table::add_row: row width must match header width");
  rows_.push_back(std::move(row));
}

std::string cell_to_string(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<long long>(&c)) return std::to_string(*i);
  const double d = std::get<double>(c);
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << d;
  std::string out = os.str();
  // Trim trailing zeros but keep at least one decimal digit.
  while (out.size() > 1 && out.back() == '0' &&
         out[out.size() - 2] != '.') {
    out.pop_back();
  }
  return out;
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      r.push_back(cell_to_string(row[c]));
      width[c] = std::max(width[c], r.back().size());
    }
    cells.push_back(std::move(r));
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto rule = [&] {
    for (auto w : width) os << '+' << std::string(w + 2, '-');
    os << "+\n";
  };
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << "| " << std::left << std::setw(static_cast<int>(width[c])) << r[c] << ' ';
    }
    os << "|\n";
  };
  rule();
  emit(header_);
  rule();
  for (const auto& r : cells) emit(r);
  rule();
  return os.str();
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cell_to_string(row[c]));
    }
    os << '\n';
  }
  return os.str();
}

std::string Table::to_markdown() const {
  std::ostringstream os;
  if (!title_.empty()) os << "**" << title_ << "**\n\n";
  os << '|';
  for (const auto& h : header_) os << ' ' << h << " |";
  os << "\n|";
  for (std::size_t c = 0; c < header_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& row : rows_) {
    os << '|';
    for (const auto& cell : row) os << ' ' << cell_to_string(cell) << " |";
    os << '\n';
  }
  return os.str();
}

std::string Table::to_json_rows() const {
  std::string out = "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) out += ',';
    out += '{';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      if (c) out += ',';
      append_json_string(out, header_[c]);
      out += ':';
      const Cell& cell = rows_[r][c];
      if (const auto* s = std::get_if<std::string>(&cell)) {
        append_json_string(out, *s);
      } else {
        // Integers print exactly; doubles reuse the table formatting so
        // every rendering of a cell agrees.
        out += cell_to_string(cell);
      }
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.to_text();
}

}  // namespace wdag::util
