#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

namespace {
/// Emit a cell as a JSON number when it is exactly one finite JSON number
/// ("1.", "01", "+5" and hex floats parse with strtod but are not JSON),
/// else as a string.
void append_json_cell(std::string& out, const std::string& s) {
  if (is_json_number(s) && std::isfinite(std::strtod(s.c_str(), nullptr))) {
    out += s;
  } else {
    append_json_string(out, s);
  }
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}
}  // namespace

std::string Table::to_ascii() const {
  std::size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<std::size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  auto hline = [&] {
    out << '+';
    for (std::size_t c = 0; c < cols; ++c)
      out << std::string(width[c] + 2, '-') << '+';
    out << '\n';
  };
  auto emit = [&](const std::vector<std::string>& r) {
    out << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      out << ' ' << cell << std::string(width[c] - cell.size() + 1, ' ') << '|';
    }
    out << '\n';
  };
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  hline();
  if (!header_.empty()) {
    emit(header_);
    hline();
  }
  for (const auto& r : rows_) emit(r);
  hline();
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(r[c]);
    }
    out << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& r : rows_) emit(r);
  return out.str();
}

std::string Table::to_json() const {
  std::string out = "{\"title\": ";
  append_json_string(out, title_);
  out += ", \"header\": [";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) out += ", ";
    append_json_string(out, header_[c]);
  }
  out += "], \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) out += ", ";
    out += '{';
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) out += ", ";
      append_json_string(
          out, c < header_.size() ? header_[c] : "col" + std::to_string(c));
      out += ": ";
      append_json_cell(out, rows_[r][c]);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void Table::print() const {
  const std::string s = to_ascii();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

void Table::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GV_CHECK(f.good(), "cannot open CSV output file: " + path);
  f << to_csv();
  GV_CHECK(f.good(), "failed writing CSV output file: " + path);
}

std::string Table::fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string Table::pct(double fraction, int prec) {
  return fmt(fraction * 100.0, prec);
}

}  // namespace gv
