#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace dcnt {

namespace {

/// Terminal columns a cell occupies: one per UTF-8 code point (every
/// byte that is not a continuation byte), so a cell such as "—" pads
/// like one character rather than three bytes.
std::size_t display_width(const std::string& s) {
  return static_cast<std::size_t>(std::count_if(
      s.begin(), s.end(), [](char c) { return (c & 0xC0) != 0x80; }));
}

}  // namespace

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DCNT_CHECK(!headers_.empty());
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& cell) {
  DCNT_CHECK_MSG(!rows_.empty(), "call row() before add()");
  DCNT_CHECK_MSG(rows_.back().size() < headers_.size(), "row overflow");
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }
Table& Table::add(std::int64_t v) { return add(std::to_string(v)); }
Table& Table::add(std::uint64_t v) { return add(std::to_string(v)); }
Table& Table::add(int v) { return add(std::to_string(v)); }
Table& Table::add(double v, int precision) {
  return add(format_double(v, precision));
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = display_width(headers_[c]);
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], display_width(r[c]));
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      os << "  " << cell << std::string(width[c] - display_width(cell), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (auto w : width) rule += w + 2;
  os << std::string(rule, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

std::string Table::to_csv() const {
  auto quote = [](const std::string& s) {
    if (s.find(',') == std::string::npos) return s;
    return "\"" + s + "\"";
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << quote(headers_[c]);
  }
  os << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) os << ',';
      os << quote(r[c]);
    }
    os << '\n';
  }
  return os.str();
}

void Table::print(std::ostream& os, const std::string& title) const {
  os << "\n== " << title << " ==\n" << to_text();
}

}  // namespace dcnt
