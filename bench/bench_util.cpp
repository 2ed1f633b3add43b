#include "bench_util.hpp"

#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace dcnt {

Flags parse_bench_flags(int argc, char** argv, const std::string& description,
                        const std::vector<std::string>& known) {
  const char* binary = argc > 0 ? argv[0] : "bench";
  std::string usage =
      description + "\n\nusage: " + binary + " [--flag=value ...]\nflags:\n";
  for (const std::string& key : known) usage += "  --" + key + "\n";
  usage += "  --help\n";
  return parse_known_flags(argc, argv, known, usage);
}

std::vector<std::int64_t> parse_int_list(const std::string& text) {
  std::vector<std::int64_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoll(item));
  return out;
}

std::vector<double> parse_double_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::vector<std::string> parse_string_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

JsonWriter::JsonWriter(std::string path) : path_(std::move(path)) {
  f_ = std::fopen(path_.c_str(), "w");
  DCNT_CHECK_MSG(f_ != nullptr, "cannot open --out file");
  std::fprintf(f_, "{\n");
}

JsonWriter::~JsonWriter() {
  DCNT_CHECK_MSG(!in_array_ && !in_row_, "unterminated JSON array/object");
  std::fprintf(f_, "\n}\n");
  std::fclose(f_);
  std::printf("wrote %s\n", path_.c_str());
}

std::FILE* JsonWriter::pre_key(const std::string& key) {
  if (in_row_) {
    if (!first_in_row_) std::fprintf(f_, ", ");
    first_in_row_ = false;
  } else {
    DCNT_CHECK_MSG(!in_array_, "scalar field directly inside an array");
    if (!first_at_top_) std::fprintf(f_, ",\n");
    first_at_top_ = false;
    std::fprintf(f_, "  ");
  }
  std::fprintf(f_, "\"%s\": ", key.c_str());
  return f_;
}

void JsonWriter::field_int(const std::string& key, long long value) {
  std::fprintf(pre_key(key), "%lld", value);
}

void JsonWriter::field(const std::string& key, double value, int precision) {
  std::fprintf(pre_key(key), "%.*f", precision, value);
}

void JsonWriter::field(const std::string& key, const std::string& value) {
  std::fprintf(pre_key(key), "\"%s\"", value.c_str());
}

void JsonWriter::field(const std::string& key, const char* value) {
  field(key, std::string(value));
}

void JsonWriter::begin_array(const std::string& key) {
  DCNT_CHECK_MSG(!in_array_ && !in_row_, "nested arrays are not supported");
  if (!first_at_top_) std::fprintf(f_, ",\n");
  first_at_top_ = false;
  std::fprintf(f_, "  \"%s\": [", key.c_str());
  in_array_ = true;
  first_in_array_ = true;
}

void JsonWriter::end_array() {
  DCNT_CHECK_MSG(in_array_ && !in_row_, "end_array outside an array");
  if (!first_in_array_) std::fprintf(f_, "\n  ");
  std::fprintf(f_, "]");
  in_array_ = false;
}

void JsonWriter::begin_object() {
  DCNT_CHECK_MSG(in_array_ && !in_row_, "row objects only live in arrays");
  if (!first_in_array_) std::fprintf(f_, ",");
  first_in_array_ = false;
  std::fprintf(f_, "\n    {");
  in_row_ = true;
  first_in_row_ = true;
}

void JsonWriter::end_object() {
  DCNT_CHECK_MSG(in_row_, "end_object outside a row");
  std::fprintf(f_, "}");
  in_row_ = false;
}

}  // namespace dcnt
