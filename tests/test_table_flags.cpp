#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/flags.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dcnt {
namespace {

TEST(Table, AlignedTextOutput) {
  Table t({"name", "value"});
  t.row().add("alpha").add(static_cast<std::int64_t>(42));
  t.row().add("b").add(static_cast<std::int64_t>(7));
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

// A multi-byte cell ("—", three UTF-8 bytes) pads as one column, so
// every line of the table spans the same number of characters.
TEST(Table, PadsMultiByteCellsByCharacters) {
  Table t({"counter", "slo%"});
  t.row().add("tree").add("—");
  t.row().add("central").add(99.5, 2);
  const std::string text = t.to_text();
  std::vector<std::size_t> widths;
  std::size_t chars = 0;
  for (const char c : text) {
    if (c == '\n') {
      widths.push_back(chars);
      chars = 0;
    } else if ((c & 0xC0) != 0x80) {
      ++chars;
    }
  }
  ASSERT_EQ(widths.size(), 4u);  // header, rule, two rows
  for (const std::size_t w : widths) EXPECT_EQ(w, widths[0]) << text;
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a", "b"});
  t.row().add("x,y").add("plain");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("a,b\n"), std::string::npos);
}

TEST(Table, DoubleFormattingTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(0.1239, 2), "0.12");
}

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--n=100", "--name", "tree", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 0), 100);
  EXPECT_EQ(flags.get_string("name", ""), "tree");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.has("n"));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.get_double("d", 2.5), 2.5);
  EXPECT_FALSE(flags.get_bool("b", false));
}

TEST(Flags, DoubleParsing) {
  const char* argv[] = {"prog", "--zipf=0.9"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.get_double("zipf", 0.0), 0.9);
}

// The shared --threads knob: explicit values pass through, absence (or
// 0) defers to resolve_thread_count's auto policy, and callers can
// rename the key.
TEST(Flags, ThreadsKnobResolvesExplicitAndAuto) {
  const char* argv[] = {"prog", "--threads=3"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(threads_from_flags(flags), 3u);

  const char* bare[] = {"prog"};
  Flags absent(1, const_cast<char**>(bare));
  EXPECT_EQ(threads_from_flags(absent), resolve_thread_count(0));
  EXPECT_GE(threads_from_flags(absent), 1u);

  const char* named[] = {"prog", "--workers=2"};
  Flags renamed(2, const_cast<char**>(named));
  EXPECT_EQ(threads_from_flags(renamed, "workers"), 2u);
}

}  // namespace
}  // namespace dcnt
