// util: strings, CSV round trips, tables, RNG determinism, images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>

#include "util/csv.hpp"
#include "util/image_io.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace {

using namespace lmmir::util;

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\v\f\rx\r\n"), "x");
  for (int c = 0; c < 256; ++c)  // the "C" locale's std::isspace
    EXPECT_EQ(is_space(static_cast<char>(c)), std::isspace(c) != 0) << c;
}

TEST(StringUtils, SplitDelimiterKeepsEmpty) {
  const auto t = split("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[3], "");
}

TEST(StringUtils, ParseNumbers) {
  double d = 0;
  EXPECT_TRUE(parse_double("1.5e-3", d));
  EXPECT_DOUBLE_EQ(d, 1.5e-3);
  EXPECT_FALSE(parse_double("1.5x", d));
  EXPECT_FALSE(parse_double("", d));
  long l = 0;
  EXPECT_TRUE(parse_long("-42", l));
  EXPECT_EQ(l, -42);
  EXPECT_FALSE(parse_long("4.2", l));
}

TEST(StringUtils, FormatFixed) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

TEST(Csv, RoundTrip) {
  CsvMatrix m;
  m.rows = 2;
  m.cols = 3;
  m.values = {1, 2, 3, 4.5f, -6, 0.25f};
  const auto text = write_csv_string(m, 4);
  const auto back = read_csv_string(text);
  ASSERT_EQ(back.rows, 2u);
  ASSERT_EQ(back.cols, 3u);
  for (std::size_t i = 0; i < m.values.size(); ++i)
    EXPECT_NEAR(back.values[i], m.values[i], 1e-4f);
}

TEST(Csv, RejectsRaggedRows) {
  EXPECT_THROW(read_csv_string("1,2\n3\n"), std::runtime_error);
}

TEST(Csv, RejectsBadCell) {
  EXPECT_THROW(read_csv_string("1,abc\n"), std::runtime_error);
}

TEST(Csv, FileRoundTrip) {
  const std::string path = "test_csv_tmp.csv";
  CsvMatrix m;
  m.rows = 1;
  m.cols = 2;
  m.values = {3.5f, -1.0f};
  write_csv_file(path, m);
  const auto back = read_csv_file(path);
  EXPECT_EQ(back.cols, 2u);
  EXPECT_FLOAT_EQ(back.values[0], 3.5f);
  std::filesystem::remove(path);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng r(5);
  for (int i = 0; i < 200; ++i) {
    const float v = r.uniform(2.0f, 3.0f);
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_separator();
  t.add_row({"b", "300"});
  const auto s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("300"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Image, HeatColorEndpoints) {
  std::uint8_t r, g, b;
  heat_color(0.0f, r, g, b);
  EXPECT_GT(b, r);  // cold end is blue
  heat_color(1.0f, r, g, b);
  EXPECT_GT(r, b);  // hot end is red
}

TEST(Image, ColorizeAndWrite) {
  std::vector<float> field = {0.0f, 0.5f, 1.0f, 0.25f};
  const auto img = colorize(field, 2, 2, 0.0f, 1.0f);
  EXPECT_EQ(img.pixels.size(), 12u);
  write_ppm("test_img_tmp.ppm", img);
  std::ifstream f("test_img_tmp.ppm", std::ios::binary);
  std::string magic(2, '\0');
  f.read(magic.data(), 2);
  EXPECT_EQ(magic, "P6");
  std::filesystem::remove("test_img_tmp.ppm");
}

TEST(Image, ColorizeRejectsSizeMismatch) {
  std::vector<float> field(3, 0.0f);
  EXPECT_THROW(colorize(field, 2, 2, 0, 1), std::invalid_argument);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(w.seconds(), 0.0);
  EXPECT_GE(w.milliseconds(), w.seconds());
}

}  // namespace
