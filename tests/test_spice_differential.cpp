// Differential fuzz of SPICE ingest: the single-pass parser against the
// verbatim reference parser in spice_reference.hpp, on generated suites
// and on seeded byte / token mutations of generated text.  Both must
// return the same netlist (names, parsed coordinates, ids, element types,
// names, endpoints, value bits, ParseStats) or throw std::runtime_error
// with the same message.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gen/began.hpp"
#include "gen/suite.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "spice_reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir::spice;
using lmmir::util::Rng;

/// A printable, length-capped rendering of fuzz input for failure output.
std::string escaped(const std::string& text) {
  std::string out;
  for (unsigned char c : text.substr(0, 600)) {
    if (c == '\n') out += "\\n\n";
    else if (c >= 0x20 && c < 0x7f) out += static_cast<char>(c);
    else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[c >> 4];
      out += hex[c & 15];
    }
  }
  if (text.size() > 600) out += "...";
  return out;
}

void expect_same_netlist(const Netlist& got, const reference::Netlist& want) {
  ASSERT_EQ(got.node_count(), want.nodes().size());
  for (std::size_t i = 0; i < want.nodes().size(); ++i) {
    const Node& g = got.nodes()[i];
    const Node& w = want.nodes()[i];
    ASSERT_EQ(g.raw_name, w.raw_name) << "node " << i;
    ASSERT_EQ(g.parsed, w.parsed) << "node " << i;
    ASSERT_EQ(got.find_node(g.raw_name), static_cast<NodeId>(i)) << "node " << i;
  }
  ASSERT_EQ(got.element_count(), want.elements().size());
  for (std::size_t i = 0; i < want.elements().size(); ++i) {
    const Element& g = got.elements()[i];
    const Element& w = want.elements()[i];
    ASSERT_EQ(g.type, w.type) << "element " << i;
    ASSERT_EQ(g.name, w.name) << "element " << i;
    ASSERT_EQ(g.node1, w.node1) << "element " << i;
    ASSERT_EQ(g.node2, w.node2) << "element " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.value),
              std::bit_cast<std::uint64_t>(w.value))
        << "element " << i;
    // Accepted netlists are physically sane, whatever the text was.
    ASSERT_TRUE(std::isfinite(g.value)) << "element " << i;
    if (g.type == ElementType::Resistor) {
      ASSERT_GT(g.value, 0.0) << "element " << i;
    }
  }
}

enum class Outcome { Accepted, Rejected };

/// Parse `text` with both parsers and require the same outcome.
Outcome expect_same_outcome(const std::string& text) {
  ParseStats got_stats, want_stats;
  std::optional<Netlist> got;
  std::optional<reference::Netlist> want;
  std::string got_error, want_error;
  try {
    got = parse_netlist_string(text, &got_stats);
  } catch (const std::runtime_error& e) {
    got_error = e.what();
  }
  try {
    want = reference::parse_netlist_string(text, &want_stats);
  } catch (const std::runtime_error& e) {
    want_error = e.what();
  }
  EXPECT_EQ(got_error, want_error);
  EXPECT_EQ(got.has_value(), want.has_value());
  if (!got || !want) return Outcome::Rejected;
  expect_same_netlist(*got, *want);
  EXPECT_EQ(got_stats.lines, want_stats.lines);
  EXPECT_EQ(got_stats.elements, want_stats.elements);
  EXPECT_EQ(got_stats.comments, want_stats.comments);
  EXPECT_EQ(got_stats.directives, want_stats.directives);
  return Outcome::Accepted;
}

template <typename T, std::size_t N>
const T& pick(const T (&options)[N], Rng& rng) {
  return options[rng.randint(0, static_cast<int>(N) - 1)];
}

std::size_t random_pos(const std::string& text, Rng& rng) {
  return static_cast<std::size_t>(rng.randint(0, static_cast<int>(text.size())));
}

/// [begin, end) of a random line (end excludes its '\n').
std::pair<std::size_t, std::size_t> random_line(const std::string& text,
                                                Rng& rng) {
  std::size_t begin = text.rfind('\n', random_pos(text, rng));
  begin = begin == std::string::npos ? 0 : begin + 1;
  std::size_t end = text.find('\n', begin);
  if (end == std::string::npos) end = text.size();
  return {begin, end};
}

/// Space-separated token spans of text[begin, end).
std::vector<std::pair<std::size_t, std::size_t>> tokens_of(
    const std::string& text, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = begin;
  while (i < end) {
    while (i < end && text[i] == ' ') ++i;
    const std::size_t j = text.find(' ', i);
    const std::size_t stop = std::min(j == std::string::npos ? end : j, end);
    if (stop > i) out.emplace_back(i, stop);
    i = stop;
  }
  return out;
}

/// One seeded byte or token mutation, aimed at the corners where a
/// hand-written tokenizer can drift from getline + split_ws + from_chars.
void mutate_once(std::string& text, Rng& rng) {
  static const char* kSeparators[] = {"\t", "\v", "\f", "\r", "  ", " \t ",
                                      "\t\v\f"};
  static const char* kLines[] = {
      "   * comment", "\t; comment", " .title x", "\f.op", ".END", ".end",
      ".End trailing", "  .end", ".ENDS", ".endx", "*", ";", "", " \t ",
      "R1 a b", "R1 a b 1 2", "V9 x 0", "I1 n1_m1_0_0 0 1m extra tokens"};
  static const char* kValues[] = {
      "+1.0", "1e", "1MEG", "1e308k", "inf", "-inf", "nan", "INF", "1e-400",
      "1e999", "0", "-0", "-2", "0.0", "1K", "2Meg", "1x", "1X", "3T", "1.5q",
      "k", ".5", "5.", "1e+3", "0x1p3", "1,5", "1_0", "1.0\xc2\xb5", "2mil",
      "4.7u", "1e-3m", "nan(1)", "1f", "7P", "9g", "meg"};
  static const char* kNames[] = {
      "0", "00", "-0", "n1_m1_+5_3", "n1_m1_-5_3", "N1_M2_3_4",
      "n1_m99999999999_3_4", "n1_m1_3", "n1__3_4", "_", "___", "n1_m1_3_4_5",
      "vdd_pin", "n_m1_3_4", "nx_m1_3_4", "n1_m1_3_4\xff", "n1_m1_0_0"};
  static const char* kHeads[] = {"R", "r", "I", "i", "V", "v", "C", "x",
                                 "\x80", "R\xc3\xa9", "Rlong_element_name_x"};

  const int op = rng.randint(0, 14);
  switch (op) {
    case 0: {  // CRLF endings, everywhere or on one line
      if (rng.chance(0.5)) {
        std::string out;
        for (char c : text) {
          if (c == '\n') out += '\r';
          out += c;
        }
        text = std::move(out);
      } else {
        text.insert(random_line(text, rng).second, "\r");
      }
      break;
    }
    case 1: {  // another whitespace byte as a separator
      const std::size_t sp = text.find(' ', random_pos(text, rng));
      if (sp != std::string::npos) text.replace(sp, 1, pick(kSeparators, rng));
      break;
    }
    case 2:  // no final newline
      while (!text.empty() && text.back() == '\n') text.pop_back();
      break;
    case 3:  // embedded NUL
      text.insert(random_pos(text, rng), 1, '\0');
      break;
    case 4:  // a byte >= 0x80
      text.insert(random_pos(text, rng), 1,
                  static_cast<char>(rng.randint(0x80, 0xff)));
      break;
    case 5:  // comment, directive, blank or short/long line
      text.insert(random_line(text, rng).first,
                  std::string(pick(kLines, rng)) + "\n");
      break;
    case 6: {  // 3-token line: drop a token
      const auto [b, e] = random_line(text, rng);
      const auto toks = tokens_of(text, b, e);
      if (toks.empty()) break;
      const auto [tb, te] = toks[rng.randint(0, static_cast<int>(toks.size()) - 1)];
      text.erase(tb, te - tb);
      break;
    }
    case 7: {  // 5-token line: repeat a token
      const auto [b, e] = random_line(text, rng);
      const auto toks = tokens_of(text, b, e);
      if (toks.empty()) break;
      const auto [tb, te] = toks[rng.randint(0, static_cast<int>(toks.size()) - 1)];
      text.insert(te, " " + text.substr(tb, te - tb));
      break;
    }
    case 8: {  // value token
      const auto [b, e] = random_line(text, rng);
      const auto toks = tokens_of(text, b, e);
      if (toks.size() < 4) break;
      text.replace(toks[3].first, toks[3].second - toks[3].first,
                   pick(kValues, rng));
      break;
    }
    case 9: {  // node token
      const auto [b, e] = random_line(text, rng);
      const auto toks = tokens_of(text, b, e);
      if (toks.size() < 3) break;
      const auto [tb, te] = toks[static_cast<std::size_t>(rng.randint(1, 2))];
      text.replace(tb, te - tb, pick(kNames, rng));
      break;
    }
    case 10: {  // element letter / head token
      const auto [b, e] = random_line(text, rng);
      if (b == e) break;
      text.replace(b, 1, pick(kHeads, rng));
      break;
    }
    case 11: {  // one byte set to anything
      if (text.empty()) break;
      text[std::min(random_pos(text, rng), text.size() - 1)] =
          static_cast<char>(rng.randint(0, 255));
      break;
    }
    case 12: {  // one byte deleted
      if (text.empty()) break;
      text.erase(std::min(random_pos(text, rng), text.size() - 1), 1);
      break;
    }
    case 13: {  // a line repeated (re-interned names, duplicate elements)
      const auto [b, e] = random_line(text, rng);
      text.insert(b, text.substr(b, e - b) + "\n");
      break;
    }
    default:  // truncated anywhere, possibly mid-token
      text.resize(random_pos(text, rng));
      break;
  }
}

std::string generated_text(std::uint64_t seed) {
  lmmir::gen::SuiteOptions opts;
  opts.scale = 0.045;
  const auto cfg = lmmir::gen::fake_training_suite(1, seed, opts).front();
  return write_netlist_string(lmmir::gen::generate_pdn(cfg), cfg.name);
}

/// A window of whole lines of `text` (sometimes all of it) so mutations
/// land everywhere, not only before the first rejected line.
std::string window(const std::string& text, Rng& rng) {
  if (rng.chance(0.05)) return text;
  const std::size_t begin = random_line(text, rng).first;
  std::size_t end = begin;
  for (int lines = rng.randint(1, 40); lines > 0 && end < text.size(); --lines) {
    end = text.find('\n', end);
    end = end == std::string::npos ? text.size() : end + 1;
  }
  return text.substr(begin, end - begin);
}

TEST(SpiceDifferential, GeneratedSuitesMatchReference) {
  lmmir::gen::SuiteOptions opts;
  opts.scale = 0.045;
  auto configs = lmmir::gen::table2_suite(opts);
  const auto fake = lmmir::gen::fake_training_suite(4, 0xD1FF, opts);
  configs.insert(configs.end(), fake.begin(), fake.end());
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    const std::string text =
        write_netlist_string(lmmir::gen::generate_pdn(cfg), cfg.name);
    EXPECT_EQ(expect_same_outcome(text), Outcome::Accepted);
  }
}

TEST(SpiceDifferential, MutatedTextMatchesReference) {
  const std::string base = generated_text(0x5EED);
  Rng rng(0xF0221);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 2500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string text = window(base, rng);
    for (int n = rng.randint(1, 3); n > 0; --n) mutate_once(text, rng);
    (expect_same_outcome(text) == Outcome::Accepted ? accepted : rejected)++;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "input:\n" << escaped(text);
      return;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 250);
  EXPECT_GT(rejected, 250);
}

TEST(SpiceDifferential, FileMatchesReferenceStream) {
  const std::string base = generated_text(0xF11E);
  // A per-run name: test binaries of several builds may run at once.
  const auto path = std::filesystem::temp_directory_path() /
                    ("lmmir_spice_differential_" +
                     std::to_string(std::random_device{}()) + ".sp");
  Rng rng(0xF11E);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string text = trial == 0 ? base : window(base, rng);
    if (trial > 0)
      for (int n = rng.randint(1, 3); n > 0; --n) mutate_once(text, rng);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    std::string got_error, want_error;
    std::optional<Netlist> got;
    std::optional<reference::Netlist> want;
    try {
      got = parse_netlist_file(path.string());
    } catch (const std::runtime_error& e) {
      got_error = e.what();
    }
    try {
      std::ifstream in(path);
      want = reference::parse_netlist_stream(in, nullptr);
    } catch (const std::runtime_error& e) {
      want_error = e.what();
    }
    EXPECT_EQ(got_error, want_error);
    EXPECT_EQ(got.has_value(), want.has_value());
    if (got && want) expect_same_netlist(*got, *want);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "input:\n" << escaped(text);
      break;
    }
  }
  std::filesystem::remove(path);
  EXPECT_THROW(parse_netlist_file(path.string()), std::runtime_error);
}

}  // namespace
