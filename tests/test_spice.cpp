// spice: node-name grammar, value suffixes, parser, writer round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "spice/parser.hpp"
#include "spice/writer.hpp"

#include "gen/began.hpp"
#include "gen/suite.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir::spice;

TEST(NodeName, FormatAndParse) {
  NodeName n{1, 4, 108000, 26000};
  EXPECT_EQ(n.to_string(), "n1_m4_108000_26000");
  NodeName back;
  ASSERT_TRUE(parse_node_name(n.to_string(), back));
  EXPECT_EQ(back, n);
}

TEST(NodeName, RejectsMalformed) {
  NodeName out;
  EXPECT_FALSE(parse_node_name("", out));
  EXPECT_FALSE(parse_node_name("n1_m1_3", out));
  EXPECT_FALSE(parse_node_name("x1_m1_3_4", out));
  EXPECT_FALSE(parse_node_name("n1_x1_3_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1_a_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1_3_4_5", out));
}

TEST(NodeName, Ground) {
  EXPECT_TRUE(is_ground("0"));
  EXPECT_FALSE(is_ground("00"));
  EXPECT_FALSE(is_ground("n0_m0_0_0"));
}

// std::string, not const char*: gtest prints a char pointer with its address,
// which would put a per-run address into each discovered test name.
class SpiceValue
    : public ::testing::TestWithParam<std::pair<std::string, double>> {};

TEST_P(SpiceValue, ParsesSuffix) {
  const auto [text, expected] = GetParam();
  double v = 0;
  ASSERT_TRUE(parse_spice_value(text, v)) << text;
  EXPECT_DOUBLE_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceValue,
    ::testing::Values(std::make_pair("1.5", 1.5), std::make_pair("2k", 2e3),
                      std::make_pair("3meg", 3e6), std::make_pair("4u", 4e-6),
                      std::make_pair("5m", 5e-3), std::make_pair("6n", 6e-9),
                      std::make_pair("7p", 7e-12), std::make_pair("1e-3", 1e-3),
                      std::make_pair("2.5E2", 250.0),
                      std::make_pair("8G", 8e9)));

TEST(SpiceValueNegative, RejectsGarbage) {
  double v;
  EXPECT_FALSE(parse_spice_value("", v));
  EXPECT_FALSE(parse_spice_value("abc", v));
  EXPECT_FALSE(parse_spice_value("1.5q", v));
  EXPECT_FALSE(parse_spice_value("k", v));
}

TEST(SpiceValueNegative, RejectsNonFiniteResults) {
  double v = 7.0;
  EXPECT_FALSE(parse_spice_value("1e308k", v));  // finite mantissa, inf product
  EXPECT_FALSE(parse_spice_value("inf", v));
  EXPECT_FALSE(parse_spice_value("nan", v));
  EXPECT_EQ(v, 7.0);  // untouched on rejection
}

TEST(Parser, NonFiniteValueIsALineNumberedParseError) {
  try {
    parse_netlist_string("R1 a b 1.0\nI1 a 0 1e308k\nV1 b 0 1.1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spice parse error at line 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Netlist, SetElementValueRejectsNonFiniteWithoutNewRevision) {
  Netlist nl = parse_netlist_string("R1 a b 1.0\nI1 a 0 1m\nV1 b 0 1.1\n");
  const std::uint64_t revision = nl.revision();
  for (std::size_t i = 0; i < nl.element_count(); ++i)
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()})
      EXPECT_THROW(nl.set_element_value(i, bad), std::invalid_argument)
          << "element " << i << " value " << bad;
  EXPECT_EQ(nl.revision(), revision);
  EXPECT_EQ(nl.elements()[1].value, 1e-3);
}

TEST(Parser, ParsesBasicNetlist) {
  const std::string text = R"(* tiny PDN
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m1_1000_0 n1_m2_1000_0 2.0
I1 n1_m1_0_0 0 1m
V1 n1_m2_1000_0 0 1.1
.end
)";
  ParseStats stats;
  const Netlist nl = parse_netlist_string(text, &stats);
  EXPECT_EQ(stats.elements, 4u);
  EXPECT_EQ(stats.comments, 1u);
  EXPECT_EQ(nl.node_count(), 3u);
  EXPECT_EQ(nl.count(ElementType::Resistor), 2u);
  EXPECT_EQ(nl.count(ElementType::CurrentSource), 1u);
  EXPECT_EQ(nl.count(ElementType::VoltageSource), 1u);
  EXPECT_EQ(nl.max_layer(), 2);
  const auto shape = nl.pixel_shape();
  EXPECT_EQ(shape.cols, 2u);  // x up to 1000 DBU = pixel 1
  EXPECT_EQ(shape.rows, 1u);
}

TEST(Parser, CaseInsensitiveAndDirectives) {
  const std::string text = ".title x\nr1 a b 1k\ni2 a 0 2m\nv3 b 0 1.0\n.op\n.end\nGARBAGE AFTER END\n";
  const Netlist nl = parse_netlist_string(text);
  EXPECT_EQ(nl.element_count(), 3u);  // .end stops parsing
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist_string("R1 a b 1.0\nR2 a b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsBadElements) {
  EXPECT_THROW(parse_netlist_string("C1 a b 1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_netlist_string("R1 a b -2\n"), std::runtime_error);  // R<=0
  EXPECT_THROW(parse_netlist_string("R1 a b xyz\n"), std::runtime_error);
}

TEST(Parser, FreeFormNodesSupported) {
  const Netlist nl = parse_netlist_string("R1 vdd_pin n1_m1_0_0 1.0\nV1 vdd_pin 0 1.1\n");
  ASSERT_TRUE(nl.find_node("vdd_pin").has_value());
  EXPECT_FALSE(nl.node(*nl.find_node("vdd_pin")).parsed.has_value());
  EXPECT_TRUE(nl.node(*nl.find_node("n1_m1_0_0")).parsed.has_value());
}

TEST(Writer, RoundTripPreservesEverything) {
  const std::string text =
      "R7 n1_m1_0_0 n1_m1_2000_0 0.125\n"
      "I3 n1_m1_2000_0 0 0.0015\n"
      "V9 n1_m3_2000_0 0 1.05\n";
  const Netlist nl = parse_netlist_string(text);
  const std::string written = write_netlist_string(nl, "round trip");
  const Netlist back = parse_netlist_string(written);
  ASSERT_EQ(back.element_count(), nl.element_count());
  for (std::size_t i = 0; i < nl.elements().size(); ++i) {
    EXPECT_EQ(back.elements()[i].type, nl.elements()[i].type);
    EXPECT_EQ(back.elements()[i].name, nl.elements()[i].name);
    EXPECT_DOUBLE_EQ(back.elements()[i].value, nl.elements()[i].value);
  }
  EXPECT_EQ(back.node_count(), nl.node_count());
}

TEST(Writer, GeneratedSuiteRoundTripsStructurally) {
  // The corpus-generation path the golden solver consumes: every generated
  // netlist must survive write -> re-parse with its structure intact
  // (node/element counts, element types/names/values, endpoint names).
  lmmir::gen::SuiteOptions sopts;
  sopts.scale = 0.045;  // small dies: keeps the batch fast
  const auto configs = lmmir::gen::fake_training_suite(3, 0xC0FFEE, sopts);
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    const Netlist nl = lmmir::gen::generate_pdn(cfg);
    const std::string written = write_netlist_string(nl, cfg.name);
    const Netlist back = parse_netlist_string(written);
    ASSERT_EQ(back.node_count(), nl.node_count());
    ASSERT_EQ(back.element_count(), nl.element_count());
    for (auto t : {ElementType::Resistor, ElementType::CurrentSource,
                   ElementType::VoltageSource})
      EXPECT_EQ(back.count(t), nl.count(t));
    auto node_name = [](const Netlist& n, NodeId id) {
      return id == kGroundNode ? std::string("0") : n.node(id).raw_name;
    };
    for (std::size_t i = 0; i < nl.elements().size(); ++i) {
      const auto& a = nl.elements()[i];
      const auto& b = back.elements()[i];
      ASSERT_EQ(b.type, a.type) << "element " << i;
      EXPECT_EQ(b.name, a.name) << "element " << i;
      EXPECT_DOUBLE_EQ(b.value, a.value) << "element " << i;
      EXPECT_EQ(node_name(back, b.node1), node_name(nl, a.node1));
      EXPECT_EQ(node_name(back, b.node2), node_name(nl, a.node2));
    }
    // Second round trip is a fixed point: identical text.
    EXPECT_EQ(write_netlist_string(back, cfg.name), written);
  }
}

TEST(Parser, FuzzNeverCrashesOnlyThrows) {
  // Random token soup must either parse or throw std::runtime_error —
  // never crash or loop.
  lmmir::util::Rng rng(0xF022);
  const char* vocab[] = {"R1", "I2", "V3", "n1_m1_0_0", "n1_m2_5_5", "0",
                         "1.5", "abc", "-2", "1k", ".end", "*", "", "R",
                         "n1_m1_x_y", "1e999"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int lines = rng.randint(1, 6);
    for (int l = 0; l < lines; ++l) {
      const int toks = rng.randint(0, 5);
      for (int t = 0; t < toks; ++t) {
        text += vocab[rng.randint(0, 15)];
        text += ' ';
      }
      text += '\n';
    }
    try {
      const Netlist nl = parse_netlist_string(text);
      (void)nl.node_count();
    } catch (const std::runtime_error&) {
      // acceptable outcome for malformed input
    }
  }
  SUCCEED();
}

TEST(Netlist, InternDeduplicates) {
  Netlist nl;
  const NodeId a = nl.intern_node("n1_m1_0_0");
  const NodeId b = nl.intern_node("n1_m1_0_0");
  EXPECT_EQ(a, b);
  EXPECT_EQ(nl.intern_node("0"), kGroundNode);
  EXPECT_EQ(nl.node_count(), 1u);
}

TEST(Netlist, InternAndFindAcrossIndexGrowth) {
  // 1500 names take the index through seven doublings; ids stay dense and
  // in first-interning order, and every earlier name stays findable.
  Netlist nl;
  EXPECT_FALSE(nl.find_node("n1_m1_0_0").has_value());  // empty index
  std::vector<std::string> names;
  for (int i = 0; i < 1500; ++i)
    names.push_back(i % 3 == 0 ? "free_" + std::to_string(i)
                               : NodeName{1, 1 + i % 4, 1000 * i, 7 * i}.to_string());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(nl.intern_node(names[i]), static_cast<NodeId>(i));
    ASSERT_EQ(nl.node_count(), i + 1);
    if ((i & (i - 1)) == 0) {  // after each power of two, re-check all so far
      for (std::size_t j = 0; j <= i; ++j)
        ASSERT_EQ(nl.find_node(names[j]), static_cast<NodeId>(j)) << names[j];
    }
  }
  const std::uint64_t revision = nl.revision();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(nl.intern_node(names[i]), static_cast<NodeId>(i));
    EXPECT_EQ(nl.node(static_cast<NodeId>(i)).raw_name, names[i]);
    EXPECT_EQ(nl.node(static_cast<NodeId>(i)).parsed.has_value(), i % 3 != 0);
  }
  EXPECT_EQ(nl.node_count(), names.size());
  EXPECT_EQ(nl.revision(), revision);  // re-interning changes nothing
  EXPECT_EQ(nl.intern_node("0"), kGroundNode);
  EXPECT_EQ(nl.find_node("0"), kGroundNode);
  EXPECT_EQ(nl.node_count(), names.size());
  for (const char* absent : {"", "00", "free_1", "free_1500", "n1_m1_0_1",
                             "n1_m2_1000_7 ", "N1_M2_1000_7"})
    EXPECT_FALSE(nl.find_node(absent).has_value()) << absent;
}

TEST(Netlist, CopyInternsWithoutChangingOriginal) {
  Netlist original;
  for (int i = 0; i < 40; ++i)
    original.intern_node(NodeName{1, 1, 1000 * i, 0}.to_string());
  Netlist copy = original;
  for (int i = 0; i < 200; ++i)  // grows the copy's index past the original's
    EXPECT_EQ(copy.intern_node("extra_" + std::to_string(i)),
              static_cast<NodeId>(40 + i));
  EXPECT_EQ(original.node_count(), 40u);
  for (int i = 0; i < 40; ++i) {
    const std::string name = NodeName{1, 1, 1000 * i, 0}.to_string();
    EXPECT_EQ(original.find_node(name), static_cast<NodeId>(i));
    EXPECT_EQ(copy.find_node(name), static_cast<NodeId>(i));
  }
  EXPECT_FALSE(original.find_node("extra_0").has_value());
  EXPECT_EQ(copy.find_node("extra_199"), static_cast<NodeId>(239));
  EXPECT_LT(original.resident_bytes(), copy.resident_bytes());
}

TEST(Netlist, BoundsOverParsedNodes) {
  Netlist nl;
  nl.intern_node("n1_m1_1000_2000");
  nl.intern_node("n1_m2_5000_500");
  nl.intern_node("free_node");
  const auto b = nl.bounds();
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.min_x, 1000);
  EXPECT_EQ(b.max_x, 5000);
  EXPECT_EQ(b.min_y, 500);
  EXPECT_EQ(b.max_y, 2000);
}

}  // namespace
