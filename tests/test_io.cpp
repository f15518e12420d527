// I/O tests: bit-exact instance round-trips, parse diagnostics, SVG, JSON
// and table smoke checks.

#include <algorithm>

#include "core/router.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "io/instance_io.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "io/tree_json.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace astclk::io {
namespace {

TEST(InstanceIo, RoundTripIsBitExact) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    gen::apply_intermingled_groups(inst, 5, 7);
    std::stringstream ss;
    write_instance(ss, inst);
    const auto back = read_instance(ss);
    EXPECT_EQ(back.name, inst.name);
    EXPECT_EQ(back.num_groups, inst.num_groups);
    EXPECT_EQ(back.die_width, inst.die_width);
    EXPECT_EQ(back.source.x, inst.source.x);
    ASSERT_EQ(back.sinks.size(), inst.sinks.size());
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        EXPECT_EQ(back.sinks[i], inst.sinks[i]);  // exact doubles
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
    std::stringstream ss;
    ss << "astclk-instance v1\n# a comment\n\nname t\ndie 10 10\n"
       << "source 5 5\ngroups 1\nsinks 2\n"
       << "1 1 1e-15 0  # trailing comment\n2 2 1e-15 0\n";
    const auto inst = read_instance(ss);
    EXPECT_EQ(inst.size(), 2u);
}

TEST(InstanceIo, RejectsMissingHeader) {
    std::stringstream ss("name x\n");
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, RejectsTruncatedSinkList) {
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\ngroups 1\n"
       << "sinks 3\n1 1 1e-15 0\n";
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, RejectsInvalidInstance) {
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\ngroups 2\n"
       << "sinks 1\n1 1 1e-15 0\n";  // group 1 empty
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, HugeSinkCountIsAParseErrorNotAnAllocation) {
    // The header count is untrusted: it must not be reserved up front
    // (a bad_alloc would surface as a retryable fault), only consumed.
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\ngroups 1\n"
       << "sinks 99999999999999\n1 1 1e-15 0\n";
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, HugeGroupCountIsAParseErrorNotAnAllocation) {
    // Validation sized one counter per declared group before checking the
    // count, so this header asked for 8 GB.
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\n"
       << "groups 2000000000\nsinks 2\n1 1 1e-15 0\n2 2 1e-15 1\n";
    try {
        (void)read_instance(ss);
        ADD_FAILURE() << "parsed an instance with 2e9 groups and 2 sinks";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("num_groups"), std::string::npos)
            << e.what();
    }
}

TEST(InstanceIo, RejectsUnknownHeaderKey) {
    std::stringstream ss("astclk-instance v1\nfrobnicate 3\n");
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(Svg, RendersRoutedTree) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    inst.sinks.resize(40);
    inst.num_groups = 1;
    gen::apply_intermingled_groups(inst, 3, 1);
    const auto route = core::route_ast_dme(inst);
    std::stringstream ss;
    svg_options opt;
    opt.draw_arcs = true;
    write_tree_svg(ss, route.tree, inst, opt);
    const std::string svg = ss.str();
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("<circle"), std::string::npos);  // sinks
    EXPECT_NE(svg.find("<path"), std::string::npos);    // edges
}

TEST(Table, AlignsColumnsAndFormats) {
    table t({"Circuit", "Wirelen", "Reduction"});
    t.add_row({"r1", table::integer(1070421.4), table::percent(0.0939)});
    t.add_rule();
    t.add_row({"r2", table::integer(2169791.0), table::percent(0.105)});
    std::stringstream ss;
    t.print(ss);
    const std::string s = ss.str();
    EXPECT_NE(s.find("1070421"), std::string::npos);
    EXPECT_NE(s.find("9.39%"), std::string::npos);
    EXPECT_NE(s.find("10.50%"), std::string::npos);
    EXPECT_NE(s.find("| Circuit "), std::string::npos);
}

TEST(TreeJson, ExportsConsistentStructure) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    inst.sinks.resize(25);
    inst.num_groups = 1;
    gen::apply_intermingled_groups(inst, 2, 4);
    const auto route = core::route_ast_dme(inst);
    std::stringstream ss;
    write_tree_json(ss, route.tree, inst);
    const std::string j = ss.str();
    // Structural markers: one node object per tree node, root id, and the
    // booked wirelength.
    std::size_t count = 0, pos = 0;
    while ((pos = j.find("\"id\":", pos)) != std::string::npos) {
        ++count;
        ++pos;
    }
    EXPECT_EQ(count, route.tree.size());
    EXPECT_NE(j.find("\"root\": " + std::to_string(route.tree.root())),
              std::string::npos);
    EXPECT_NE(j.find("\"wirelength\":"), std::string::npos);
    EXPECT_NE(j.find("\"edge_left\":"), std::string::npos);
    EXPECT_NE(j.find("\"group\":"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));
}

TEST(Table, FixedFormatting) {
    EXPECT_EQ(table::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(table::integer(41.7), "42");
    EXPECT_EQ(table::percent(0.5), "50.00%");
}

}  // namespace
}  // namespace astclk::io
