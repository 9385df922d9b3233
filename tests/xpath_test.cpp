#include <gtest/gtest.h>

#include "xml/builder.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::xpath {
namespace {

using xml::Document;
using xml::Node;

std::unique_ptr<Document> auction_sample() {
  auto result = xml::parse(R"(
    <site>
      <people>
        <person id="p1"><name>Ana</name><age>30</age></person>
        <person id="p2"><name>Bruno</name><age>41</age>
          <watches><watch open_auction="a1"/></watches>
        </person>
        <person id="p3"><name>Carla</name></person>
      </people>
      <regions>
        <europe>
          <item id="i1"><name>Clock</name><price>10.30</price></item>
          <item id="i2"><name>Vase</name><price>99</price></item>
        </europe>
        <asia>
          <item id="i3"><name>Clock</name><price>7</price></item>
        </asia>
      </regions>
    </site>)",
                           "auction");
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

// --- parsing ----------------------------------------------------------------

TEST(XPathParseTest, SimpleAbsolutePath) {
  auto path = parse("/site/people/person");
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  ASSERT_EQ(path.value().steps.size(), 3u);
  EXPECT_EQ(path.value().steps[0].name, "site");
  EXPECT_EQ(path.value().steps[2].axis, Axis::kChild);
}

TEST(XPathParseTest, DescendantAxis) {
  auto path = parse("//person/name");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(path.value().steps[1].axis, Axis::kChild);
}

TEST(XPathParseTest, PredicatesParsed) {
  auto path = parse("/site/people/person[@id='p2']/name");
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  const Step& person = path.value().steps[2];
  ASSERT_EQ(person.predicates.size(), 1u);
  EXPECT_EQ(person.predicates[0].kind, PredicateKind::kEquals);
  EXPECT_EQ(person.predicates[0].literal, "p2");
  EXPECT_EQ(person.predicates[0].path.steps[0].test, NodeTest::kAttribute);
}

TEST(XPathParseTest, ChildValuePredicate) {
  auto path = parse("/site//item[name='Clock']");
  ASSERT_TRUE(path.is_ok());
  const Step& item = path.value().steps[1];
  ASSERT_EQ(item.predicates.size(), 1u);
  EXPECT_EQ(item.predicates[0].path.steps[0].name, "name");
}

TEST(XPathParseTest, PositionPredicate) {
  auto path = parse("/site/people/person[2]");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[2].predicates[0].kind,
            PredicateKind::kPosition);
  EXPECT_EQ(path.value().steps[2].predicates[0].position, 2u);
}

TEST(XPathParseTest, WildcardAndText) {
  auto path = parse("/site/*/person/text()");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[1].test, NodeTest::kWildcard);
  EXPECT_EQ(path.value().steps[3].test, NodeTest::kText);
}

TEST(XPathParseTest, AttributeFinalStep) {
  auto path = parse("/site/people/person/@id");
  ASSERT_TRUE(path.is_ok());
  EXPECT_TRUE(path.value().targets_attribute());
}

TEST(XPathParseTest, AttributeMidPathRejected) {
  EXPECT_FALSE(parse("/site/@id/person").is_ok());
}

TEST(XPathParseTest, RelativePathParsed) {
  auto rel = parse_relative("watches/watch/@open_auction");
  ASSERT_TRUE(rel.is_ok()) << rel.status().to_string();
  EXPECT_EQ(rel.value().steps.size(), 3u);
}

TEST(XPathParseTest, ErrorCases) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("site/people").is_ok());       // not absolute
  EXPECT_FALSE(parse("/site[").is_ok());            // unterminated predicate
  EXPECT_FALSE(parse("/site/people/person[0]").is_ok());  // 0 position
  EXPECT_FALSE(parse("/site/$bad").is_ok());        // bad character
  EXPECT_FALSE(parse("/site/people ]").is_ok());    // trailing tokens
  EXPECT_FALSE(parse("/a[b='unterminated]").is_ok());
}

TEST(XPathParseTest, ToStringRoundTrips) {
  for (const char* expr :
       {"/site/people/person", "//person/name",
        "/site/people/person[@id='p2']/name", "/site//item[name='Clock']",
        "/site/people/person[2]", "/site/people/person/@id",
        "/a/*/text()"}) {
    auto first = parse(expr);
    ASSERT_TRUE(first.is_ok()) << expr;
    auto second = parse(first.value().to_string());
    ASSERT_TRUE(second.is_ok()) << first.value().to_string();
    EXPECT_EQ(first.value().to_string(), second.value().to_string());
  }
}

// --- evaluation ---------------------------------------------------------------

std::vector<Node*> eval(const std::string& expr, const Document& doc) {
  auto path = parse(expr);
  EXPECT_TRUE(path.is_ok()) << path.status().to_string();
  return evaluate(path.value(), doc);
}

TEST(XPathEvalTest, RootSelection) {
  auto doc = auction_sample();
  auto nodes = eval("/site", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], doc->root());
}

TEST(XPathEvalTest, RootNameMismatchSelectsNothing) {
  auto doc = auction_sample();
  EXPECT_TRUE(eval("/wrong", *doc).empty());
}

TEST(XPathEvalTest, ChildChain) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/people/person", *doc).size(), 3u);
}

TEST(XPathEvalTest, DescendantAxisFindsAllDepths) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("//item", *doc).size(), 3u);
  EXPECT_EQ(eval("//name", *doc).size(), 6u);  // 3 person + 3 item names
  EXPECT_EQ(eval("/site//item", *doc).size(), 3u);
}

TEST(XPathEvalTest, WildcardStep) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/regions/*", *doc).size(), 2u);       // europe, asia
  EXPECT_EQ(eval("/site/regions/*/item", *doc).size(), 3u);
}

TEST(XPathEvalTest, AttributeEqualityPredicate) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[@id='p2']", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->first_child_named("name")->text(), "Bruno");
}

TEST(XPathEvalTest, ChildValuePredicate) {
  auto doc = auction_sample();
  auto nodes = eval("//item[name='Clock']", *doc);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(XPathEvalTest, NumericLiteralComparison) {
  auto doc = auction_sample();
  // "10.30" == 10.3 numerically.
  EXPECT_EQ(eval("//item[price='10.3']", *doc).size(), 1u);
  EXPECT_EQ(eval("//item[price='99']", *doc).size(), 1u);
}

TEST(XPathEvalTest, ExistencePredicate) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/people/person[watches]", *doc).size(), 1u);
  EXPECT_EQ(eval("/site/people/person[age]", *doc).size(), 2u);
}

TEST(XPathEvalTest, NestedRelativePredicate) {
  auto doc = auction_sample();
  auto nodes =
      eval("/site/people/person[watches/watch/@open_auction='a1']", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(*nodes[0]->attribute("id"), "p2");
}

TEST(XPathEvalTest, PositionPredicate) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[2]", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(*nodes[0]->attribute("id"), "p2");
  EXPECT_TRUE(eval("/site/people/person[9]", *doc).empty());
}

TEST(XPathEvalTest, TextStep) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[@id='p1']/name/text()", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->value(), "Ana");
}

TEST(XPathEvalTest, AttributeFinalStepReturnsOwners) {
  auto doc = auction_sample();
  auto path = parse("/site/people/person/@id");
  ASSERT_TRUE(path.is_ok());
  auto values = evaluate_strings(path.value(), *doc);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], "p1");
  EXPECT_EQ(values[2], "p3");
}

TEST(XPathEvalTest, EvaluateStringsForElements) {
  auto doc = auction_sample();
  auto path = parse("/site/people/person[@id='p1']/name");
  ASSERT_TRUE(path.is_ok());
  auto values = evaluate_strings(path.value(), *doc);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "Ana");
}

TEST(XPathEvalTest, NoDuplicatesFromNestedDescendants) {
  auto result = xml::parse("<a><b><b><c/></b><c/></b></a>", "t");
  ASSERT_TRUE(result.is_ok());
  // //b//c: outer b reaches both c's, inner b reaches one — dedupe to 2.
  EXPECT_EQ(eval("//b//c", *result.value()).size(), 2u);
}

TEST(XPathEvalTest, EmptyDocumentYieldsNothing) {
  Document doc("empty");
  EXPECT_TRUE(eval("/a", doc).empty());
}

TEST(XPathEvalTest, RelativeEvaluation) {
  auto doc = auction_sample();
  auto person = eval("/site/people/person[@id='p2']", *doc);
  ASSERT_EQ(person.size(), 1u);
  auto rel = parse_relative("watches/watch");
  ASSERT_TRUE(rel.is_ok());
  EXPECT_EQ(evaluate_relative(rel.value(), *person[0]).size(), 1u);
}

TEST(XPathEvalTest, LiteralEqualsRules) {
  EXPECT_TRUE(literal_equals("10.30", "10.3"));
  EXPECT_TRUE(literal_equals("abc", "abc"));
  EXPECT_FALSE(literal_equals("abc", "abd"));
  EXPECT_FALSE(literal_equals("10", "10x"));  // not both numeric, unequal text
  EXPECT_TRUE(literal_equals("007", "7"));
}

// --- semantics table -----------------------------------------------------------
//
// What the evaluator must keep however it is built: the order of a step's
// output (contexts one after another, each in document order), duplicates
// removed after descendant steps from several contexts, position predicates
// counted per context and after the predicates before them, and the string
// and numeric comparison rules.

struct EvalCase {
  const char* xml;
  const char* expression;
  /// One label per selected node, in order: an element's id attribute
  /// (its name when it has none), a text node's value in quotes.
  std::vector<std::string> expected;
};

std::string label(const Node& node) {
  if (node.is_text()) return "'" + node.value() + "'";
  const std::string* id = node.attribute("id");
  return id != nullptr ? *id : node.name();
}

constexpr const char* kNestedA =
    "<r><a id='a1'><b id='b1'/><a id='a2'><b id='b2'/><b id='b3'/></a>"
    "<b id='b4'/></a><a id='a3'><b id='b5'/></a></r>";
constexpr const char* kTwoLists =
    "<r><a id='a1'><b id='b1'/><b id='b2'/></a><a id='a2'><b id='b3'/></a>"
    "</r>";
constexpr const char* kKeyed =
    "<r><a><b id='x1' k='1'/><b id='x2' k='2'/><b id='x3' k='1'/></a>"
    "<a><b id='x4' k='1'/><b id='x5' k='1'/></a></r>";
constexpr const char* kSparseAttrs =
    "<r><a id='a1'>t1<b/></a><a>t2</a><a id='a3'/></r>";
constexpr const char* kPrices =
    "<r><p id='p1'><price>1.50</price></p><p id='p2'><price>1.5x</price></p>"
    "<p id='p3' n='007'><price>2</price></p></r>";
constexpr const char* kMixed = "<r><a>x<b>y</b>z</a><c>w</c></r>";
constexpr const char* kProfiles =
    "<site><person id='p1'><profile><age>30</age></profile></person>"
    "<person id='p2'><profile><age>31</age></profile>"
    "<profile><age>30.0</age></profile></person><person id='p3'/></site>";

const EvalCase kEvalCases[] = {
    // Nested descendants reached from several contexts: no duplicates,
    // document order within each context.
    {kNestedA, "//a//b", {"b1", "b2", "b3", "b4", "b5"}},
    {kNestedA, "//a//a", {"a2"}},
    {kNestedA, "//a//b[1]", {"b1", "b2", "b5"}},
    {kNestedA, "//a//b[2]", {"b2", "b3"}},
    {kNestedA, "//a/b", {"b1", "b4", "b2", "b3", "b5"}},
    // Position predicates count per context.
    {kTwoLists, "/r/a/b[1]", {"b1", "b3"}},
    {kTwoLists, "/r/a/b[2]", {"b2"}},
    {kTwoLists, "/r/a[2]/b", {"b3"}},
    {kTwoLists, "//b[1]", {"b1"}},  // one context: the document node
    {kTwoLists, "/r/a/b[3]", {}},
    // ... and after the predicates written before them.
    {kKeyed, "/r/a/b[@k='1'][2]", {"x3", "x5"}},
    {kKeyed, "/r/a/b[2][@k='1']", {"x5"}},
    {kKeyed, "/r/a/b[@k='1'][1][1]", {"x1", "x4"}},
    {kKeyed, "/r/a/b[@k='1'][1][2]", {}},
    // [@a] on text nodes and on elements without attributes.
    {kSparseAttrs, "/r/a/text()[@id]", {}},
    {kSparseAttrs, "/r/a/text()[@id='a1']", {}},
    {kSparseAttrs, "/r/a/b[@id]", {}},
    {kSparseAttrs, "/r/a[@id]", {"a1", "a3"}},
    {kSparseAttrs, "//*[@id='a3']", {"a3"}},
    {kSparseAttrs, "/r/a/@id", {"a1", "a3"}},
    // Numeric literal equality when both sides parse as numbers.
    {kPrices, "/r/p[price=1.5]", {"p1"}},
    {kPrices, "/r/p[price='1.5']", {"p1"}},
    {kPrices, "/r/p[price=2.0]", {"p3"}},
    {kPrices, "/r/p[price='1.5x']", {"p2"}},
    {kPrices, "/r/p[@n=7]", {"p3"}},
    {kPrices, "/r/p[@n='007']", {"p3"}},
    // Descendant text() and string-values over mixed content.
    {kMixed, "//text()", {"'x'", "'y'", "'z'", "'w'"}},
    {kMixed, "/r/a//text()", {"'x'", "'y'", "'z'"}},
    {kMixed, "/r/a/text()", {"'x'", "'z'"}},
    {kMixed, "/r//text()[2]", {"'y'"}},
    {kMixed, "/r/*//text()[1]", {"'x'", "'w'"}},
    {kMixed, "/r[a='xyz']", {"r"}},
    {kMixed, "/r[a='xy']", {}},
    {kMixed, "/r[//text()='w']", {"r"}},
    // Multi-step relative predicates: any selected node may match.
    {kProfiles, "/site/person[profile/age='30']", {"p1", "p2"}},
    {kProfiles, "/site/person[profile[1]/age='30']", {"p1"}},
    {kProfiles, "/site/person[profile/age]", {"p1", "p2"}},
    {kProfiles, "/site/person[profile//text()='31']", {"p2"}},
    {kProfiles, "/site/person[profile/age='30'][2]", {"p2"}},
};

TEST(XPathSemanticsTest, Table) {
  for (const EvalCase& test_case : kEvalCases) {
    auto doc = xml::parse(test_case.xml, "t");
    ASSERT_TRUE(doc.is_ok()) << test_case.xml;
    std::vector<std::string> got;
    for (const Node* node : eval(test_case.expression, *doc.value())) {
      got.push_back(label(*node));
    }
    EXPECT_EQ(got, test_case.expected)
        << test_case.expression << " over " << test_case.xml;
  }
}

// An attribute step selects the element owning the attribute whatever its
// axis, so an absolute '//@id' selects the root once (it used to list the
// root twice, breaking the no-duplicates contract).
TEST(XPathSemanticsTest, AttributeFirstStepSelectsTheRootOnce) {
  auto doc = xml::parse("<r id='r1'><a id='a1'/></r>", "t");
  ASSERT_TRUE(doc.is_ok());
  for (const char* expression : {"//@id", "/@id", "/r//@id"}) {
    const auto nodes = eval(expression, *doc.value());
    ASSERT_EQ(nodes.size(), 1u) << expression;
    EXPECT_EQ(nodes[0], doc.value()->root()) << expression;
  }
}

TEST(XPathSemanticsTest, RelativePathsKeepTheSameRules) {
  auto doc = xml::parse(kNestedA, "t");
  ASSERT_TRUE(doc.is_ok());
  Node* a1 = doc.value()->root()->child(0);
  for (const auto& [expression, expected] :
       std::vector<std::pair<const char*, std::vector<std::string>>>{
           {"b", {"b1", "b4"}},
           {"//b[1]", {"b1"}},
           {"a//b[2]", {"b3"}},
           {"*//b", {"b2", "b3"}},
       }) {
    auto rel = parse_relative(expression);
    ASSERT_TRUE(rel.is_ok()) << expression;
    std::vector<std::string> got;
    for (const Node* node : evaluate_relative(rel.value(), *a1)) {
      got.push_back(label(*node));
    }
    EXPECT_EQ(got, expected) << expression;
  }
}

}  // namespace
}  // namespace dtx::xpath
