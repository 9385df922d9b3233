#include <gtest/gtest.h>

#include "util/rng.hpp"

#include "xml/builder.hpp"
#include "xml/document.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace dtx::xml {
namespace {

std::unique_ptr<Document> sample_store() {
  Builder b("d2");
  b.root("products");
  b.child("product").attr("id", "4");
  b.leaf("description", "Monitor").leaf("price", "120.00").up();
  b.child("product").attr("id", "14");
  b.leaf("description", "Mouse").leaf("price", "10.30").up();
  return b.take();
}

// --- Node basics -------------------------------------------------------------

TEST(NodeTest, ElementConstruction) {
  Document doc("d");
  auto element = doc.create_element("person");
  EXPECT_TRUE(element->is_element());
  EXPECT_EQ(element->name(), "person");
  EXPECT_NE(element->id(), kInvalidNodeId);
}

TEST(NodeTest, TextConstruction) {
  Document doc("d");
  auto text = doc.create_text("hello");
  EXPECT_TRUE(text->is_text());
  EXPECT_EQ(text->value(), "hello");
}

TEST(NodeTest, IdsAreUniqueWithinDocument) {
  Document doc("d");
  auto a = doc.create_element("a");
  auto b = doc.create_element("b");
  auto t = doc.create_text("x");
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(b->id(), t->id());
}

TEST(NodeTest, AttributesSetGetRemove) {
  Document doc("d");
  auto element = doc.create_element("person");
  element->set_attribute("id", "4");
  ASSERT_NE(element->attribute("id"), nullptr);
  EXPECT_EQ(*element->attribute("id"), "4");
  element->set_attribute("id", "5");  // overwrite
  EXPECT_EQ(*element->attribute("id"), "5");
  EXPECT_TRUE(element->remove_attribute("id"));
  EXPECT_EQ(element->attribute("id"), nullptr);
  EXPECT_FALSE(element->remove_attribute("id"));
}

TEST(NodeTest, InsertAndRemoveChildren) {
  Document doc("d");
  auto parent_owner = doc.create_element("parent");
  Node* parent = parent_owner.get();
  Node* first = parent->append_child(doc.create_element("a"));
  Node* second = parent->append_child(doc.create_element("b"));
  Node* between = parent->insert_child(1, doc.create_element("mid"));

  ASSERT_EQ(parent->child_count(), 3u);
  EXPECT_EQ(parent->child(0), first);
  EXPECT_EQ(parent->child(1), between);
  EXPECT_EQ(parent->child(2), second);
  EXPECT_EQ(between->parent(), parent);
  EXPECT_EQ(between->index_in_parent(), 1u);

  auto removed = parent->remove_child(1);
  EXPECT_EQ(removed.get(), between);
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(parent->child_count(), 2u);
}

TEST(NodeTest, LabelPath) {
  auto doc = sample_store();
  Node* product = doc->root()->child(0);
  Node* price = product->first_child_named("price");
  ASSERT_NE(price, nullptr);
  EXPECT_EQ(price->label_path(), "/products/product/price");
  EXPECT_EQ(price->child(0)->label_path(),
            "/products/product/price/#text");
}

TEST(NodeTest, TextAndDeepText) {
  auto doc = sample_store();
  Node* product = doc->root()->child(0);
  EXPECT_EQ(product->first_child_named("price")->text(), "120.00");
  EXPECT_EQ(product->text(), "");  // no direct text children
  EXPECT_EQ(product->deep_text(), "Monitor120.00");
}

TEST(NodeTest, SubtreeSizeAndDepth) {
  auto doc = sample_store();
  // products + 2 * (product + description + #text + price + #text) = 11
  EXPECT_EQ(doc->root()->subtree_size(), 11u);
  EXPECT_EQ(doc->root()->depth(), 0u);
  EXPECT_EQ(doc->root()->child(0)->depth(), 1u);
}

TEST(NodeTest, ContainsIsReflexiveAndTransitive) {
  auto doc = sample_store();
  Node* root = doc->root();
  Node* price = root->child(0)->first_child_named("price");
  EXPECT_TRUE(root->contains(*root));
  EXPECT_TRUE(root->contains(*price));
  EXPECT_FALSE(price->contains(*root));
}

TEST(NodeTest, DeepEqualIgnoresIds) {
  auto a = sample_store();
  auto b = sample_store();
  EXPECT_TRUE(a->root()->deep_equal(*b->root()));
  b->root()->child(0)->set_attribute("id", "999");
  EXPECT_FALSE(a->root()->deep_equal(*b->root()));
}

TEST(NodeTest, CloneIsDeepWithFreshIds) {
  auto doc = sample_store();
  auto copy = doc->root()->clone(*doc);
  EXPECT_TRUE(copy->deep_equal(*doc->root()));
  EXPECT_NE(copy->id(), doc->root()->id());
}

TEST(NodeTest, ChildrenNamed) {
  auto doc = sample_store();
  EXPECT_EQ(doc->root()->children_named("product").size(), 2u);
  EXPECT_EQ(doc->root()->children_named("nothing").size(), 0u);
}

// --- Document -----------------------------------------------------------------

TEST(DocumentTest, FindById) {
  auto doc = sample_store();
  Node* product = doc->root()->child(1);
  EXPECT_EQ(doc->find(product->id()), product);
  EXPECT_EQ(doc->find(999999), nullptr);
}

TEST(DocumentTest, UnregisterSubtree) {
  auto doc = sample_store();
  Node* product = doc->root()->child(1);
  const NodeId id = product->id();
  auto detached = doc->root()->remove_child(1);
  EXPECT_EQ(doc->find(id), detached.get());  // still registered while held
  detached.reset();  // dropping the subtree unregisters its ids
  EXPECT_EQ(doc->find(id), nullptr);
}

TEST(DocumentTest, NodeCountAndClone) {
  auto doc = sample_store();
  EXPECT_EQ(doc->node_count(), 11u);
  auto copy = doc->clone("copy");
  EXPECT_EQ(copy->name(), "copy");
  EXPECT_TRUE(copy->deep_equal(*doc));
  EXPECT_EQ(copy->node_count(), 11u);
}

// --- Builder -------------------------------------------------------------------

TEST(BuilderTest, BuildsNestedStructure) {
  Builder b("d1");
  b.root("people")
      .child("person")
      .attr("id", "4")
      .leaf("name", "John")
      .up();
  auto doc = b.take();
  ASSERT_TRUE(doc->has_root());
  Node* person = doc->root()->first_child_named("person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(*person->attribute("id"), "4");
  EXPECT_EQ(person->first_child_named("name")->text(), "John");
}

// --- Parser ----------------------------------------------------------------------

TEST(ParserTest, ParsesSimpleDocument) {
  auto result = parse("<a><b>hi</b><c x='1'/></a>", "t");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Document& doc = *result.value();
  EXPECT_EQ(doc.root()->name(), "a");
  EXPECT_EQ(doc.root()->child_count(), 2u);
  EXPECT_EQ(doc.root()->child(0)->first_child_named("b"), nullptr);
  EXPECT_EQ(doc.root()->first_child_named("b")->text(), "hi");
  EXPECT_EQ(*doc.root()->first_child_named("c")->attribute("x"), "1");
}

TEST(ParserTest, DeclarationCommentsDoctypeSkipped) {
  const char* text =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
      "<!-- top comment -->\n"
      "<a><!-- inner --><b>x</b></a>\n"
      "<!-- trailing -->";
  auto result = parse(text, "t");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value()->root()->first_child_named("b")->text(), "x");
}

TEST(ParserTest, EntitiesUnescaped) {
  auto result = parse("<a attr='&lt;3'>&amp;&gt;</a>", "t");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->root()->text(), "&>");
  EXPECT_EQ(*result.value()->root()->attribute("attr"), "<3");
}

TEST(ParserTest, CdataBecomesText) {
  auto result = parse("<a><![CDATA[x < y & z]]></a>", "t");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->root()->text(), "x < y & z");
}

TEST(ParserTest, WhitespaceStrippedByDefault) {
  auto result = parse("<a>\n  <b>x</b>\n</a>", "t");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->root()->child_count(), 1u);
}

TEST(ParserTest, WhitespaceKeptWhenRequested) {
  ParseOptions options;
  options.strip_whitespace_text = false;
  auto result = parse("<a>\n  <b>x</b>\n</a>", "t", options);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->root()->child_count(), 3u);
}

TEST(ParserTest, SelfClosingTag) {
  auto result = parse("<a><b/><c/></a>", "t");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->root()->child_count(), 2u);
}

TEST(ParserTest, ErrorOnMismatchedTags) {
  auto result = parse("<a><b></a></b>", "t");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), util::Code::kInvalidArgument);
}

TEST(ParserTest, ErrorOnUnterminatedElement) {
  EXPECT_FALSE(parse("<a><b>", "t").is_ok());
}

TEST(ParserTest, ErrorOnTrailingContent) {
  EXPECT_FALSE(parse("<a/><b/>", "t").is_ok());
}

TEST(ParserTest, ErrorOnEmptyInput) {
  EXPECT_FALSE(parse("", "t").is_ok());
  EXPECT_FALSE(parse("   \n  ", "t").is_ok());
}

TEST(ParserTest, ErrorMentionsLineNumber) {
  auto result = parse("<a>\n<b>\n</c>\n</a>", "t");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().to_string();
}

TEST(ParserTest, FragmentParsesIntoExistingDocument) {
  Document doc("d");
  auto fragment = parse_fragment("<person><name>Ana</name></person>", doc);
  ASSERT_TRUE(fragment.is_ok());
  EXPECT_EQ(fragment.value()->name(), "person");
  // Ids registered with the host document.
  EXPECT_EQ(doc.find(fragment.value()->id()), fragment.value().get());
}

// --- Serializer -------------------------------------------------------------------

TEST(SerializerTest, RoundTripCompact) {
  auto doc = sample_store();
  const std::string text = serialize(*doc);
  auto reparsed = parse(text, "copy");
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_TRUE(reparsed.value()->deep_equal(*doc));
}

TEST(SerializerTest, RoundTripWithSpecialCharacters) {
  Builder b("d");
  b.root("a").attr("q", "x\"<>&'").leaf("t", "1 < 2 & 3 > 2");
  auto doc = b.take();
  auto reparsed = parse(serialize(*doc), "copy");
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_TRUE(reparsed.value()->deep_equal(*doc));
}

TEST(SerializerTest, IndentedOutputHasNewlines) {
  auto doc = sample_store();
  SerializeOptions options;
  options.indent = true;
  const std::string pretty = serialize(*doc, options);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto reparsed = parse(pretty, "copy");
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_TRUE(reparsed.value()->deep_equal(*doc));
}

TEST(SerializerTest, DeclarationEmitted) {
  auto doc = sample_store();
  SerializeOptions options;
  options.declaration = true;
  EXPECT_EQ(serialize(*doc, options).rfind("<?xml", 0), 0u);
}

TEST(SerializerTest, EmptyElementSelfCloses) {
  auto result = parse("<a><b></b></a>", "t");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(serialize(*result.value()), "<a><b/></a>");
}

TEST(SerializerTest, SerializedSizeMatches) {
  auto doc = sample_store();
  EXPECT_EQ(serialized_size(*doc->root()), serialize(*doc->root()).size());
}


// --- property tests -----------------------------------------------------------

namespace property {

#include <cstdint>

/// Random tree generator for round-trip properties.
xml::Node* random_subtree(dtx::util::Rng& rng, Document& doc, Node* parent,
                          int depth) {
  Node* element = parent->append_child(
      doc.create_element(rng.next_word(1, 8)));
  const int attrs = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < attrs; ++i) {
    element->set_attribute(rng.next_word(1, 6),
                           rng.next_word(0 + 1, 10) + "<&'\"");
  }
  if (depth > 0) {
    const int children = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < children; ++i) {
      // Never two adjacent text children: serialization merges them, so
      // they are not representable distinctly (standard XML data model).
      const bool last_was_text =
          element->child_count() > 0 &&
          element->child(element->child_count() - 1)->is_text();
      if (!last_was_text && rng.next_bool(0.3)) {
        element->append_child(
            doc.create_text(rng.next_word(1, 12) + "&<>\""));
      } else {
        random_subtree(rng, doc, element, depth - 1);
      }
    }
  }
  return element;
}

std::unique_ptr<Document> random_document(std::uint64_t seed) {
  dtx::util::Rng rng(seed);
  auto doc = std::make_unique<Document>("random");
  auto root_owner = doc->create_element("root");
  Node* root = doc->set_root(std::move(root_owner));
  const int children = 1 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < children; ++i) {
    random_subtree(rng, *doc, root, 4);
  }
  return doc;
}

}  // namespace property

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripProperty, SerializeParseIsIdentity) {
  for (int i = 0; i < 20; ++i) {
    auto doc = property::random_document(
        static_cast<std::uint64_t>(GetParam()) * 1000 + i);
    const std::string compact = serialize(*doc);
    auto reparsed = parse(compact, "copy");
    ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
    EXPECT_TRUE(reparsed.value()->deep_equal(*doc)) << compact;
    // Serialization is a fixpoint after one round trip.
    EXPECT_EQ(serialize(*reparsed.value()), compact);

    SerializeOptions pretty;
    pretty.indent = true;
    auto pretty_reparsed = parse(serialize(*doc, pretty), "copy2");
    ASSERT_TRUE(pretty_reparsed.is_ok());
    EXPECT_TRUE(pretty_reparsed.value()->deep_equal(*doc));
  }
}

TEST_P(XmlRoundTripProperty, CloneEqualsOriginal) {
  auto doc =
      property::random_document(static_cast<std::uint64_t>(GetParam()));
  auto copy = doc->clone("copy");
  EXPECT_TRUE(copy->deep_equal(*doc));
  EXPECT_EQ(copy->node_count(), doc->node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dtx::xml
