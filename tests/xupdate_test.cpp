#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "workload/xmark.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"
#include "xupdate/undo_log.hpp"
#include "xupdate/update_op.hpp"

namespace dtx::xupdate {
namespace {

using xml::Document;

std::unique_ptr<Document> store_sample() {
  auto result = xml::parse(R"(
    <products>
      <product><id>4</id><description>Monitor</description><price>120.00</price></product>
      <product><id>14</id><description>Printer</description><price>55.00</price></product>
    </products>)",
                           "d2");
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

std::size_t count(const std::string& expr, const Document& doc) {
  auto path = xpath::parse(expr);
  EXPECT_TRUE(path.is_ok());
  return xpath::evaluate(path.value(), doc).size();
}

// --- textual form -------------------------------------------------------------

TEST(UpdateParseTest, InsertRoundTrip) {
  auto op = parse_update(
      "insert into /products ::= <product><id>13</id></product>");
  ASSERT_TRUE(op.is_ok()) << op.status().to_string();
  EXPECT_EQ(op.value().kind, UpdateKind::kInsert);
  EXPECT_EQ(op.value().where, InsertWhere::kInto);
  auto reparsed = parse_update(op.value().to_string());
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_EQ(reparsed.value().to_string(), op.value().to_string());
}

TEST(UpdateParseTest, InsertBeforeAfter) {
  auto before = parse_update(
      "insert before /products/product[id='14'] ::= <product/>");
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value().where, InsertWhere::kBefore);
  auto after = parse_update(
      "insert after /products/product[id='4'] ::= <product/>");
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value().where, InsertWhere::kAfter);
}

TEST(UpdateParseTest, RemoveRenameChangeTranspose) {
  EXPECT_TRUE(parse_update("remove /products/product[id='4']").is_ok());
  EXPECT_TRUE(
      parse_update("rename /products/product ::= item").is_ok());
  EXPECT_TRUE(
      parse_update("change /products/product/price ::= 9.99").is_ok());
  EXPECT_TRUE(parse_update(
                  "transpose /products/product[id='4'] ::= /products")
                  .is_ok());
}

TEST(UpdateParseTest, Errors) {
  EXPECT_FALSE(parse_update("explode /products").is_ok());
  EXPECT_FALSE(parse_update("insert /products ::= <x/>").is_ok());
  EXPECT_FALSE(parse_update("insert into /products <x/>").is_ok());  // no ::=
  EXPECT_FALSE(parse_update("remove").is_ok());
  EXPECT_FALSE(parse_update("rename /a/@id ::= b").is_ok());  // attr target
  EXPECT_FALSE(parse_update("insert into /a ::= ").is_ok());  // empty content
}

// --- insert ----------------------------------------------------------------------

TEST(ApplyTest, InsertInto) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_insert("/products",
                        "<product><id>13</id><description>Mouse</description>"
                        "<price>10.30</price></product>");
  ASSERT_TRUE(op.is_ok());
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().affected, 1u);
  EXPECT_EQ(count("/products/product", *doc), 3u);
  EXPECT_EQ(count("/products/product[id='13']", *doc), 1u);
  // Inserted as last child.
  EXPECT_EQ(doc->root()->child(2)->first_child_named("id")->text(), "13");
}

TEST(ApplyTest, InsertBeforeAndAfterPositions) {
  auto doc = store_sample();
  UndoLog undo;
  auto before =
      make_insert("/products/product[id='4']", "<marker-b/>",
                  InsertWhere::kBefore);
  ASSERT_TRUE(before.is_ok());
  ASSERT_TRUE(apply(before.value(), *doc, undo).is_ok());
  auto after = make_insert("/products/product[id='4']", "<marker-a/>",
                           InsertWhere::kAfter);
  ASSERT_TRUE(after.is_ok());
  ASSERT_TRUE(apply(after.value(), *doc, undo).is_ok());

  ASSERT_EQ(doc->root()->child_count(), 4u);
  EXPECT_EQ(doc->root()->child(0)->name(), "marker-b");
  EXPECT_EQ(doc->root()->child(1)->name(), "product");
  EXPECT_EQ(doc->root()->child(2)->name(), "marker-a");
}

TEST(ApplyTest, InsertIntoMultipleTargets) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_insert("/products/product", "<tag/>");
  ASSERT_TRUE(op.is_ok());
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().affected, 2u);
  EXPECT_EQ(count("/products/product/tag", *doc), 2u);
}

TEST(ApplyTest, InsertZeroTargetsIsNoop) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_insert("/products/nothing", "<x/>");
  ASSERT_TRUE(op.is_ok());
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().affected, 0u);
  EXPECT_TRUE(undo.empty());
}

TEST(ApplyTest, InsertBesideRootFails) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_insert("/products", "<x/>", InsertWhere::kAfter);
  ASSERT_TRUE(op.is_ok());
  EXPECT_FALSE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_TRUE(undo.empty());
}

TEST(ApplyTest, InsertMalformedContentFails) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_insert("/products", "<broken");
  ASSERT_TRUE(op.is_ok());
  const std::string before = xml::serialize(*doc);
  EXPECT_FALSE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_EQ(xml::serialize(*doc), before);  // untouched
}

// --- remove -----------------------------------------------------------------------

TEST(ApplyTest, RemoveSingle) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_remove("/products/product[id='4']");
  ASSERT_TRUE(op.is_ok());
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().affected, 1u);
  EXPECT_EQ(count("/products/product", *doc), 1u);
  EXPECT_EQ(count("/products/product[id='4']", *doc), 0u);
}

TEST(ApplyTest, RemoveAllTargets) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_remove("/products/product");
  ASSERT_TRUE(op.is_ok());
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().affected, 2u);
  EXPECT_EQ(doc->root()->child_count(), 0u);
}

TEST(ApplyTest, RemoveRootFails) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_remove("/products");
  ASSERT_TRUE(op.is_ok());
  EXPECT_FALSE(apply(op.value(), *doc, undo).is_ok());
}

// --- rename / change -----------------------------------------------------------------

TEST(ApplyTest, RenameChangesLabel) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_rename("/products/product[id='14']", "discontinued");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_EQ(count("/products/discontinued", *doc), 1u);
  EXPECT_EQ(count("/products/product", *doc), 1u);
}

TEST(ApplyTest, ChangeReplacesLeafText) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_change("/products/product[id='4']/price", "99.90");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_EQ(count("/products/product[price='99.90']", *doc), 1u);
  EXPECT_EQ(count("/products/product[price='120.00']", *doc), 0u);
}

TEST(ApplyTest, ChangeOnElementWithoutText) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_change("/products/product[id='4']", "flat");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(apply(op.value(), *doc, undo).is_ok());
  auto path = xpath::parse("/products/product[id='4']");
  ASSERT_TRUE(path.is_ok());
  auto nodes = xpath::evaluate(path.value(), *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->text(), "flat");
  // Element children survive a text change.
  EXPECT_NE(nodes[0]->first_child_named("description"), nullptr);
}

// --- transpose ------------------------------------------------------------------------

TEST(ApplyTest, TransposeMovesSubtree) {
  auto result = xml::parse(
      "<a><src><x><deep/></x></src><dst/></a>", "t");
  ASSERT_TRUE(result.is_ok());
  auto doc = std::move(result).value();
  UndoLog undo;
  auto op = make_transpose("/a/src/x", "/a/dst");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_EQ(count("/a/src/x", *doc), 0u);
  EXPECT_EQ(count("/a/dst/x/deep", *doc), 1u);
}

TEST(ApplyTest, TransposeIntoOwnSubtreeFails) {
  auto result = xml::parse("<a><x><inner/></x></a>", "t");
  ASSERT_TRUE(result.is_ok());
  auto doc = std::move(result).value();
  UndoLog undo;
  auto op = make_transpose("/a/x", "/a/x/inner");
  ASSERT_TRUE(op.is_ok());
  EXPECT_FALSE(apply(op.value(), *doc, undo).is_ok());
}

TEST(ApplyTest, TransposeAmbiguousDestinationFails) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_transpose("/products/product[id='4']/price",
                           "/products/product");
  ASSERT_TRUE(op.is_ok());
  EXPECT_FALSE(apply(op.value(), *doc, undo).is_ok());
}

// --- undo ---------------------------------------------------------------------------------

class UndoRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(UndoRoundTrip, UndoRestoresOriginalDocument) {
  auto doc = store_sample();
  const std::string before = xml::serialize(*doc);
  UndoLog undo;
  auto op = parse_update(GetParam());
  ASSERT_TRUE(op.is_ok()) << op.status().to_string();
  auto result = apply(op.value(), *doc, undo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_GT(result.value().affected, 0u);
  EXPECT_NE(xml::serialize(*doc), before);  // something changed
  undo.undo_all(*doc);
  EXPECT_EQ(xml::serialize(*doc), before);  // perfectly restored
}

INSTANTIATE_TEST_SUITE_P(
    AllOperations, UndoRoundTrip,
    ::testing::Values(
        "insert into /products ::= <product><id>13</id></product>",
        "insert before /products/product[id='4'] ::= <new/>",
        "insert after /products/product[id='14'] ::= <new/>",
        "insert into /products/product ::= <tag/>",
        "remove /products/product[id='4']",
        "remove /products/product",
        "remove /products/product/price",
        "rename /products/product[id='14'] ::= discontinued",
        "rename /products/product ::= item",
        "change /products/product[id='4']/price ::= 0.01",
        "change /products/product/price ::= 1.00",
        "transpose /products/product[id='4']/price ::= /products"));

TEST(UndoLogTest, CheckpointPartialUndo) {
  auto doc = store_sample();
  UndoLog undo;
  auto first = make_insert("/products", "<a/>");
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(apply(first.value(), *doc, undo).is_ok());
  const std::string after_first = xml::serialize(*doc);
  const std::size_t token = undo.checkpoint();

  auto second = make_insert("/products", "<b/>");
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(apply(second.value(), *doc, undo).is_ok());
  EXPECT_NE(xml::serialize(*doc), after_first);

  undo.undo_to(token, *doc);
  EXPECT_EQ(xml::serialize(*doc), after_first);  // only second undone
}

TEST(UndoLogTest, CommitDropsEntriesAndFreesSubtrees) {
  auto doc = store_sample();
  UndoLog undo;
  auto op = make_remove("/products/product[id='4']");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(apply(op.value(), *doc, undo).is_ok());
  EXPECT_FALSE(undo.empty());
  undo.commit();
  EXPECT_TRUE(undo.empty());
  // Removed subtree stays removed.
  EXPECT_EQ(count("/products/product", *doc), 1u);
}

TEST(UndoLogTest, InterleavedOperationsUndoInReverse) {
  auto doc = store_sample();
  const std::string before = xml::serialize(*doc);
  UndoLog undo;
  for (const char* text :
       {"insert into /products ::= <product><id>99</id><price>1</price></product>",
        "change /products/product[id='99']/price ::= 2",
        "rename /products/product[id='99'] ::= special",
        "remove /products/product[id='4']",
        "insert before /products/special ::= <divider/>"}) {
    auto op = parse_update(text);
    ASSERT_TRUE(op.is_ok()) << text;
    auto result = apply(op.value(), *doc, undo);
    ASSERT_TRUE(result.is_ok()) << text << ": " << result.status().to_string();
  }
  undo.undo_all(*doc);
  EXPECT_EQ(xml::serialize(*doc), before);
}

// --- randomized: whatever the updates did to the pool ---------------------------

/// Positional path of an element: "/*" for the root, then "/*[k]" per level
/// (k counts element siblings, as '*' does).
std::string path_to(const xml::Node& node) {
  std::vector<std::size_t> positions;
  for (const xml::Node* n = &node; n->parent() != nullptr; n = n->parent()) {
    std::size_t position = 1;
    for (const xml::Node* sibling : n->parent()->children()) {
      if (sibling == n) break;
      if (sibling->is_element()) ++position;
    }
    positions.push_back(position);
  }
  std::string path = "/*";
  for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
    path += "/*[" + std::to_string(*it) + "]";
  }
  return path;
}

/// The tree agrees with its own serialize -> parse copy, and every node in
/// it resolves through Document::find.
void expect_consistent(const Document& doc, const std::string& when) {
  auto copy = xml::parse(xml::serialize(doc), "copy");
  ASSERT_TRUE(copy.is_ok()) << when;
  EXPECT_TRUE(doc.deep_equal(*copy.value())) << when;
  std::size_t visited = 0;
  doc.root()->visit([&](const xml::Node& node) {
    ++visited;
    EXPECT_EQ(doc.find(node.id()), &node) << when;
    return true;
  });
  EXPECT_EQ(visited, doc.node_count()) << when;
}

TEST(UndoLogTest, RandomUpdatesKeepTreeAndIdIndexConsistent) {
  workload::XmarkOptions options;
  options.target_bytes = 20'000;
  options.seed = 5;
  auto parsed = xml::parse(
      xml::serialize(*workload::generate_xmark(options).document), "d");
  ASSERT_TRUE(parsed.is_ok());
  std::unique_ptr<Document> doc = std::move(parsed).value();
  util::Rng rng(21);
  for (int round = 0; round < 6; ++round) {
    const std::string before = xml::serialize(*doc);
    std::vector<xml::NodeId> ids_before;
    doc->root()->visit([&](const xml::Node& node) {
      ids_before.push_back(node.id());
      return true;
    });
    UndoLog undo;
    for (int step = 0; step < 40; ++step) {
      std::vector<const xml::Node*> elements;
      doc->root()->visit([&](const xml::Node& node) {
        if (node.is_element()) elements.push_back(&node);
        return true;
      });
      const xml::Node* target = elements[rng.next_index(elements.size())];
      const bool root = target->parent() == nullptr;
      std::string text;
      switch (rng.next_below(5)) {
        case 0: {
          const std::string tag = rng.next_word(1, 6);
          text = "insert into " + path_to(*target) + " ::= <" + tag +
                 " k=\"" + rng.next_word(1, 4) + "\"><name>" +
                 rng.next_word(1, 8) + "</name></" + tag + ">";
          break;
        }
        case 1:
          if (root) continue;
          text = "remove " + path_to(*target);
          break;
        case 2:
          if (root) continue;
          text = "rename " + path_to(*target) + " ::= " + rng.next_word(1, 6);
          break;
        case 3:
          text = "change " + path_to(*target) + " ::= " + rng.next_word(1, 8);
          break;
        default: {
          const xml::Node* destination =
              elements[rng.next_index(elements.size())];
          if (root || target->contains(*destination)) continue;
          text = "transpose " + path_to(*target) + " ::= " +
                 path_to(*destination);
          break;
        }
      }
      auto op = parse_update(text);
      ASSERT_TRUE(op.is_ok()) << text;
      auto applied = apply(op.value(), *doc, undo);
      ASSERT_TRUE(applied.is_ok()) << text << ": "
                                   << applied.status().to_string();
      EXPECT_EQ(applied.value().affected, 1u) << text;
      expect_consistent(*doc, text);
    }
    if (round % 2 == 0) {
      undo.undo_all(*doc);
      EXPECT_EQ(xml::serialize(*doc), before) << "round " << round;
      std::vector<xml::NodeId> ids_after;
      doc->root()->visit([&](const xml::Node& node) {
        ids_after.push_back(node.id());
        return true;
      });
      EXPECT_EQ(ids_after, ids_before) << "round " << round;
      expect_consistent(*doc, "after undo_all");
    } else {
      undo.commit();
      expect_consistent(*doc, "after commit");
    }
  }
}

}  // namespace
}  // namespace dtx::xupdate
