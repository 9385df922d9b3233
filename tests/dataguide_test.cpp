#include <gtest/gtest.h>

#include "dataguide/dataguide.hpp"
#include "dataguide/guide_match.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"

namespace dtx::dataguide {
namespace {

using xml::Document;

std::unique_ptr<Document> auction_sample() {
  auto result = xml::parse(R"(
    <site>
      <people>
        <person id="p1"><name>Ana</name></person>
        <person id="p2"><name>Bruno</name><age>41</age></person>
      </people>
      <regions>
        <europe><item id="i1"><name>Clock</name></item></europe>
        <asia><item id="i2"><name>Vase</name></item></asia>
      </regions>
    </site>)",
                           "auction");
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

// --- construction -------------------------------------------------------------

TEST(DataGuideTest, OneNodePerDistinctLabelPath) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  // /site /site/people /site/people/person /@id /name /#text /age /#text
  // /site/regions /europe /item /@id /name /#text /asia /item /@id /name /#text
  EXPECT_EQ(guide->find_path("/site")->extent(), 1u);
  EXPECT_EQ(guide->find_path("/site/people/person")->extent(), 2u);
  EXPECT_EQ(guide->find_path("/site/people/person/name")->extent(), 2u);
  EXPECT_EQ(guide->find_path("/site/people/person/@id")->extent(), 2u);
  EXPECT_EQ(guide->find_path("/site/people/person/age")->extent(), 1u);
  EXPECT_EQ(guide->find_path("/site/regions/europe/item")->extent(), 1u);
  // Distinct parent paths yield distinct guide nodes even for equal labels.
  EXPECT_NE(guide->find_path("/site/regions/europe/item"),
            guide->find_path("/site/regions/asia/item"));
  EXPECT_EQ(guide->find_path("/site/wrong"), nullptr);
}

TEST(DataGuideTest, GuideIsMuchSmallerThanDocument) {
  // 50 identical persons collapse to one guide path.
  std::string xml = "<people>";
  for (int i = 0; i < 50; ++i) {
    xml += "<person><name>n</name><age>1</age></person>";
  }
  xml += "</people>";
  auto result = xml::parse(xml, "d");
  ASSERT_TRUE(result.is_ok());
  auto guide = DataGuide::build(*result.value());
  // people, person, name, #text, age, #text.
  EXPECT_EQ(guide->node_count(), 6u);
  EXPECT_EQ(guide->find_path("/people/person")->extent(), 50u);
}

TEST(DataGuideTest, FindByIdMatchesFindByPath) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  GuideNode* person = guide->find_path("/site/people/person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(guide->find(person->id()), person);
  EXPECT_EQ(person->label_path(), "/site/people/person");
}

TEST(DataGuideTest, EmptyDocument) {
  Document doc("empty");
  auto guide = DataGuide::build(doc);
  EXPECT_TRUE(guide->empty());
  EXPECT_EQ(guide->node_count(), 0u);
}

// --- incremental maintenance ------------------------------------------------------

TEST(DataGuideMaintenanceTest, InsertNewPathExtendsGuide) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  EXPECT_EQ(guide->find_path("/site/people/person/phone"), nullptr);

  xupdate::UndoLog undo;
  auto op = xupdate::make_insert("/site/people/person[@id='p1']",
                                 "<phone>555</phone>");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(xupdate::apply(op.value(), *doc, undo).is_ok());
  // The data manager would call on_subtree_added; emulate it here.
  auto path = xpath::parse("/site/people/person[@id='p1']/phone");
  ASSERT_TRUE(path.is_ok());
  // Rebuild equivalence is the ground truth.
  auto rebuilt = DataGuide::build(*doc);
  EXPECT_EQ(rebuilt->find_path("/site/people/person/phone")->extent(), 1u);
}

TEST(DataGuideMaintenanceTest, AddRemoveRoundTripKeepsEquivalence) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);

  // Apply insert + maintenance.
  xupdate::UndoLog undo;
  auto op = xupdate::make_insert("/site/people",
                                 "<person id=\"p9\"><name>Zoe</name></person>");
  ASSERT_TRUE(op.is_ok());
  ASSERT_TRUE(xupdate::apply(op.value(), *doc, undo).is_ok());
  const xml::Node* added = doc->root()
                               ->first_child_named("people")
                               ->children_named("person")
                               .back();
  guide->on_subtree_added(*added, "/site/people");
  EXPECT_EQ(guide->find_path("/site/people/person")->extent(), 3u);
  EXPECT_TRUE(guide->equivalent(*DataGuide::build(*doc)));

  // Undo (remove) + maintenance.
  guide->on_subtree_removed(*added, "/site/people");
  undo.undo_all(*doc);
  EXPECT_EQ(guide->find_path("/site/people/person")->extent(), 2u);
  EXPECT_TRUE(guide->equivalent(*DataGuide::build(*doc)));
}

TEST(DataGuideMaintenanceTest, RenameMovesExtents) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  xml::Node* person = doc->root()
                          ->first_child_named("people")
                          ->children_named("person")
                          .front();
  person->set_name("vip");
  guide->on_subtree_renamed(*person, "/site/people", "person");
  EXPECT_EQ(guide->find_path("/site/people/person")->extent(), 1u);
  EXPECT_EQ(guide->find_path("/site/people/vip")->extent(), 1u);
  EXPECT_EQ(guide->find_path("/site/people/vip/name")->extent(), 1u);
  EXPECT_TRUE(guide->equivalent(*DataGuide::build(*doc)));
}

TEST(DataGuideMaintenanceTest, EnsurePathCreatesChain) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  GuideNode* node =
      guide->ensure_path({"site", "catalog", "entry", "@sku"});
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->label_path(), "/site/catalog/entry/@sku");
  EXPECT_EQ(node->extent(), 0u);  // structural only until data arrives
  // Idempotent.
  EXPECT_EQ(guide->ensure_path({"site", "catalog", "entry", "@sku"}), node);
}

// Property-style: random update sequences keep the incrementally-maintained
// guide equivalent to a rebuild. (The DTX DataManager performs exactly this
// maintenance; here the property is checked in isolation.)
class GuideMaintenanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(GuideMaintenanceProperty, IncrementalMatchesRebuildUnderInsertRemove) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);

  for (int step = 0; step < 40; ++step) {
    xml::Node* people = doc->root()->first_child_named("people");
    const auto persons = people->children_named("person");
    if (rng.next_bool(0.6) || persons.empty()) {
      // Insert a person (sometimes with a nested extra element).
      const std::string id = "r" + std::to_string(step);
      std::string fragment = "<person id=\"" + id + "\"><name>x</name>";
      if (rng.next_bool(0.4)) fragment += "<profile><age>9</age></profile>";
      fragment += "</person>";
      xupdate::UndoLog undo;
      auto op = xupdate::make_insert("/site/people", fragment);
      ASSERT_TRUE(op.is_ok());
      ASSERT_TRUE(xupdate::apply(op.value(), *doc, undo).is_ok());
      guide->on_subtree_added(*people->children_named("person").back(),
                              "/site/people");
      undo.commit();
    } else {
      const std::size_t victim = rng.next_index(persons.size());
      guide->on_subtree_removed(*persons[victim], "/site/people");
      people->remove_child(persons[victim]->index_in_parent());
    }
    ASSERT_TRUE(guide->equivalent(*DataGuide::build(*doc)))
        << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuideMaintenanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- path matching ------------------------------------------------------------------

MatchResult match_expr(const std::string& expr, const DataGuide& guide) {
  auto path = xpath::parse(expr);
  EXPECT_TRUE(path.is_ok()) << path.status().to_string();
  return match(path.value(), guide);
}

TEST(GuideMatchTest, ExactChildPath) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  auto result = match_expr("/site/people/person", *guide);
  ASSERT_EQ(result.targets.size(), 1u);
  EXPECT_EQ(result.targets[0].node->label_path(), "/site/people/person");
  EXPECT_TRUE(result.predicate_targets.empty());
}

TEST(GuideMatchTest, DescendantMatchesAllBranches) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  auto result = match_expr("//item", *guide);
  EXPECT_EQ(result.targets.size(), 2u);  // europe/item and asia/item
  auto names = match_expr("//name", *guide);
  EXPECT_EQ(names.targets.size(), 3u);  // person/name + 2 * item/name
}

TEST(GuideMatchTest, WildcardStep) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  auto result = match_expr("/site/regions/*/item", *guide);
  EXPECT_EQ(result.targets.size(), 2u);
  // Wildcard must not descend into attribute pseudo-children.
  auto top = match_expr("/site/*", *guide);
  EXPECT_EQ(top.targets.size(), 2u);  // people, regions
}

TEST(GuideMatchTest, ValuePredicatesAreConservative) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  // The guide cannot evaluate '@id=p1' — both persons' guide node matches,
  // and the predicate contributes the @id guide node as a lock target.
  auto result = match_expr("/site/people/person[@id='p1']", *guide);
  ASSERT_EQ(result.targets.size(), 1u);
  ASSERT_EQ(result.predicate_targets.size(), 1u);
  EXPECT_EQ(result.predicate_targets[0].node->label_path(),
            "/site/people/person/@id");
}

TEST(GuideMatchTest, ChildValuePredicateTargets) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  auto result = match_expr("//item[name='Clock']", *guide);
  EXPECT_EQ(result.targets.size(), 2u);
  // Both branches' name nodes become predicate lock targets.
  EXPECT_EQ(result.predicate_targets.size(), 2u);
}

TEST(GuideMatchTest, AttributeFinalStep) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  auto result = match_expr("/site/people/person/@id", *guide);
  ASSERT_EQ(result.targets.size(), 1u);
  EXPECT_EQ(result.targets[0].node->label_path(), "/site/people/person/@id");
}

TEST(GuideMatchTest, NonexistentPathMatchesNothing) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  EXPECT_TRUE(match_expr("/site/nothing/here", *guide).targets.empty());
}

TEST(GuideMatchTest, ZeroExtentNodesSkipped) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  // Remove both persons -> person guide node has extent 0.
  xml::Node* people = doc->root()->first_child_named("people");
  while (people->child_count() > 0) {
    auto persons = people->children_named("person");
    guide->on_subtree_removed(*persons[0], "/site/people");
    people->remove_child(persons[0]->index_in_parent());
  }
  EXPECT_TRUE(match_expr("/site/people/person", *guide).targets.empty());
  EXPECT_TRUE(match_expr("//person", *guide).targets.empty());
}

TEST(GuideMatchTest, RelativeMatch) {
  auto doc = auction_sample();
  auto guide = DataGuide::build(*doc);
  GuideNode* person = guide->find_path("/site/people/person");
  ASSERT_NE(person, nullptr);
  auto rel = xpath::parse_relative("name");
  ASSERT_TRUE(rel.is_ok());
  auto matched = match_relative(rel.value(), *person);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0]->label_path(), "/site/people/person/name");
}

}  // namespace
}  // namespace dtx::dataguide
