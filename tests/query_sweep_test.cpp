// Table-driven XPath sweep over a generated XMark base: every expression
// the workload generator can emit (and several it cannot) evaluated against
// ground truth computed structurally, plus the value-condition extraction
// of guide matching that feeds XDGL's logical locks.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "dataguide/guide_match.hpp"
#include "dtx/wal.hpp"
#include "txn/operation.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/fragmentation.hpp"
#include "workload/workload_gen.hpp"
#include "workload/xmark.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"
#include "xupdate/undo_log.hpp"
#include "xupdate/update_op.hpp"

namespace dtx {
namespace {

const workload::XmarkData& xmark() {
  static workload::XmarkData data = [] {
    workload::XmarkOptions options;
    options.target_bytes = 50'000;
    options.seed = 99;
    return workload::generate_xmark(options);
  }();
  return data;
}

std::size_t total_items() {
  std::size_t total = 0;
  for (const auto& [continent, ids] : xmark().items_by_continent) {
    (void)continent;
    total += ids.size();
  }
  return total;
}

struct SweepCase {
  const char* expression;
  std::size_t expected;  // SIZE_MAX = computed below
};

class XmarkQuerySweep : public ::testing::TestWithParam<int> {};

TEST_P(XmarkQuerySweep, CountsMatchInventory) {
  const workload::XmarkData& data = xmark();
  const std::size_t persons = data.person_ids.size();
  const std::size_t opens = data.open_auction_ids.size();
  const std::size_t closeds = data.closed_auction_ids.size();
  const std::size_t categories = data.category_ids.size();
  const std::size_t items = total_items();
  const std::size_t europe_items = data.items_by_continent.at("europe").size();

  const SweepCase cases[] = {
      {"/site", 1},
      {"/site/people/person", persons},
      {"/site/people/person/name", persons},
      {"/site/people/person/@id", persons},
      {"/site/people/person/address/city", persons},
      {"/site/people/person/profile/age", persons},
      {"//person", persons},
      {"//person/creditcard", persons},
      {"/site/open_auctions/open_auction", opens},
      {"/site/open_auctions/open_auction/current", opens},
      {"/site/closed_auctions/closed_auction/price", closeds},
      {"/site/categories/category", categories},
      {"//item", items},
      {"//item/price", items},
      {"/site/regions/europe/item", europe_items},
      {"/site/regions/*/item", items},
      {"/site/regions/*/item/name", items},
      {"//item[quantity]", items},           // every item has a quantity
      {"/site/people/person[name]", persons},
      {"/site/nothing", 0},
      {"//nonexistent", 0},
      {"/wrong-root/people", 0},
  };
  const SweepCase& test_case =
      cases[static_cast<std::size_t>(GetParam()) % std::size(cases)];
  auto path = xpath::parse(test_case.expression);
  ASSERT_TRUE(path.is_ok()) << test_case.expression;
  EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(),
            test_case.expected)
      << test_case.expression;
}

INSTANTIATE_TEST_SUITE_P(Expressions, XmarkQuerySweep,
                         ::testing::Range(0, 22));

TEST(XmarkQueryTest, EveryPersonReachableByIdPredicate) {
  const workload::XmarkData& data = xmark();
  for (const std::string& id : data.person_ids) {
    auto path =
        xpath::parse("/site/people/person[@id='" + id + "']/name");
    ASSERT_TRUE(path.is_ok());
    EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(), 1u)
        << id;
  }
}

TEST(XmarkQueryTest, EveryOpenAuctionReachable) {
  const workload::XmarkData& data = xmark();
  for (const std::string& id : data.open_auction_ids) {
    auto path = xpath::parse(
        "/site/open_auctions/open_auction[@id='" + id + "']/current");
    ASSERT_TRUE(path.is_ok());
    EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(), 1u)
        << id;
  }
}

// --- guide condition extraction ------------------------------------------------

TEST(GuideConditionTest, PointPredicateConditionsTargetAndDescendants) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path =
      xpath::parse("/site/people/person[@id='person1']/profile/age");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  EXPECT_EQ(match.targets[0].node->label_path(),
            "/site/people/person/profile/age");
  // The equality predicate's condition rides down to the final target.
  EXPECT_EQ(match.targets[0].condition, "@id=person1");
  // The predicate's own lock target (the @id guide node) carries it too.
  ASSERT_EQ(match.predicate_targets.size(), 1u);
  EXPECT_EQ(match.predicate_targets[0].node->label_path(),
            "/site/people/person/@id");
}

TEST(GuideConditionTest, ScansAreUnconditioned) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("/site/people/person/name");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  EXPECT_TRUE(match.targets[0].condition.empty());
}

TEST(GuideConditionTest, NestedPredicatesConcatenate) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse(
      "/site/people/person[@id='person2'][name='x']/phone");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  // Both equality predicates restrict the instance set; the combined key
  // keeps them in lexical order.
  EXPECT_EQ(match.targets[0].condition, "@id=person2&name=x");
}

TEST(GuideConditionTest, ChildValuePredicateConditions) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("//item[name='Clock']/price");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  EXPECT_FALSE(match.targets.empty());
  for (const auto& target : match.targets) {
    EXPECT_EQ(target.condition, "name=Clock");
  }
  // Predicate targets: the name guide nodes under each continent's item.
  EXPECT_FALSE(match.predicate_targets.empty());
}

// --- evaluator parity ----------------------------------------------------------
//
// Every row (and every selected node id) that a fixed set of expressions
// produces over a fixed 1 MB base, folded into one FNV-1a hash and compared
// with a constant recorded from the evaluator before its allocation-free
// rewrite. dtxbench checks read-snapshot rows by replaying them through the
// same evaluator, so it cannot see a semantic drift; these constants can.
// If a deliberate semantic change moves them, re-record both and say why.

const workload::XmarkData& xmark_1mb() {
  static workload::XmarkData data = [] {
    workload::XmarkOptions options;
    options.target_bytes = 1'000'000;
    options.seed = 7;
    return workload::generate_xmark(options);
  }();
  return data;
}

/// Appends what `path` selects in `doc` to `transcript`: the node ids from
/// evaluate, then the rows from evaluate_strings, with separators so that a
/// moved boundary changes the hash.
void transcribe(const xpath::Path& path, const xml::Document& doc,
                std::string& transcript) {
  for (const xml::Node* node : xpath::evaluate(path, doc)) {
    transcript += std::to_string(node->id());
    transcript += ',';
  }
  transcript += '\x1e';
  for (const std::string& row : xpath::evaluate_strings(path, doc)) {
    transcript += row;
    transcript += '\x1f';
  }
  transcript += '\x1d';
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// How a tree under test was built. Every way past parsing ends with the
/// content of the parsed tree and the same id on every one of its nodes,
/// so the recorded hashes hold for each.
enum class Build {
  kParsed,    ///< parsed or generated: the recorded trees
  kCloned,    ///< Document::clone
  kAdvanced,  ///< advanced in place by wal::apply_records
  kUndone,    ///< updated through the applier, then rolled back
};

/// Takes `doc` through `build` (the document is replaced for kCloned).
void rebuild(std::unique_ptr<xml::Document>& doc, Build build) {
  const std::string name = doc->name();
  switch (build) {
    case Build::kParsed:
      return;
    case Build::kCloned:
      doc = doc->clone(name);
      return;
    case Build::kAdvanced: {
      // A committed record whose operations cancel out: nodes come and go,
      // names change and change back.
      const std::string section = doc->root()->child(0)->name();
      core::wal::LogEntry record;
      record.version = 1;
      for (const std::string& op : std::vector<std::string>{
               "insert into /site ::= <scratch id=\"s1\"><name>n</name></scratch>",
               "rename /site/" + section + " ::= moved",
               "rename /site/scratch ::= scratch2",
               "rename /site/moved ::= " + section,
               "remove /site/scratch2",
           }) {
        record.ops.push_back("update " + name + " " + op);
      }
      ASSERT_TRUE(core::wal::apply_records({record}, *doc, nullptr, name).is_ok());
      return;
    }
    case Build::kUndone: {
      xupdate::UndoLog undo;
      for (const char* text : {
               "remove /site/*/*[1]",
               "insert into /site ::= <scratch><name>n</name></scratch>",
               "change /site/*/*[2]/name ::= changed",
               "transpose /site/*/*[3] ::= /site",
               "rename /site/*[1] ::= renamed",
           }) {
        auto op = xupdate::parse_update(text);
        ASSERT_TRUE(op.is_ok()) << text;
        ASSERT_TRUE(xupdate::apply(op.value(), *doc, undo).is_ok()) << text;
      }
      undo.undo_all(*doc);
      return;
    }
  }
}

class EvaluatorParityTest : public ::testing::TestWithParam<Build> {};

TEST_P(EvaluatorParityTest, GeneratorOperationsMatchRecordedRows) {
  const workload::XmarkData& data = xmark_1mb();
  const std::vector<workload::Fragment> fragments =
      workload::fragment_xmark(data, 8);
  std::map<std::string, std::unique_ptr<xml::Document>> docs;
  for (const workload::Fragment& fragment : fragments) {
    auto parsed = xml::parse(fragment.xml, fragment.doc_name);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    std::unique_ptr<xml::Document> doc = std::move(parsed).value();
    rebuild(doc, GetParam());
    docs.emplace(fragment.doc_name, std::move(doc));
  }

  // Half update transactions: their target paths select through the same
  // evaluator (XUpdate target selection, Node2PL lock sets). Nothing is
  // applied, so every operation sees the same base.
  workload::WorkloadOptions options;
  options.update_txn_fraction = 0.5;
  workload::WorkloadGenerator generator(fragments, options);
  util::Rng rng(2024);
  std::string transcript;
  std::size_t operations = 0;
  for (int txn = 0; txn < 400; ++txn) {
    for (const std::string& text : generator.make_transaction(rng)) {
      auto op = txn::parse_operation(text);
      ASSERT_TRUE(op.is_ok()) << text;
      const xml::Document& doc = *docs.at(op.value().doc);
      transcribe(op.value().is_update() ? op.value().update.target
                                        : op.value().query,
                 doc, transcript);
      ++operations;
    }
  }
  EXPECT_EQ(operations, 2000u);
  EXPECT_EQ(hex(util::fnv1a64(transcript)), "0xd06c667e0936878a");
}

TEST_P(EvaluatorParityTest, GrammarSweepMatchesRecordedRows) {
  // The generated document as recorded; other builds start from its clone,
  // since other tests share it.
  const xml::Document* doc = xmark_1mb().document.get();
  std::unique_ptr<xml::Document> owned;
  if (GetParam() != Build::kParsed) {
    owned = doc->clone(doc->name());
    rebuild(owned, GetParam());
    doc = owned.get();
  }
  const char* const expressions[] = {
      "/site",
      "//person//name",
      "//name/text()",
      "//text()",
      "//*",
      "//*[@id]",
      "//*[@person]/@person",
      "/site/*/*[3]",
      "/site//*[2]",
      "//*/*[1]",
      "/site/regions/*/item[2]/name",
      "/site/regions/*/item[@id][1]/@id",
      "//open_auction[bidder][2]/current",
      "//open_auction/bidder[1]/increase",
      "//open_auction/bidder[personref][2]/date",
      "//open_auction/bidder[2][personref]/date",
      "//person[profile/age='30']/name",
      "//person/profile[age=30]/interest",
      "//person[address]/@id",
      "//item[quantity=1]/@id",
      "//item[quantity='01']/name",
      "//item[payment]/payment/text()",
      "/site/catgraph/edge[@from='category1']/@to",
      "//edge[@to][@from='category2']",
      "//closed_auction/annotation/description",
      "//category[name]/description/text/text()",
      "//category",
      "/site/people/person[@id='person3']//text()",
      "/site/people/person[@id='person3']/*",
      "/site/open_auctions/open_auction[@id='open_auction5'][initial]/reserve",
      "//seller/@person",
      "//item//text()",
      "/site/regions//item[location][3]/name",
      "//person[watches]",
      "//nothing[@id]",
      "/site/people/person[@nothing]",
      "/site/people/person[text()]",
      "/site/people/person/name[text()]",
  };
  std::string transcript;
  for (const char* expression : expressions) {
    auto path = xpath::parse(expression);
    ASSERT_TRUE(path.is_ok()) << expression;
    transcribe(path.value(), *doc, transcript);
  }
  EXPECT_EQ(hex(util::fnv1a64(transcript)), "0x56e187a2f782b0f0");
}

INSTANTIATE_TEST_SUITE_P(
    Builds, EvaluatorParityTest,
    ::testing::Values(Build::kParsed, Build::kCloned, Build::kAdvanced,
                      Build::kUndone),
    [](const ::testing::TestParamInfo<Build>& info) {
      switch (info.param) {
        case Build::kParsed: return "Parsed";
        case Build::kCloned: return "Cloned";
        case Build::kAdvanced: return "AdvancedInPlace";
        case Build::kUndone: return "Undone";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace dtx
