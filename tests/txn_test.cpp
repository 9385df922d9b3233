#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "txn/abort_reason.hpp"
#include "txn/operation.hpp"
#include "txn/transaction.hpp"
#include "util/rng.hpp"
#include "workload/workload_gen.hpp"

namespace dtx::txn {
namespace {

TEST(OperationTest, ParseQuery) {
  auto op = parse_operation("query d1 /site/people/person[@id='p1']/name");
  ASSERT_TRUE(op.is_ok()) << op.status().to_string();
  EXPECT_EQ(op.value().type, OpType::kQuery);
  EXPECT_EQ(op.value().doc, "d1");
  EXPECT_FALSE(op.value().is_update());
}

TEST(OperationTest, ParseUpdate) {
  auto op = parse_operation(
      "update d2 insert into /products ::= <product><id>13</id></product>");
  ASSERT_TRUE(op.is_ok()) << op.status().to_string();
  EXPECT_EQ(op.value().type, OpType::kUpdate);
  EXPECT_EQ(op.value().doc, "d2");
  EXPECT_TRUE(op.value().is_update());
  EXPECT_EQ(op.value().update.kind, xupdate::UpdateKind::kInsert);
}

TEST(OperationTest, RoundTrip) {
  for (const char* text :
       {"query d1 /site/people/person",
        "query f3 //person[@id='p7']/emailaddress",
        "update d2 remove /products/product[id='4']",
        "update d2 change /products/product[id='4']/price ::= 9.99",
        "update d1 insert after /a/b ::= <c/>"}) {
    auto op = parse_operation(text);
    ASSERT_TRUE(op.is_ok()) << text;
    auto reparsed = parse_operation(op.value().to_string());
    ASSERT_TRUE(reparsed.is_ok()) << op.value().to_string();
    EXPECT_EQ(reparsed.value().to_string(), op.value().to_string());
  }
}

TEST(OperationTest, ParseErrors) {
  EXPECT_FALSE(parse_operation("").is_ok());
  EXPECT_FALSE(parse_operation("query").is_ok());
  EXPECT_FALSE(parse_operation("query d1").is_ok());
  EXPECT_FALSE(parse_operation("scan d1 /a").is_ok());
  EXPECT_FALSE(parse_operation("query d1 not-absolute").is_ok());
  EXPECT_FALSE(parse_operation("update d1 explode /a ::= x").is_ok());
}

TEST(OperationTest, ParseErrorsCarryInvalidArgumentAndContext) {
  // Every malformed input fails with kInvalidArgument (never a crash or a
  // misleading code) and a message naming what was wrong.
  const struct {
    const char* text;
    const char* expect_fragment;
  } cases[] = {
      {"", "verb"},
      {"   ", "verb"},
      {"query", "verb"},                      // no doc, no body
      {"query d1", "body"},                   // no body
      {"update d1", "body"},                  // no update syntax
      {"scan d1 /a", "verb"},                 // unknown verb
      {"QUERY d1 /a", "verb"},                // verbs are case-sensitive
      {"update d1 explode /a ::= x", ""},     // unknown update kind
      {"update d1 insert sideways /a ::= <x/>", ""},  // bad insert position
  };
  for (const auto& c : cases) {
    auto op = parse_operation(c.text);
    ASSERT_FALSE(op.is_ok()) << "'" << c.text << "' parsed";
    EXPECT_EQ(op.status().code(), util::Code::kInvalidArgument)
        << "'" << c.text << "' -> " << op.status().to_string();
    if (c.expect_fragment[0] != '\0') {
      EXPECT_NE(op.status().message().find(c.expect_fragment),
                std::string::npos)
          << "'" << c.text << "' -> " << op.status().to_string();
    }
  }
  // Whitespace-tolerant inputs still parse.
  EXPECT_TRUE(parse_operation("  query d1 /a/b  ").is_ok());
}

// Property: parse -> to_string -> parse is the identity (on the canonical
// textual form) for every operation the workload generator can emit. This
// is what lets operations travel as text between sites and lets
// PreparedTxn::to_text round-trip workload files.
TEST(OperationTest, RoundTripPropertyOverGeneratedWorkload) {
  workload::Fragment people;
  people.doc_name = "f0";
  people.section = "people";
  people.ids = {"p1", "p2", "p3"};
  workload::Fragment regions;
  regions.doc_name = "f1";
  regions.section = "regions";
  regions.continent = "europe";
  regions.ids = {"i1", "i2"};
  workload::Fragment auctions;
  auctions.doc_name = "f2";
  auctions.section = "open_auctions";
  auctions.ids = {"a1", "a2"};
  workload::Fragment categories;
  categories.doc_name = "f3";
  categories.section = "categories";
  categories.ids = {"c1"};

  workload::WorkloadOptions options;
  options.ops_per_transaction = 5;
  options.update_txn_fraction = 0.5;
  workload::WorkloadGenerator generator(
      {people, regions, auctions, categories}, options);
  util::Rng rng(2026);

  std::size_t checked = 0;
  for (int t = 0; t < 200; ++t) {
    for (const std::string& text : generator.make_transaction(rng)) {
      auto op = parse_operation(text);
      ASSERT_TRUE(op.is_ok()) << text << " -> " << op.status().to_string();
      const std::string canonical = op.value().to_string();
      auto reparsed = parse_operation(canonical);
      ASSERT_TRUE(reparsed.is_ok())
          << text << " -> '" << canonical << "' failed to reparse";
      // Fixed point: the canonical form re-serializes to itself.
      EXPECT_EQ(reparsed.value().to_string(), canonical) << text;
      EXPECT_EQ(reparsed.value().doc, op.value().doc);
      EXPECT_EQ(reparsed.value().type, op.value().type);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 200u * 5u);
}

TEST(AbortReasonTest, NamesAndRetryability) {
  EXPECT_STREQ(abort_reason_name(AbortReason::kNone), "none");
  EXPECT_STREQ(abort_reason_name(AbortReason::kDeadlockVictim),
               "deadlock-victim");
  EXPECT_STREQ(abort_reason_name(AbortReason::kLockWaitExhausted),
               "lock-wait-exhausted");
  EXPECT_STREQ(abort_reason_name(AbortReason::kParseError), "parse-error");
  EXPECT_STREQ(abort_reason_name(AbortReason::kSiteFailure), "site-failure");
  EXPECT_STREQ(abort_reason_name(AbortReason::kUnprocessableUpdate),
               "unprocessable-update");

  EXPECT_TRUE(abort_reason_retryable(AbortReason::kDeadlockVictim));
  EXPECT_TRUE(abort_reason_retryable(AbortReason::kLockWaitExhausted));
  EXPECT_TRUE(abort_reason_retryable(AbortReason::kSiteFailure));
  EXPECT_FALSE(abort_reason_retryable(AbortReason::kNone));
  EXPECT_FALSE(abort_reason_retryable(AbortReason::kParseError));
  EXPECT_FALSE(abort_reason_retryable(AbortReason::kUnprocessableUpdate));
}

TEST(TxnIdTest, EncodingRoundTrips) {
  const TxnId id = make_txn_id(123456789, 42);
  EXPECT_EQ(txn_coordinator(id), 42u);
  EXPECT_EQ(txn_begin_micros(id), 123456789u);
}

TEST(TxnIdTest, NewerBeginsCompareGreater) {
  // The deadlock victim rule depends on id order == begin order.
  EXPECT_LT(make_txn_id(1000, 999), make_txn_id(1001, 0));
  EXPECT_LT(make_txn_id(1000, 0), make_txn_id(1000, 1));  // site tie-break
}

TEST(TxnStateTest, Names) {
  EXPECT_STREQ(txn_state_name(TxnState::kActive), "active");
  EXPECT_STREQ(txn_state_name(TxnState::kWaiting), "waiting");
  EXPECT_STREQ(txn_state_name(TxnState::kCommitted), "committed");
  EXPECT_STREQ(txn_state_name(TxnState::kAborted), "aborted");
  EXPECT_STREQ(txn_state_name(TxnState::kFailed), "failed");
}

std::vector<Operation> two_ops() {
  auto a = parse_operation("query d1 /site/people");
  auto b = parse_operation("query d1 /site/regions");
  return {a.value(), b.value()};
}

TEST(TransactionTest, NextOperationAdvancesWithExecution) {
  Transaction txn(make_txn_id(1, 0), two_ops());
  EXPECT_EQ(txn.next_operation(), 0u);
  txn.state_of(0).executed = true;
  EXPECT_EQ(txn.next_operation(), 1u);
  txn.state_of(1).executed = true;
  EXPECT_EQ(txn.next_operation(), 2u);  // == op_count -> commit point
}

TEST(TransactionTest, SitesAccumulate) {
  Transaction txn(make_txn_id(1, 0), two_ops());
  txn.add_sites({1, 2});
  txn.add_sites({2, 3});
  EXPECT_EQ(txn.sites(), (std::set<net::SiteId>{1, 2, 3}));
}

TEST(TransactionTest, CompletionLatchHandsResultToWaiter) {
  Transaction txn(make_txn_id(1, 0), two_ops());
  EXPECT_FALSE(txn.completed());
  std::thread completer([&] {
    TxnResult result;
    result.id = txn.id();
    result.state = TxnState::kCommitted;
    txn.complete(std::move(result));
  });
  const TxnResult result = txn.await();
  completer.join();
  EXPECT_EQ(result.state, TxnState::kCommitted);
  EXPECT_TRUE(txn.completed());
}

TEST(TransactionTest, FirstCompletionWins) {
  Transaction txn(make_txn_id(1, 0), two_ops());
  TxnResult aborted;
  aborted.state = TxnState::kAborted;
  txn.complete(std::move(aborted));
  TxnResult committed;
  committed.state = TxnState::kCommitted;
  txn.complete(std::move(committed));  // ignored
  EXPECT_EQ(txn.await().state, TxnState::kAborted);
}

TEST(TransactionTest, AwaitForSharesOnePublishedResult) {
  using namespace std::chrono_literals;
  Transaction txn(make_txn_id(1, 0), two_ops());
  EXPECT_EQ(txn.await_for(1ms), nullptr) << "not completed yet";
  TxnResult result;
  result.id = txn.id();
  result.state = TxnState::kCommitted;
  result.rows = {{"Ana", "Bruno"}, {}};
  txn.complete(std::move(result));

  const std::shared_ptr<const TxnResult> a = txn.await_for(1ms);
  const std::shared_ptr<const TxnResult> b = txn.await_for(1ms);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get()) << "both waiters share the published result";
  EXPECT_EQ(a->rows, (std::vector<std::vector<std::string>>{{"Ana", "Bruno"},
                                                            {}}));
  // await() still hands out a value of its own.
  const TxnResult copy = txn.await();
  EXPECT_EQ(copy.state, TxnState::kCommitted);
  EXPECT_EQ(copy.rows, a->rows);
}

TEST(TransactionTest, CompletionHookAndAwaiterSeeEqualRows) {
  Transaction txn(make_txn_id(1, 0), two_ops());
  std::vector<std::vector<std::string>> hooked;
  txn.set_on_complete(
      [&](const TxnResult& result) { hooked = result.rows; });
  std::shared_ptr<const TxnResult> awaited;
  std::thread waiter(
      [&] { awaited = txn.await_for(std::chrono::seconds(10)); });
  std::thread completer([&] {
    TxnResult result;
    result.id = txn.id();
    result.state = TxnState::kCommitted;
    result.rows = {{"111", "222"}, {"Ana"}};
    txn.complete(std::move(result));
  });
  completer.join();
  waiter.join();
  ASSERT_NE(awaited, nullptr);
  EXPECT_EQ(hooked, awaited->rows);
  EXPECT_EQ(hooked,
            (std::vector<std::vector<std::string>>{{"111", "222"}, {"Ana"}}));
}

}  // namespace
}  // namespace dtx::txn
