// Deterministic unit tests of the site LockManager (Algorithm 3): the
// conflict / wait / wake cycle, per-operation undo, commit persistence and
// wait-for-graph bookkeeping — without spinning up sites or threads.
#include <gtest/gtest.h>

#include "dtx/data_manager.hpp"
#include "dtx/lock_manager.hpp"
#include "dtx/wal.hpp"
#include "query/plan.hpp"
#include "storage/memory_store.hpp"
#include "xml/parser.hpp"

namespace dtx::core {
namespace {

using lock::TxnId;

constexpr SiteId kCoordA = 0;
constexpr SiteId kCoordB = 1;

class LockManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.store("d1",
                             "<site><people>"
                             "<person id=\"p1\"><name>Ana</name></person>"
                             "<person id=\"p2\"><name>Bruno</name></person>"
                             "</people></site>")
                    .is_ok());
    data_ = std::make_unique<DataManager>(store_);
    ASSERT_TRUE(data_->load_all().is_ok());
    locks_ = std::make_unique<LockManager>(lock::ProtocolKind::kXdglPlain,
                                           *data_);
  }

  /// Compiles the textual operation into the plan process_operation now
  /// consumes (parse + compile happen once, here — never on execution).
  static query::Plan op(const std::string& text) {
    auto plan = query::compile_text(text);
    EXPECT_TRUE(plan.is_ok()) << text;
    return std::move(plan).value();
  }

  storage::MemoryStore store_;
  std::unique_ptr<DataManager> data_;
  std::unique_ptr<LockManager> locks_;
};

TEST_F(LockManagerTest, QueryExecutesAndReturnsRows) {
  const OpOutcome outcome = locks_->process_operation(
      1, 0, op("query d1 /site/people/person[@id='p1']/name"), kCoordA);
  ASSERT_EQ(outcome.kind, OpOutcome::Kind::kExecuted);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0], "Ana");
  EXPECT_GT(locks_->lock_entries(), 0u);
}

TEST_F(LockManagerTest, ConflictReportsBlockersAndRecordsEdge) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  const OpOutcome conflict = locks_->process_operation(
      2, 0,
      op("update d1 insert into /site/people ::= <person id=\"p9\"/>"),
      kCoordB);
  ASSERT_EQ(conflict.kind, OpOutcome::Kind::kConflict);
  ASSERT_EQ(conflict.blockers, std::vector<TxnId>{1});
  // The wait edge t2 -> t1 is in the local graph (Alg. 3 l. 8).
  const auto edges = locks_->wfg_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (wfg::Edge{2, 1}));
}

TEST_F(LockManagerTest, CommitOfBlockerWakesSubscriber) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  ASSERT_EQ(locks_
                ->process_operation(
                    2, 0,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kConflict);

  std::vector<WakeNotice> wakes;
  ASSERT_TRUE(locks_->commit(1, wakes).is_ok());
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0].waiter, 2u);
  EXPECT_EQ(wakes[0].coordinator, kCoordB);

  // The retry now succeeds.
  EXPECT_EQ(locks_
                ->process_operation(
                    2, 0,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kExecuted);
  EXPECT_TRUE(locks_->wfg_edges().empty());  // waiter edge cleared on retry
}

TEST_F(LockManagerTest, AbortOfBlockerAlsoWakes) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  ASSERT_EQ(locks_
                ->process_operation(
                    2, 0,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kConflict);
  std::vector<WakeNotice> wakes;
  locks_->abort(1, wakes);
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0].waiter, 2u);
}

TEST_F(LockManagerTest, LocalDeadlockDetectedOnCycleClosingEdge) {
  // t1 reads people, t2 reads... we need two lockable resources; use two
  // label paths: person names vs person @id scans are on different guide
  // nodes but share ancestors. Simplest local cycle: t1 holds ST(person),
  // t2 holds X(new staff path) then t1 wants staff, t2 wants person.
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  ASSERT_EQ(locks_
                ->process_operation(
                    2, 0,
                    op("update d1 insert into /site/people ::= "
                       "<staff id=\"s1\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kExecuted);
  // t2 now needs the person guide node -> waits on t1.
  ASSERT_EQ(locks_
                ->process_operation(
                    2, 1,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kConflict);
  // t1 asks for the staff path -> edge t1 -> t2 closes the cycle.
  const OpOutcome outcome = locks_->process_operation(
      1, 1, op("query d1 /site/people/staff/@id"), kCoordA);
  EXPECT_EQ(outcome.kind, OpOutcome::Kind::kDeadlock);
  EXPECT_EQ(locks_->stats().local_deadlocks, 1u);
}

TEST_F(LockManagerTest, UndoOperationRollsBackDocAndLocks) {
  const OpOutcome outcome = locks_->process_operation(
      1, 0,
      op("update d1 insert into /site/people ::= <person id=\"p9\"/>"),
      kCoordA);
  ASSERT_EQ(outcome.kind, OpOutcome::Kind::kExecuted);
  const std::size_t entries_held = locks_->lock_entries();
  ASSERT_GT(entries_held, 0u);

  locks_->undo_from(1, 0);
  EXPECT_EQ(locks_->lock_entries(), 0u);
  // The insert is gone from the in-memory document.
  const OpOutcome check = locks_->process_operation(
      2, 0, op("query d1 /site/people/person[@id='p9']/name"), kCoordA);
  ASSERT_EQ(check.kind, OpOutcome::Kind::kExecuted);
  EXPECT_TRUE(check.rows.empty());
}

TEST_F(LockManagerTest, UndoOperationForUnknownOpIsNoop) {
  locks_->undo_from(42, 7);  // never executed here
  EXPECT_EQ(locks_->lock_entries(), 0u);
}

// A slice undo: every operation from op 1 on rolls back, newest first, and
// op 0 keeps its effect and its locks.
TEST_F(LockManagerTest, UndoFromRollsBackLaterOperationsNewestFirst) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0,
                    op("update d1 change "
                       "/site/people/person[@id='p1']/name ::= Anna"),
                    kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  const std::size_t entries_after_first = locks_->lock_entries();
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 1,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"><name>Nine</name></person>"),
                    kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 2,
                    op("update d1 change "
                       "/site/people/person[@id='p9']/name ::= Nueve"),
                    kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);

  locks_->undo_from(1, 1);
  EXPECT_EQ(locks_->lock_entries(), entries_after_first);
  // The transaction's own read sees op 0's change and no trace of 1 and 2.
  const OpOutcome check = locks_->process_operation(
      1, 1, op("query d1 /site/people/person/name"), kCoordA);
  ASSERT_EQ(check.kind, OpOutcome::Kind::kExecuted);
  EXPECT_EQ(check.rows, (std::vector<std::string>{"Anna", "Bruno"}));

  std::vector<WakeNotice> wakes;
  locks_->abort(1, wakes);
  EXPECT_EQ(locks_->lock_entries(), 0u);
  EXPECT_EQ(locks_->undo_log_count(), 0u);
}

TEST_F(LockManagerTest, CommitPersistsToStorage) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0,
                    op("update d1 change "
                       "/site/people/person[@id='p1']/name ::= Anna"),
                    kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  std::vector<WakeNotice> wakes;
  ASSERT_TRUE(locks_->commit(1, wakes).is_ok());
  auto stored = wal::materialize(store_, "d1");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_NE(stored.value().find("Anna"), std::string::npos);
  EXPECT_EQ(locks_->lock_entries(), 0u);  // Strict 2PL released at commit
}

TEST_F(LockManagerTest, AbortRollsBackDocument) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0,
                    op("update d1 remove /site/people/person[@id='p2']"),
                    kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  std::vector<WakeNotice> wakes;
  locks_->abort(1, wakes);
  const OpOutcome check = locks_->process_operation(
      2, 0, op("query d1 /site/people/person[@id='p2']/name"), kCoordA);
  ASSERT_EQ(check.kind, OpOutcome::Kind::kExecuted);
  ASSERT_EQ(check.rows.size(), 1u);
  EXPECT_EQ(check.rows[0], "Bruno");
}

TEST_F(LockManagerTest, MissingDocumentFails) {
  const OpOutcome outcome = locks_->process_operation(
      1, 0, op("query ghost /site/people"), kCoordA);
  EXPECT_EQ(outcome.kind, OpOutcome::Kind::kFailed);
  EXPECT_FALSE(outcome.error.empty());
}

TEST_F(LockManagerTest, StructuralFailureReleasesThisOpsLocks) {
  const OpOutcome outcome = locks_->process_operation(
      1, 0, op("update d1 insert after /site ::= <bad/>"), kCoordA);
  EXPECT_EQ(outcome.kind, OpOutcome::Kind::kFailed);
  EXPECT_EQ(locks_->lock_entries(), 0u);
}

TEST_F(LockManagerTest, StatsCountExecutionsAndConflicts) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  (void)locks_->process_operation(
      2, 0,
      op("update d1 insert into /site/people ::= <person id=\"x\"/>"),
      kCoordB);
  const LockManagerStats stats = locks_->stats();
  EXPECT_EQ(stats.operations_executed, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_GT(stats.lock_acquisitions, 0u);
}

TEST_F(LockManagerTest, ClearWaiterDropsEdgesAndSubscriptions) {
  ASSERT_EQ(locks_
                ->process_operation(
                    1, 0, op("query d1 /site/people/person/name"), kCoordA)
                .kind,
            OpOutcome::Kind::kExecuted);
  ASSERT_EQ(locks_
                ->process_operation(
                    2, 0,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    kCoordB)
                .kind,
            OpOutcome::Kind::kConflict);
  locks_->clear_waiter(2);
  EXPECT_TRUE(locks_->wfg_edges().empty());
  std::vector<WakeNotice> wakes;
  ASSERT_TRUE(locks_->commit(1, wakes).is_ok());
  EXPECT_TRUE(wakes.empty());  // subscription was dropped
}

// With logical locks (ProtocolKind::kXdgl), point operations on different
// instances do not conflict at all.
TEST(LockManagerLogicalTest, PointOpsOnDistinctIdsDoNotConflict) {
  storage::MemoryStore store;
  ASSERT_TRUE(store.store("d1",
                          "<site><people>"
                          "<person id=\"p1\"><name>Ana</name></person>"
                          "<person id=\"p2\"><name>Bruno</name></person>"
                          "</people></site>")
                  .is_ok());
  DataManager data(store);
  ASSERT_TRUE(data.load_all().is_ok());
  LockManager locks(lock::ProtocolKind::kXdgl, data);

  auto op = [](const std::string& text) {
    return query::compile_text(text).value();
  };
  // t1 reads person p1; t2 changes person p2; t3 inserts person p9 — all
  // concurrent under logical locks.
  EXPECT_EQ(locks
                .process_operation(
                    1, 0, op("query d1 /site/people/person[@id='p1']/name"),
                    0)
                .kind,
            OpOutcome::Kind::kExecuted);
  EXPECT_EQ(locks
                .process_operation(
                    2, 0,
                    op("update d1 change "
                       "/site/people/person[@id='p2']/name ::= Bru"),
                    0)
                .kind,
            OpOutcome::Kind::kExecuted);
  EXPECT_EQ(locks
                .process_operation(
                    3, 0,
                    op("update d1 insert into /site/people ::= "
                       "<person id=\"p9\"/>"),
                    0)
                .kind,
            OpOutcome::Kind::kExecuted);
  // ...but a scan still conflicts with the writers (phantom protection).
  const OpOutcome scan = locks.process_operation(
      4, 0, op("query d1 /site/people/person/name"), 0);
  EXPECT_EQ(scan.kind, OpOutcome::Kind::kConflict);
  EXPECT_GE(scan.blockers.size(), 1u);
}

}  // namespace
}  // namespace dtx::core
