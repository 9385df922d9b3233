#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dtx/wal.hpp"
#include "storage/file_store.hpp"
#include "storage/memory_store.hpp"

namespace dtx::storage {
namespace {

namespace wal = core::wal;

namespace fs = std::filesystem;

template <typename T>
std::unique_ptr<StorageBackend> make_store(const fs::path& dir);

template <>
std::unique_ptr<StorageBackend> make_store<MemoryStore>(const fs::path&) {
  return std::make_unique<MemoryStore>();
}

template <>
std::unique_ptr<StorageBackend> make_store<FileStore>(const fs::path& dir) {
  return std::make_unique<FileStore>(dir);
}

template <typename T>
class StorageBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dtx_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    store_ = make_store<T>(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::unique_ptr<StorageBackend> store_;
};

using Backends = ::testing::Types<MemoryStore, FileStore>;
TYPED_TEST_SUITE(StorageBackendTest, Backends);

TYPED_TEST(StorageBackendTest, StoreThenLoad) {
  ASSERT_TRUE(this->store_->store("d1", "<people/>").is_ok());
  auto loaded = this->store_->load("d1");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value(), "<people/>");
}

TYPED_TEST(StorageBackendTest, LoadMissingIsNotFound) {
  auto loaded = this->store_->load("ghost");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), util::Code::kNotFound);
}

TYPED_TEST(StorageBackendTest, OverwriteReplaces) {
  ASSERT_TRUE(this->store_->store("d", "<v1/>").is_ok());
  ASSERT_TRUE(this->store_->store("d", "<v2/>").is_ok());
  EXPECT_EQ(this->store_->load("d").value(), "<v2/>");
}

TYPED_TEST(StorageBackendTest, AppendCreatesAndExtends) {
  // append() is the log-structured write path (the presumed-abort commit
  // log): creates on first use, extends in place afterwards.
  ASSERT_TRUE(this->store_->append("log", "1\n").is_ok());
  ASSERT_TRUE(this->store_->append("log", "2\n").is_ok());
  EXPECT_EQ(this->store_->load("log").value(), "1\n2\n");
  // Appending after a full store extends the stored value.
  ASSERT_TRUE(this->store_->store("log", "7\n").is_ok());
  ASSERT_TRUE(this->store_->append("log", "8\n").is_ok());
  EXPECT_EQ(this->store_->load("log").value(), "7\n8\n");
}

TYPED_TEST(StorageBackendTest, ExistsAndList) {
  EXPECT_FALSE(this->store_->exists("a"));
  ASSERT_TRUE(this->store_->store("b", "<b/>").is_ok());
  ASSERT_TRUE(this->store_->store("a", "<a/>").is_ok());
  EXPECT_TRUE(this->store_->exists("a"));
  EXPECT_EQ(this->store_->list(), (std::vector<std::string>{"a", "b"}));
}

TYPED_TEST(StorageBackendTest, RemoveWorksOnce) {
  ASSERT_TRUE(this->store_->store("d", "<d/>").is_ok());
  EXPECT_TRUE(this->store_->remove("d").is_ok());
  EXPECT_FALSE(this->store_->exists("d"));
  EXPECT_FALSE(this->store_->remove("d").is_ok());
}

TYPED_TEST(StorageBackendTest, LargePayloadRoundTrips) {
  std::string big = "<doc>";
  for (int i = 0; i < 5000; ++i) {
    big += "<item id=\"" + std::to_string(i) + "\">payload</item>";
  }
  big += "</doc>";
  ASSERT_TRUE(this->store_->store("big", big).is_ok());
  EXPECT_EQ(this->store_->load("big").value(), big);
}

TYPED_TEST(StorageBackendTest, ReadLogOfMissingEntryIsEmpty) {
  auto log = this->store_->read_log("never-written");
  ASSERT_TRUE(log.is_ok());
  EXPECT_TRUE(log.value().empty());
  // Unlike load(), which reports kNotFound.
  EXPECT_EQ(this->store_->load("never-written").status().code(),
            util::Code::kNotFound);
}

TYPED_TEST(StorageBackendTest, TruncateResetsAndCreates) {
  ASSERT_TRUE(this->store_->append("log", "abc").is_ok());
  ASSERT_TRUE(this->store_->truncate("log").is_ok());
  EXPECT_EQ(this->store_->read_log("log").value(), "");
  ASSERT_TRUE(this->store_->append("log", "d").is_ok());
  EXPECT_EQ(this->store_->read_log("log").value(), "d");
  // Truncating a never-written entry is not an error.
  EXPECT_TRUE(this->store_->truncate("fresh").is_ok());
}

// --- WAL framing and crash-window recovery (dtx/wal.hpp) ---------------------
//
// Storage-level fault injection: the torn tails and half-finished
// checkpoints below are byte states a process crash can leave behind; the
// log framing must resolve every one of them exactly.

class WalFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.store("d", kBase).is_ok());
  }

  /// Appends a commit record and returns its encoded bytes.
  std::string append_record(std::uint64_t version, std::uint64_t txn,
                            const std::vector<std::string>& ops) {
    const std::string raw = wal::encode_record(version, txn, ops);
    EXPECT_TRUE(store_.append(wal::log_key("d"), raw).is_ok());
    return raw;
  }

  static constexpr const char* kBase = "<r><a>1</a></r>";
  MemoryStore store_;
};

TEST_F(WalFormatTest, RecordAndMarkerRoundTrip) {
  const std::vector<std::string> ops = {
      "update d change /r/a ::= 2", "update d insert into /r ::= <b/>"};
  const std::string raw = wal::encode_record(7, 42, ops) +
                          wal::encode_checkpoint(7, 123, {40, 41, 42});
  const wal::LogScan scan = wal::scan_log(raw);
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.entries[0].kind, wal::LogEntry::Kind::kRecord);
  EXPECT_EQ(scan.entries[0].version, 7u);
  EXPECT_EQ(scan.entries[0].txn, 42u);
  EXPECT_EQ(scan.entries[0].ops, ops);
  EXPECT_EQ(scan.entries[1].kind, wal::LogEntry::Kind::kCheckpoint);
  EXPECT_EQ(scan.entries[1].hash, 123u);
  EXPECT_EQ(scan.entries[1].ids,
            (std::vector<lock::TxnId>{40, 41, 42}));
  // The captured raw spans re-concatenate to the input.
  EXPECT_EQ(scan.entries[0].raw + scan.entries[1].raw, raw);
}

TEST_F(WalFormatTest, TornTailIsDetectedAndDropped) {
  const std::string good =
      append_record(1, 10, {"update d change /r/a ::= 2"});
  // A crash mid-append leaves a prefix of the next record.
  const std::string torn =
      wal::encode_record(2, 11, {"update d change /r/a ::= 3"});
  ASSERT_TRUE(
      store_.append(wal::log_key("d"), torn.substr(0, torn.size() - 4))
          .is_ok());

  const wal::LogScan scan =
      wal::scan_log(store_.read_log(wal::log_key("d")).value());
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good.size());

  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_TRUE(durable.value().torn_tail);
  EXPECT_TRUE(durable.value().needs_repair);
  EXPECT_EQ(durable.value().version, 1u);  // the valid prefix survives
  ASSERT_TRUE(wal::repair(store_, "d", durable.value()).is_ok());
  EXPECT_EQ(store_.read_log(wal::log_key("d")).value(), good);
  auto again = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again.value().needs_repair);
}

TEST_F(WalFormatTest, PayloadCorruptionInvalidatesTheFrame) {
  std::string raw = wal::encode_record(1, 10, {"update d change /r/a ::= 2"});
  raw[raw.size() - 3] ^= 0x1;  // flip a payload byte under the hash
  ASSERT_TRUE(store_.append(wal::log_key("d"), raw).is_ok());
  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().version, 0u);
  EXPECT_TRUE(durable.value().needs_repair);
}

TEST_F(WalFormatTest, CrashBetweenMarkerAndSnapshotReplaysTheTail) {
  // Two commits, then a checkpoint that crashed after the marker append
  // but before the snapshot store: bytes are still the version-0 base.
  append_record(1, 10, {"update d change /r/a ::= 2"});
  append_record(2, 11, {"update d change /r/a ::= 3"});
  const std::string new_bytes = "<r><a>3</a></r>";
  ASSERT_TRUE(store_
                  .append(wal::log_key("d"),
                          wal::encode_checkpoint(
                              2, wal::fnv1a(new_bytes), {10, 11}))
                  .is_ok());

  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_TRUE(durable.value().consistent);
  EXPECT_EQ(durable.value().checkpoint_version, 0u);  // base unmoved
  EXPECT_EQ(durable.value().version, 2u);
  ASSERT_EQ(durable.value().tail.size(), 2u);
  auto materialized = wal::materialize(store_, "d");
  ASSERT_TRUE(materialized.is_ok());
  EXPECT_NE(materialized.value().find(">3<"), std::string::npos);
  // Repair drops the unfulfilled marker; the records stay.
  ASSERT_TRUE(wal::repair(store_, "d", durable.value()).is_ok());
  auto again = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again.value().needs_repair);
  EXPECT_EQ(again.value().version, 2u);
}

TEST_F(WalFormatTest, CrashBetweenSnapshotAndCompactionSkipsCoveredRecords) {
  // The checkpoint wrote marker + snapshot but crashed before compacting:
  // the log still holds records the snapshot already contains.
  append_record(1, 10, {"update d change /r/a ::= 2"});
  const std::string new_bytes = "<r><a>2</a></r>";
  ASSERT_TRUE(
      store_
          .append(wal::log_key("d"),
                  wal::encode_checkpoint(1, wal::fnv1a(new_bytes), {10}))
          .is_ok());
  ASSERT_TRUE(store_.store("d", new_bytes).is_ok());

  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().checkpoint_version, 1u);
  EXPECT_EQ(durable.value().version, 1u);
  EXPECT_TRUE(durable.value().tail.empty());  // record 1 is in the bytes
  EXPECT_EQ(durable.value().checkpoint_ids, (std::vector<lock::TxnId>{10}));
  EXPECT_TRUE(durable.value().needs_repair);
  ASSERT_TRUE(wal::repair(store_, "d", durable.value()).is_ok());
  // Compacted down to exactly the marker.
  EXPECT_EQ(store_.read_log(wal::log_key("d")).value(),
            durable.value().marker_raw);
  auto materialized = wal::materialize(store_, "d");
  ASSERT_TRUE(materialized.is_ok());
  EXPECT_NE(materialized.value().find(">2<"), std::string::npos);
}

TEST_F(WalFormatTest, RecordsAfterACompletedCheckpointReplay) {
  // Full checkpoint at v1, then two more commits: replay starts at the
  // marker, not the base.
  append_record(1, 10, {"update d change /r/a ::= 2"});
  const std::string snap = "<r><a>2</a></r>";
  const std::string marker =
      wal::encode_checkpoint(1, wal::fnv1a(snap), {10});
  ASSERT_TRUE(store_.store("d", snap).is_ok());
  ASSERT_TRUE(store_.store(wal::log_key("d"), marker).is_ok());
  append_record(2, 11, {"update d change /r/a ::= 3"});
  append_record(3, 12, {"update d insert into /r ::= <b>x</b>"});

  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_FALSE(durable.value().needs_repair);
  EXPECT_EQ(durable.value().checkpoint_version, 1u);
  EXPECT_EQ(durable.value().version, 3u);
  ASSERT_EQ(durable.value().tail.size(), 2u);
  auto materialized = wal::materialize(store_, "d");
  ASSERT_TRUE(materialized.is_ok());
  EXPECT_NE(materialized.value().find(">3<"), std::string::npos);
  EXPECT_NE(materialized.value().find("<b>x</b>"), std::string::npos);
}

TEST_F(WalFormatTest, VersionGapStopsTheTail) {
  append_record(1, 10, {"update d change /r/a ::= 2"});
  append_record(3, 12, {"update d change /r/a ::= 9"});  // 2 is missing
  auto durable = wal::read_durable_doc(store_, "d");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().version, 1u);
  EXPECT_TRUE(durable.value().needs_repair);
  auto materialized = wal::materialize(store_, "d");
  ASSERT_TRUE(materialized.is_ok());
  EXPECT_NE(materialized.value().find(">2<"), std::string::npos);
}

TEST(MemoryStoreTest, StoreCountTracksPersists) {
  MemoryStore store;
  EXPECT_EQ(store.store_count(), 0u);
  ASSERT_TRUE(store.store("a", "<a/>").is_ok());
  ASSERT_TRUE(store.store("a", "<a2/>").is_ok());
  EXPECT_EQ(store.store_count(), 2u);
}

TEST(FileStoreTest, PersistsAcrossInstances) {
  const fs::path dir =
      fs::temp_directory_path() / "dtx_storage_reopen_test";
  fs::remove_all(dir);
  {
    FileStore store(dir);
    ASSERT_TRUE(store.store("d1", "<people/>").is_ok());
  }
  {
    FileStore store(dir);
    EXPECT_TRUE(store.exists("d1"));
    EXPECT_EQ(store.load("d1").value(), "<people/>");
  }
  fs::remove_all(dir);
}

TEST(FileStoreTest, FilesAreNamedAfterDocuments) {
  const fs::path dir = fs::temp_directory_path() / "dtx_storage_name_test";
  fs::remove_all(dir);
  FileStore store(dir);
  ASSERT_TRUE(store.store("catalog", "<c/>").is_ok());
  EXPECT_TRUE(fs::exists(dir / "catalog.xml"));
  fs::remove_all(dir);
}

// Regression (thread-safety annotation sweep): FileStore had no internal
// synchronization. Two concurrent store() calls for one document shared
// the "<name>.xml.tmp" staging file, so one writer's rename could publish
// the other's half-written bytes; concurrent append() streams could
// interleave within a record. Every call must be atomic at the backend's
// granularity — a load observes exactly one writer's payload, and the log
// is a permutation of whole appended records.
TEST(FileStoreTest, ConcurrentStoresNeverPublishATornSnapshot) {
  const fs::path dir = fs::temp_directory_path() / "dtx_storage_race_test";
  fs::remove_all(dir);
  FileStore store(dir);

  // Payloads big enough that a torn mix is all but certain to be seen if
  // the staging file is shared, each filled with a writer-unique byte.
  constexpr int kWriters = 4;
  constexpr int kRounds = 50;
  std::vector<std::string> payloads;
  payloads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    payloads.push_back("<doc w='" + std::to_string(w) + "'>" +
                       std::string(64 * 1024, static_cast<char>('a' + w)) +
                       "</doc>");
  }

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_TRUE(store.store("d1", payloads[w]).is_ok());
      }
    });
  }
  std::atomic<bool> done{false};
  threads.emplace_back([&] {  // concurrent reader: every load is whole
    while (!done.load()) {
      auto loaded = store.load("d1");
      if (!loaded.is_ok()) continue;  // not yet published
      const bool intact =
          std::find(payloads.begin(), payloads.end(), loaded.value()) !=
          payloads.end();
      EXPECT_TRUE(intact) << "torn snapshot of " << loaded.value().size()
                          << " bytes";
      if (!intact) break;
    }
  });
  for (std::size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  done = true;
  threads.back().join();

  auto final_load = store.load("d1");
  ASSERT_TRUE(final_load.is_ok());
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), final_load.value()),
            payloads.end());
  fs::remove_all(dir);
}

TEST(FileStoreTest, ConcurrentAppendsKeepRecordsWhole) {
  const fs::path dir = fs::temp_directory_path() / "dtx_storage_append_test";
  fs::remove_all(dir);
  FileStore store(dir);

  constexpr int kWriters = 4;
  constexpr int kRecords = 100;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string record =
          std::string(1, static_cast<char>('A' + w)) + std::string(512, '.') +
          "\n";
      for (int i = 0; i < kRecords; ++i) {
        ASSERT_TRUE(store.append("log", record).is_ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto log = store.read_log("log");
  ASSERT_TRUE(log.is_ok());
  // Whole-record atomicity: the log splits into exactly kWriters*kRecords
  // lines, each a tag byte plus its own filler — no interleaving.
  std::istringstream lines(log.value());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.size(), 513u);
    EXPECT_EQ(line.substr(1), std::string(512, '.'));
    EXPECT_GE(line[0], 'A');
    EXPECT_LE(line[0], 'A' + kWriters - 1);
    ++count;
  }
  EXPECT_EQ(count, kWriters * kRecords);
  fs::remove_all(dir);
}

// FileStore keeps one open append descriptor per log. store() replaces the
// file by a rename and remove() unlinks it, so an append after either must
// reach the new file, not the old inode; after truncate() it must start the
// emptied log. A second FileStore on the directory sees what a restarted
// site would.
TEST(FileStoreTest, AppendAfterStoreTruncateOrRemoveWritesTheNewFile) {
  const fs::path dir = fs::temp_directory_path() / "dtx_storage_reuse_test";
  fs::remove_all(dir);
  {
    FileStore store(dir);
    for (const char* key : {"stored", "truncated", "removed"}) {
      ASSERT_TRUE(store.append(key, "a1;").is_ok());
    }
    ASSERT_TRUE(store.store("stored", "s;").is_ok());
    ASSERT_TRUE(store.truncate("truncated").is_ok());
    ASSERT_TRUE(store.remove("removed").is_ok());
    for (const char* key : {"stored", "truncated", "removed"}) {
      ASSERT_TRUE(store.append(key, "a2;").is_ok());
    }
    FileStore reader(dir);
    EXPECT_EQ(reader.read_log("stored").value(), "s;a2;");
    EXPECT_EQ(reader.read_log("truncated").value(), "a2;");
    EXPECT_EQ(reader.read_log("removed").value(), "a2;");
  }
  FileStore reopened(dir);
  EXPECT_EQ(reopened.read_log("stored").value(), "s;a2;");
  fs::remove_all(dir);
}

// More logs than FileStore keeps open: appends to a log whose descriptor
// was closed to make room reopen it and land after its earlier records.
TEST(FileStoreTest, AppendsBeyondTheOpenFileBoundStayWhole) {
  const fs::path dir = fs::temp_directory_path() / "dtx_storage_bound_test";
  fs::remove_all(dir);
  FileStore store(dir);
  const std::size_t logs = FileStore::kMaxOpenAppendFiles + 3;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < logs; ++i) {
      ASSERT_TRUE(
          store.append("log" + std::to_string(i), std::to_string(round) + ";")
              .is_ok());
    }
  }
  FileStore reader(dir);
  for (std::size_t i = 0; i < logs; ++i) {
    EXPECT_EQ(reader.read_log("log" + std::to_string(i)).value(), "0;1;")
        << "log" << i;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dtx::storage
