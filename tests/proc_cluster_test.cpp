// Multi-process cluster test: three real dtxd processes over loopback TCP,
// driven through client::RemoteSession — the whole transport stack under
// the engine, with a kill -9 mid-workload and a restart. Asserts the
// post-recovery invariants the in-process chaos suite checks for SimNetwork
// clusters: the restarted site serves transactions again, no replica
// diverges (wal::materialize agreement across the store directories), and
// no site is left holding dangling state (probe transactions commit).
//
// The dtxd binary path arrives via the DTXD_BIN compile definition.
// Skipped when loopback sockets are unavailable; CI runs it under the
// "socket" ctest label.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "client/remote_session.hpp"
#include "dtx/site_context.hpp"
#include "dtx/wal.hpp"
#include "placement/placement.hpp"
#include "storage/file_store.hpp"

namespace dtx {
namespace {

using namespace std::chrono_literals;

bool loopback_available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// Reserves a distinct ephemeral port by binding :0 and noting the result.
/// The socket is closed before dtxd binds it — the classic small race, but
/// the kernel does not reissue an ephemeral port while others stay bound,
/// and the three reservations overlap.
std::uint16_t reserve_port(std::vector<int>& held) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  held.push_back(fd);
  return ntohs(addr.sin_port);
}

constexpr int kSites = 3;      ///< boot members
constexpr int kMaxSites = 4;   ///< boot members + one elastic joiner
constexpr const char* kDoc = "catalog";

class ProcCluster {
 public:
  explicit ProcCluster(std::filesystem::path root) : root_(std::move(root)) {
    std::vector<int> held;
    for (int i = 0; i < kMaxSites; ++i) ports_[i] = reserve_port(held);
    for (int fd : held) ::close(fd);
    std::filesystem::create_directories(root_);
    seed_path_ = root_ / "seed.xml";
    std::ofstream(seed_path_) << "<site><items/></site>";
  }

  ~ProcCluster() {
    for (int i = 0; i < kMaxSites; ++i) {
      if (pids_[i] > 0) {
        ::kill(pids_[i], SIGKILL);
        ::waitpid(pids_[i], nullptr, 0);
      }
    }
  }

  [[nodiscard]] std::string address(int site) const {
    return "127.0.0.1:" + std::to_string(ports_[site]);
  }
  [[nodiscard]] std::filesystem::path store_dir(int site) const {
    return root_ / ("site" + std::to_string(site));
  }

  void spawn(int site) {
    std::string peers;
    for (int peer = 0; peer < kSites; ++peer) {
      if (peer == site) continue;
      if (!peers.empty()) peers += ',';
      peers += std::to_string(peer) + "=" + address(peer);
    }
    std::vector<std::string> args = {
        DTXD_BIN,
        "--site=" + std::to_string(site),
        "--listen=" + address(site),
        "--peers=" + peers,
        "--store=" + store_dir(site).string(),
        std::string("--docs=") + kDoc + ":0,1,2",
        "--load=" + std::string(kDoc) + ":" + seed_path_.string(),
        // Keep recovery snappy (its waits scale with the response
        // timeout) and make orphaned state clean up within the test
        // budget after the kill -9.
        "--response_timeout_ms=2000",
        "--orphan_timeout_ms=1000",
        "--log_level=4",  // errors only; keep the gtest output readable
    };
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(DTXD_BIN, argv.data());
      std::perror("execv dtxd");
      _exit(127);
    }
    pids_[site] = pid;
  }

  /// Spawns an elastic joiner: no --docs / --load — membership, catalog
  /// and replicas all arrive over the wire via the --join handshake.
  void spawn_join(int site, int seed_site) {
    std::vector<std::string> args = {
        DTXD_BIN,
        "--site=" + std::to_string(site),
        "--listen=" + address(site),
        "--join=" + std::to_string(seed_site) + "=" + address(seed_site),
        "--store=" + store_dir(site).string(),
        "--response_timeout_ms=2000",
        "--orphan_timeout_ms=1000",
        "--log_level=4",
    };
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(DTXD_BIN, argv.data());
      std::perror("execv dtxd");
      _exit(127);
    }
    pids_[site] = pid;
  }

  void kill9(int site) {
    ASSERT_GT(pids_[site], 0);
    ::kill(pids_[site], SIGKILL);
    ::waitpid(pids_[site], nullptr, 0);
    pids_[site] = -1;
  }

  void terminate_all() {
    for (int i = 0; i < kMaxSites; ++i) {
      if (pids_[i] > 0) ::kill(pids_[i], SIGTERM);
    }
    for (int i = 0; i < kMaxSites; ++i) {
      if (pids_[i] > 0) {
        // Bounded wait; escalate to SIGKILL if the daemon wedged.
        for (int spin = 0; spin < 200; ++spin) {
          if (::waitpid(pids_[i], nullptr, WNOHANG) == pids_[i]) {
            pids_[i] = -1;
            break;
          }
          std::this_thread::sleep_for(25ms);
        }
        if (pids_[i] > 0) {
          ::kill(pids_[i], SIGKILL);
          ::waitpid(pids_[i], nullptr, 0);
          pids_[i] = -1;
          ADD_FAILURE() << "site " << i << " ignored SIGTERM";
        }
      }
    }
  }

  /// Connects a fresh session to `site`, retrying while the daemon boots.
  bool connect(client::RemoteSession& session, int site,
               std::chrono::milliseconds budget = 15000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (session.connect(address(site), 1000ms)) return true;
      session.close();
      std::this_thread::sleep_for(100ms);
    }
    return false;
  }

 private:
  std::filesystem::path root_;
  std::filesystem::path seed_path_;
  std::uint16_t ports_[kMaxSites] = {};
  pid_t pids_[kMaxSites] = {-1, -1, -1, -1};
};

std::string insert_op(int n) {
  return "update " + std::string(kDoc) + " insert into /site/items ::= <i n=\"" +
         std::to_string(n) + "\"/>";
}

TEST(ProcClusterTest, SurvivesKillNineAndRestart) {
  if (!loopback_available()) {
    GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";
  }

  ProcCluster cluster(std::filesystem::temp_directory_path() /
                      ("dtx_proc_" + std::to_string(::getpid())));
  for (int site = 0; site < kSites; ++site) cluster.spawn(site);
  if (::testing::Test::HasFatalFailure()) return;

  client::RemoteSession session;
  ASSERT_TRUE(cluster.connect(session, 0)) << "site 0 never came up";

  // Phase 1: workload against the healthy cluster.
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    auto result = session.execute_text({insert_op(i)}, 10s);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_TRUE(result.value().accepted) << result.value().detail;
    if (result.value().state == txn::TxnState::kCommitted) ++committed;
  }
  EXPECT_EQ(committed, 10);

  // Phase 2: kill -9 a participant site mid-cluster and keep writing.
  // Updates need locks at ALL hosting sites, so these abort/fail until
  // recovery — what matters is that the coordinator survives, answers,
  // and holds no dangling state afterwards.
  cluster.kill9(2);
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 10; i < 14; ++i) {
    auto result = session.execute_text({insert_op(i)}, 10s);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    if (result.value().accepted &&
        result.value().state == txn::TxnState::kCommitted) {
      ++committed;
    }
  }
  // Queries are served from local snapshots and must still commit.
  auto read = session.execute_text(
      {"query " + std::string(kDoc) + " /site/items"}, 10s);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value().state, txn::TxnState::kCommitted);

  // Phase 3: restart the killed site (same store dir — its WAL plus the
  // peers' recovery pulls must reconstruct the replica).
  cluster.spawn(2);
  if (::testing::Test::HasFatalFailure()) return;
  client::RemoteSession probe;
  ASSERT_TRUE(cluster.connect(probe, 2)) << "site 2 did not come back";

  // Post-recovery probes: distributed updates commit again, from both the
  // restarted site and the original coordinator. Allow a settling window
  // for orphan sweeps and reconnects.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  bool recovered = false;
  int n = 100;
  while (std::chrono::steady_clock::now() < deadline) {
    auto via_restarted = probe.execute_text({insert_op(n++)}, 10s);
    if (via_restarted.is_ok() && via_restarted.value().accepted &&
        via_restarted.value().state == txn::TxnState::kCommitted) {
      auto via_original = session.execute_text({insert_op(n++)}, 10s);
      if (via_original.is_ok() && via_original.value().accepted &&
          via_original.value().state == txn::TxnState::kCommitted) {
        recovered = true;
        break;
      }
    }
    std::this_thread::sleep_for(250ms);
  }
  EXPECT_TRUE(recovered) << "cluster did not return to committing updates";

  // No dangling locks: a multi-op read-write probe through every site's
  // document must complete (a leaked lock would wedge it until timeout).
  auto final_probe = session.execute_text(
      {"query " + std::string(kDoc) + " /site/items/i", insert_op(n++)}, 15s);
  ASSERT_TRUE(final_probe.is_ok()) << final_probe.status().to_string();
  EXPECT_EQ(final_probe.value().state, txn::TxnState::kCommitted)
      << final_probe.value().detail;

  // Phase 4: clean shutdown, then replica agreement straight from the
  // store directories — every site materializes the same document.
  session.close();
  probe.close();
  cluster.terminate_all();

  std::vector<std::string> replicas;
  for (int site = 0; site < kSites; ++site) {
    storage::FileStore store(cluster.store_dir(site));
    auto doc = core::wal::materialize(store, kDoc);
    ASSERT_TRUE(doc.is_ok())
        << "site " << site << ": " << doc.status().to_string();
    replicas.push_back(std::move(doc).value());
  }
  EXPECT_EQ(replicas[0], replicas[1]);
  EXPECT_EQ(replicas[0], replicas[2]);
}

// Membership chaos on the real transport: a 4th dtxd joins via --join while
// writes flow, a migration-source site is kill -9ed right after the join
// starts (the drain + replica ship must ride out the dead member), the
// source restarts, and the cluster converges — the joiner serves writes and
// every hosting replica named by the final durable catalog materializes to
// the same bytes.
TEST(ProcClusterTest, MembershipJoinSurvivesKillNine) {
  if (!loopback_available()) {
    GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";
  }

  ProcCluster cluster(std::filesystem::temp_directory_path() /
                      ("dtx_join_" + std::to_string(::getpid())));
  for (int site = 0; site < kSites; ++site) cluster.spawn(site);
  if (::testing::Test::HasFatalFailure()) return;

  client::RemoteSession session;
  ASSERT_TRUE(cluster.connect(session, 0)) << "site 0 never came up";
  int committed = 0;
  int n = 0;
  for (; n < 6; ++n) {
    auto result = session.execute_text({insert_op(n)}, 10s);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    if (result.value().state == txn::TxnState::kCommitted) ++committed;
  }
  EXPECT_EQ(committed, 6);

  // Grow under load: the joiner dials site 0, and immediately afterwards a
  // migration source dies. The join handshake retries until site 2 is back
  // (the drain needs every old member's ack), so the admission itself is
  // what rides out the kill.
  cluster.spawn_join(3, /*seed_site=*/0);
  if (::testing::Test::HasFatalFailure()) return;
  cluster.kill9(2);
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 0; i < 4; ++i) {
    // Writes may abort while the member is dead — only liveness of the
    // coordinator matters here.
    auto result = session.execute_text({insert_op(n++)}, 10s);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  }
  std::this_thread::sleep_for(2s);
  cluster.spawn(2);
  if (::testing::Test::HasFatalFailure()) return;

  // The joiner finishes the handshake, adopts its replicas and serves
  // writes of its own.
  client::RemoteSession joiner;
  ASSERT_TRUE(cluster.connect(joiner, 3, 60000ms))
      << "joiner never started serving";
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto via_joiner = joiner.execute_text({insert_op(1000 + n++)}, 10s);
    if (via_joiner.is_ok() && via_joiner.value().accepted &&
        via_joiner.value().state == txn::TxnState::kCommitted) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(250ms);
  }
  EXPECT_TRUE(converged) << "joiner never committed a write";

  session.close();
  joiner.close();
  cluster.terminate_all();

  // The durable catalog names the final placement; every hosting replica
  // of every document must materialize identically.
  storage::FileStore catalog_store(cluster.store_dir(0));
  auto text = catalog_store.load(core::SiteContext::kCatalogKey);
  ASSERT_TRUE(text.is_ok()) << "site 0 holds no durable catalog";
  auto epoch = placement::CatalogEpoch::parse(text.value());
  ASSERT_TRUE(epoch.is_ok()) << epoch.status().to_string();
  EXPECT_GE(epoch.value().epoch, 1u);
  EXPECT_TRUE(epoch.value().is_member(3)) << "joiner missing from catalog";
  for (const auto& [doc, hosts] : epoch.value().placement) {
    ASSERT_FALSE(hosts.empty());
    std::string reference;
    for (const net::SiteId host : hosts) {
      storage::FileStore store(cluster.store_dir(static_cast<int>(host)));
      auto bytes = core::wal::materialize(store, doc);
      ASSERT_TRUE(bytes.is_ok())
          << doc << " unreadable at site " << host << ": "
          << bytes.status().to_string();
      if (reference.empty()) {
        reference = std::move(bytes).value();
      } else {
        EXPECT_EQ(reference, bytes.value())
            << doc << " diverges at site " << host;
      }
    }
  }
}

}  // namespace
}  // namespace dtx
