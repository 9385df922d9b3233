// TcpNetwork loopback tests: two in-process endpoints over 127.0.0.1
// exercising the real transport — handshake, request/reply in both
// directions, every payload shape, dropped connections, reconnect with
// backoff, and corrupt-frame rejection. Skipped (GTEST_SKIP) when the
// sandbox forbids binding a loopback socket; CI runs them with the
// "socket" ctest label.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "client/remote_session.hpp"
#include "net/codec.hpp"
#include "net/tcp_network.hpp"
#include "txn/operation.hpp"

namespace dtx::net {
namespace {

using namespace std::chrono_literals;

/// Binding loopback may be forbidden in sandboxes; probe once.
bool loopback_available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

#define REQUIRE_LOOPBACK()                                         \
  if (!loopback_available()) {                                     \
    GTEST_SKIP() << "cannot bind 127.0.0.1 in this environment";   \
  }

/// A listening endpoint (site 0) and a dialing endpoint (`dialer_id`)
/// connected to it over loopback.
struct LoopbackPair {
  std::unique_ptr<TcpNetwork> listener;  // site 0
  std::unique_ptr<TcpNetwork> dialer;
  Mailbox* listener_box = nullptr;
  Mailbox* dialer_box = nullptr;

  static std::unique_ptr<LoopbackPair> make(SiteId dialer_id = 1) {
    auto pair = std::make_unique<LoopbackPair>();
    TcpOptions listen_options;
    listen_options.listen = "127.0.0.1:0";
    pair->listener = std::make_unique<TcpNetwork>(0, listen_options);
    pair->listener_box = &pair->listener->register_site(0);
    if (!pair->listener->start()) return nullptr;

    TcpOptions dial_options;
    dial_options.peers[0] =
        "127.0.0.1:" + std::to_string(pair->listener->listen_port());
    dial_options.reconnect_min = 10ms;
    dial_options.reconnect_max = 100ms;
    pair->dialer = std::make_unique<TcpNetwork>(dialer_id, dial_options);
    pair->dialer_box = &pair->dialer->register_site(dialer_id);
    if (!pair->dialer->start()) return nullptr;
    return pair;
  }

  bool wait_connected(std::chrono::milliseconds timeout = 3000ms) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (dialer->peer_connected(0)) return true;
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }
};

TEST(TcpNetworkTest, PortZeroResolvesToARealPort) {
  REQUIRE_LOOPBACK();
  TcpOptions options;
  options.listen = "127.0.0.1:0";
  TcpNetwork network(0, options);
  ASSERT_TRUE(static_cast<bool>(network.start()));
  EXPECT_NE(network.listen_port(), 0);
}

TEST(TcpNetworkTest, RequestReplyBothDirections) {
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make();
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());

  // Dialer -> listener over the dialed connection.
  pair->dialer->send(Message{1, 0, WakeTxn{11}});
  auto request = pair->listener_box->pop(3s);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->from, 1u);
  EXPECT_EQ(std::get<WakeTxn>(request->payload).txn, 11u);

  // Listener -> dialer over the accepted connection (bound by the Hello
  // that necessarily preceded the message above).
  pair->listener->send(Message{0, 1, CommitAck{11, true}});
  auto reply = pair->dialer_box->pop(3s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::get<CommitAck>(reply->payload).ok);
}

TEST(TcpNetworkTest, AllPayloadShapesSurviveTheWire) {
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make();
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());

  std::vector<Payload> payloads;
  ExecuteOperation exec;
  exec.txn = 7;
  exec.coordinator = 1;
  exec.op_indices = {0, 2};
  exec.ops = {
      txn::parse_operation(
          "update d1 insert into /site/people ::= <person id=\"p9\"/>")
          .value(),
      txn::parse_operation("query d1 /site/people/person/@id").value()};
  payloads.emplace_back(exec);
  OperationResult result;
  result.txn = 7;
  result.op_indices = {0, 2};
  result.rows = {{}, {"a", "", std::string(5000, 'z')}};
  payloads.emplace_back(result);
  WfgReply wfg;
  wfg.probe = 3;
  wfg.edges = {{1, 2}, {3, 4}};
  payloads.emplace_back(wfg);
  SnapshotReadRequest snap;
  snap.txn = 9;
  snap.op_indices = {0};
  snap.ops = {txn::parse_operation("query d1 /a/b").value()};
  payloads.emplace_back(snap);
  ClientReply client_reply;
  client_reply.seq = 4;
  client_reply.accepted = true;
  client_reply.response_ms = 1.5;
  client_reply.rows = {{"x"}};
  payloads.emplace_back(client_reply);
  RecoveryPullReply pull;
  pull.doc = "d1";
  pull.ok = true;
  pull.snapshot = "<site/>";
  pull.log = "v=1 t=2 n=0\n";
  payloads.emplace_back(pull);

  for (const Payload& payload : payloads) {
    pair->dialer->send(Message{1, 0, payload});
    auto got = pair->listener_box->pop(3s);
    ASSERT_TRUE(got.has_value()) << payload_name(payload);
    // Byte-exact arrival: same codec frame on both ends.
    EXPECT_EQ(codec::encode(*got), codec::encode(Message{1, 0, payload}))
        << payload_name(payload);
  }
}

TEST(TcpNetworkTest, SitesListsPeersButNeverClients) {
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make(kClientIdBase + 42);
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());

  // The client endpoint appears in neither side's site list.
  for (SiteId site : pair->listener->sites()) EXPECT_FALSE(is_client_id(site));
  for (SiteId site : pair->dialer->sites()) EXPECT_FALSE(is_client_id(site));

  // ... but replies still route to it: submit/reply as a remote client.
  pair->dialer->send(Message{kClientIdBase + 42, 0, WakeTxn{5}});
  auto request = pair->listener_box->pop(3s);
  ASSERT_TRUE(request.has_value());
  pair->listener->send(
      Message{0, kClientIdBase + 42, CommitAck{5, true}});
  auto reply = pair->dialer_box->pop(3s);
  ASSERT_TRUE(reply.has_value());
}

TEST(TcpNetworkTest, ReconnectsAfterDroppedConnectionsWithBackoff) {
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make();
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());
  const TcpStats before = pair->dialer->tcp_stats();

  pair->dialer->drop_connections();
  ASSERT_TRUE(pair->wait_connected());

  const TcpStats after = pair->dialer->tcp_stats();
  EXPECT_GT(after.disconnects, before.disconnects);
  EXPECT_GT(after.reconnects, before.reconnects);
  EXPECT_GT(after.connects, before.connects);

  // The healed connection carries traffic again.
  pair->dialer->send(Message{1, 0, WakeTxn{21}});
  auto got = pair->listener_box->pop(3s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<WakeTxn>(got->payload).txn, 21u);
}

TEST(TcpNetworkTest, BackoffCapsWhilePeerStaysDown) {
  REQUIRE_LOOPBACK();
  // Dial a port nobody listens on: every attempt fails, the dial counter
  // keeps growing, and the backoff cap keeps the rate bounded.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);  // nothing listens here now

  TcpOptions options;
  options.peers[0] = "127.0.0.1:" + std::to_string(dead_port);
  options.reconnect_min = 5ms;
  options.reconnect_max = 40ms;
  TcpNetwork network(1, options);
  network.register_site(1);
  ASSERT_TRUE(static_cast<bool>(network.start()));

  std::this_thread::sleep_for(300ms);
  const TcpStats stats = network.tcp_stats();
  EXPECT_GE(stats.dials, 3u);   // it kept trying
  EXPECT_LE(stats.dials, 70u);  // ... but backoff bounded the rate
  EXPECT_EQ(stats.connects, 0u);
  EXPECT_FALSE(network.peer_connected(0));

  // Messages toward the unreachable peer are dropped and counted, not
  // queued forever.
  const std::uint64_t dropped_before = network.stats().messages_dropped;
  network.send(Message{1, 0, WakeTxn{1}});
  EXPECT_GE(network.stats().messages_dropped + 1, dropped_before + 1);
}

TEST(TcpNetworkTest, CorruptFrameDropsTheConnection) {
  REQUIRE_LOOPBACK();
  TcpOptions options;
  options.listen = "127.0.0.1:0";
  TcpNetwork network(0, options);
  network.register_site(0);
  ASSERT_TRUE(static_cast<bool>(network.start()));

  // Raw TCP client: a valid Hello, then garbage.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(network.listen_port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string hello = codec::encode(
      Message{kClientIdBase + 1, 0, Hello{kClientIdBase + 1,
                                          codec::kProtocolVersion}});
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));
  const std::string garbage = "definitely not a DTX frame";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server must reject the frame and close the connection: recv sees
  // EOF and the rejection counter moves.
  char buffer[64];
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(n, 0) << "server did not close the poisoned connection";
  ::close(fd);
  EXPECT_GE(network.tcp_stats().frames_rejected, 1u);
}

TEST(TcpNetworkTest, MessagesToThePastPeerDropAfterItsConnectionDies) {
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make();
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());

  // Kill the dialer entirely; the listener's accepted route dies with it.
  pair->dialer.reset();
  std::this_thread::sleep_for(50ms);

  const std::uint64_t dropped_before =
      pair->listener->stats().messages_dropped;
  pair->listener->send(Message{0, 1, WakeTxn{9}});
  // Either the route was already torn down (counted drop) or the bytes
  // vanish with the dead socket — in both cases nothing explodes and no
  // reply ever comes. The send must at least not crash; when the route is
  // gone the drop is counted.
  EXPECT_GE(pair->listener->stats().messages_dropped, dropped_before);
}

TEST(TcpNetworkTest, ConcurrentSendersKeepPerLinkOrder) {
  // Several threads send numbered messages down one link at once. Every
  // twentieth frame is larger than a socket send buffer can grow (4 MB on
  // Linux by default), so the sending thread's write of it is partial and
  // the loop thread finishes it while the others keep queueing behind.
  // Each sender's sequence must arrive complete and in order.
  REQUIRE_LOOPBACK();
  auto pair = LoopbackPair::make();
  ASSERT_NE(pair, nullptr);
  ASSERT_TRUE(pair->wait_connected());

  constexpr std::uint32_t kSenders = 3;
  constexpr std::uint32_t kPerSender = 60;
  constexpr std::uint32_t kLargeEvery = 20;
  constexpr std::size_t kLargeBytes = 5u << 20;
  std::vector<std::thread> senders;
  for (std::uint32_t sender = 0; sender < kSenders; ++sender) {
    senders.emplace_back([&pair, sender] {
      for (std::uint32_t seq = 0; seq < kPerSender; ++seq) {
        OperationResult result;
        result.txn = sender;
        result.attempt = seq;
        result.op_indices = {seq};
        result.rows = {{seq % kLargeEvery == 0
                            ? std::string(kLargeBytes, 'a' + sender)
                            : std::to_string(seq)}};
        pair->dialer->send(Message{1, 0, std::move(result)});
      }
    });
  }

  std::vector<std::uint32_t> next(kSenders, 0);
  std::uint32_t received = 0;
  bool in_order = true;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (received < kSenders * kPerSender &&
         std::chrono::steady_clock::now() < deadline) {
    auto message = pair->listener_box->pop(1s);
    if (!message.has_value()) continue;
    const auto& result = std::get<OperationResult>(message->payload);
    if (result.txn >= kSenders) {
      ADD_FAILURE() << "unknown sender " << result.txn;
      continue;
    }
    const std::uint32_t sender = static_cast<std::uint32_t>(result.txn);
    in_order &= result.attempt == next[sender];
    next[sender] = result.attempt + 1;
    const std::string& row = result.rows.at(0).at(0);
    if (result.attempt % kLargeEvery == 0) {
      EXPECT_TRUE(row == std::string(kLargeBytes, 'a' + sender))
          << "large frame of sender " << sender << " arrived with "
          << row.size() << " bytes";
    } else {
      EXPECT_EQ(row, std::to_string(result.attempt));
    }
    ++received;
  }
  for (std::thread& thread : senders) thread.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(received, kSenders * kPerSender);
  for (std::uint32_t sender = 0; sender < kSenders; ++sender) {
    EXPECT_EQ(next[sender], kPerSender) << "sender " << sender;
  }
  EXPECT_EQ(pair->dialer->stats().messages_dropped, 0u);
}

TEST(TcpNetworkTest, LocalSendsBypassTheWire) {
  REQUIRE_LOOPBACK();
  TcpOptions options;
  options.listen = "127.0.0.1:0";
  TcpNetwork network(0, options);
  Mailbox& box = network.register_site(0);
  ASSERT_TRUE(static_cast<bool>(network.start()));
  network.send(Message{0, 0, WakeTxn{33}});
  auto got = box.pop(1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<WakeTxn>(got->payload).txn, 33u);
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_GT(network.stats().bytes_sent, 0u);  // codec-sized accounting
}

// Both TCP endpoints resolve addresses through resolve_hostport: a bad
// address is the caller's error, a refused connect the server's absence.
TEST(TcpAddressTest, MalformedOrUnresolvableAddressIsInvalidArgument) {
  // Numeric hosts only: nothing here may reach a resolver.
  for (const char* address : {"127.0.0.1", "127.0.0.1:", "127.0.0.1:http"}) {
    EXPECT_EQ(resolve_hostport(address).status().code(),
              util::Code::kInvalidArgument)
        << address;
    client::RemoteSession session;
    EXPECT_EQ(session.connect(address, 1000ms).code(),
              util::Code::kInvalidArgument)
        << address;
  }
  TcpOptions options;
  options.listen = "no-port-here";
  TcpNetwork network(0, options);
  EXPECT_EQ(network.start().code(), util::Code::kInvalidArgument);
}

TEST(TcpAddressTest, RefusedConnectIsUnavailable) {
  REQUIRE_LOOPBACK();
  // A bound socket that never listens: its port refuses connections.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string address =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
  const util::Result<sockaddr_in> resolved = resolve_hostport(address);
  ASSERT_TRUE(resolved.is_ok()) << resolved.status().to_string();
  EXPECT_EQ(resolved.value().sin_port, addr.sin_port);
  client::RemoteSession session;
  EXPECT_EQ(session.connect(address, 1000ms).code(), util::Code::kUnavailable);
  ::close(fd);
}

}  // namespace
}  // namespace dtx::net
