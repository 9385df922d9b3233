#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <thread>
#include <variant>

#include "net/codec.hpp"
#include "net/sim_network.hpp"
#include "txn/operation.hpp"
#include "util/hash.hpp"

namespace dtx::net {
namespace {

using namespace std::chrono_literals;

Message make_message(SiteId from, SiteId to, TxnId txn) {
  return Message{from, to, WakeTxn{txn}};
}

TEST(MailboxTest, PushPopImmediate) {
  Mailbox mailbox;
  mailbox.push(make_message(0, 1, 42), Mailbox::Clock::now());
  auto message = mailbox.pop(10ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 42u);
}

TEST(MailboxTest, PopTimesOutWhenEmpty) {
  Mailbox mailbox;
  const auto start = Mailbox::Clock::now();
  EXPECT_FALSE(mailbox.pop(20ms).has_value());
  EXPECT_GE(Mailbox::Clock::now() - start, 18ms);
}

TEST(MailboxTest, DelayedDeliveryWaitsUntilDue) {
  Mailbox mailbox;
  const auto now = Mailbox::Clock::now();
  mailbox.push(make_message(0, 1, 1), now + 30ms);
  EXPECT_FALSE(mailbox.pop(5ms).has_value());  // not due yet
  auto message = mailbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_GE(Mailbox::Clock::now() - now, 28ms);
}

TEST(MailboxTest, EarlierMessageOvertakesLater) {
  Mailbox mailbox;
  const auto now = Mailbox::Clock::now();
  mailbox.push(make_message(0, 1, 2), now + 50ms);
  mailbox.push(make_message(0, 1, 1), now);  // due immediately
  auto first = mailbox.pop(10ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::get<WakeTxn>(first->payload).txn, 1u);
}

TEST(MailboxTest, FifoForEqualDeliveryTimes) {
  Mailbox mailbox;
  const auto now = Mailbox::Clock::now();
  for (TxnId i = 1; i <= 5; ++i) mailbox.push(make_message(0, 1, i), now);
  for (TxnId i = 1; i <= 5; ++i) {
    auto message = mailbox.pop(10ms);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, i);
  }
}

TEST(MailboxTest, InterruptWakesBlockedPop) {
  Mailbox mailbox;
  std::thread interrupter([&] {
    std::this_thread::sleep_for(10ms);
    mailbox.interrupt();
  });
  const auto start = Mailbox::Clock::now();
  EXPECT_FALSE(mailbox.pop(5000ms).has_value());
  EXPECT_LT(Mailbox::Clock::now() - start, 1000ms);
  interrupter.join();
}

TEST(SimNetworkTest, DeliversBetweenSites) {
  SimNetwork network({std::chrono::microseconds(100), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.send(make_message(0, 1, 7));
  auto message = inbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->from, 0u);
  EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 7u);
}

TEST(SimNetworkTest, LatencyIsApplied) {
  NetworkOptions options;
  options.latency = std::chrono::microseconds(30'000);
  options.bandwidth_bytes_per_sec = 0;
  SimNetwork network(options);
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  const auto start = Mailbox::Clock::now();
  network.send(make_message(0, 1, 1));
  auto message = inbox.pop(500ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_GE(Mailbox::Clock::now() - start, 28ms);
}

TEST(SimNetworkTest, PerLinkFifoUnderBandwidthModel) {
  NetworkOptions options;
  options.latency = std::chrono::microseconds(100);
  options.bandwidth_bytes_per_sec = 1'000'000;
  SimNetwork network(options);
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  // Large then small: without per-link serialization the small message
  // would overtake the large one.
  ExecuteOperation big;
  big.txn = 1;
  big.op_indices = {0};
  big.ops = {txn::make_update(
      "d", xupdate::make_insert("/a", "<x>" + std::string(5000, 'y') + "</x>")
               .value())};
  network.send(Message{0, 1, big});
  network.send(make_message(0, 1, 2));
  auto first = inbox.pop(500ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::holds_alternative<ExecuteOperation>(first->payload));
  auto second = inbox.pop(500ms);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(std::holds_alternative<WakeTxn>(second->payload));
}

TEST(SimNetworkTest, StatsCountMessagesAndBytes) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  network.register_site(1);
  network.send(make_message(0, 1, 1));
  network.send(make_message(1, 0, 2));
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.messages_dropped, 0u);
}

// --- fault plan -------------------------------------------------------------

TEST(FaultPlanTest, MessageFilterDropsMatching) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.faults([](FaultPlan& plan) {
    plan.set_message_filter([](const Message& message) {
      return std::holds_alternative<AbortRequest>(message.payload);
    });
  });
  network.send(Message{0, 1, AbortRequest{5}});
  network.send(make_message(0, 1, 6));
  auto message = inbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_TRUE(std::holds_alternative<WakeTxn>(message->payload));
  EXPECT_EQ(network.stats().messages_dropped, 1u);
  EXPECT_EQ(network.fault_stats().dropped_by_filter, 1u);
  network.faults([](FaultPlan& plan) { plan.set_message_filter(nullptr); });
  network.send(Message{0, 1, AbortRequest{7}});
  EXPECT_TRUE(inbox.pop(100ms).has_value());
}

TEST(FaultPlanTest, DropProbabilityOneDropsEverythingOnThatLinkOnly) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox1 = network.register_site(1);
  Mailbox& inbox2 = network.register_site(2);
  network.faults([](FaultPlan& plan) {
    plan.set_link_fault(0, 1, {.drop_probability = 1.0});
  });
  for (TxnId i = 0; i < 5; ++i) network.send(make_message(0, 1, i));
  network.send(make_message(0, 2, 9));
  EXPECT_FALSE(inbox1.pop(20ms).has_value());
  EXPECT_TRUE(inbox2.pop(100ms).has_value());  // other links unaffected
  EXPECT_EQ(network.fault_stats().dropped_by_fault, 5u);
}

TEST(FaultPlanTest, PartitionCutsBothDirectionsThenHeals) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  Mailbox& inbox0 = network.register_site(0);
  Mailbox& inbox1 = network.register_site(1);
  network.partition_for(0, 1, std::chrono::microseconds(60'000'000));
  network.send(make_message(0, 1, 1));
  network.send(make_message(1, 0, 2));
  EXPECT_FALSE(inbox1.pop(20ms).has_value());
  EXPECT_FALSE(inbox0.pop(20ms).has_value());
  EXPECT_EQ(network.fault_stats().dropped_by_partition, 2u);
  network.heal();
  network.send(make_message(0, 1, 3));
  network.send(make_message(1, 0, 4));
  auto to1 = inbox1.pop(100ms);
  auto to0 = inbox0.pop(100ms);
  ASSERT_TRUE(to1.has_value());
  ASSERT_TRUE(to0.has_value());
  EXPECT_EQ(std::get<WakeTxn>(to1->payload).txn, 3u);
  EXPECT_EQ(std::get<WakeTxn>(to0->payload).txn, 4u);
}

TEST(FaultPlanTest, TimedPartitionExpiresOnItsOwn) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.partition_for(0, 1, std::chrono::microseconds(30'000));
  network.send(make_message(0, 1, 1));  // inside the window: dropped
  std::this_thread::sleep_for(60ms);
  network.send(make_message(0, 1, 2));  // expired: delivered
  auto message = inbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 2u);
}

TEST(FaultPlanTest, FifoPreservedAcrossPartitionHeal) {
  // A message stamped with extra delay before the partition must not be
  // overtaken by one sent after the heal: delivery times stay monotone
  // per link even as the fault plan changes.
  NetworkOptions options;
  options.latency = std::chrono::microseconds(100);
  options.bandwidth_bytes_per_sec = 0;
  SimNetwork network(options);
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.faults([](FaultPlan& plan) {
    plan.set_link_fault(0, 1, {.extra_delay = std::chrono::microseconds(40'000)});
  });
  network.send(make_message(0, 1, 1));  // due in ~40ms
  network.faults([](FaultPlan& plan) { plan.clear_link_faults(); });
  network.send(make_message(0, 1, 2));  // no extra delay — must NOT overtake
  auto first = inbox.pop(200ms);
  auto second = inbox.pop(200ms);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<WakeTxn>(first->payload).txn, 1u);
  EXPECT_EQ(std::get<WakeTxn>(second->payload).txn, 2u);
}

TEST(FaultPlanTest, DuplicateDeliversTwiceBackToBack) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.faults([](FaultPlan& plan) {
    plan.set_link_fault(0, 1, {.duplicate_probability = 1.0});
  });
  network.send(Message{0, 1, CommitAck{7, true}});
  network.send(make_message(0, 1, 8));
  // Original + duplicate arrive adjacently; per-link order is preserved.
  for (int copy = 0; copy < 2; ++copy) {
    auto message = inbox.pop(100ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_TRUE(std::holds_alternative<CommitAck>(message->payload));
    EXPECT_EQ(std::get<CommitAck>(message->payload).txn, 7u);
  }
  for (int copy = 0; copy < 2; ++copy) {
    auto message = inbox.pop(100ms);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 8u);
  }
  EXPECT_EQ(network.fault_stats().duplicated, 2u);
}

TEST(FaultPlanTest, DownSiteDropsInboundUntilUp) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);
  network.set_site_down(1, true);
  EXPECT_TRUE(network.site_down(1));
  network.send(make_message(0, 1, 1));
  EXPECT_FALSE(inbox.pop(20ms).has_value());
  EXPECT_EQ(network.fault_stats().dropped_down_site, 1u);
  // Outbound from a down site drops too (a dead process has no sockets).
  network.send(make_message(1, 0, 3));
  EXPECT_EQ(network.fault_stats().dropped_down_site, 2u);
  network.set_site_down(1, false);
  network.send(make_message(0, 1, 2));
  auto message = inbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 2u);
}

TEST(MailboxTest, ResetClearsQueueAndInterruptFlag) {
  Mailbox mailbox;
  mailbox.push(make_message(0, 1, 1), Mailbox::Clock::now());
  mailbox.interrupt();
  mailbox.reset();
  EXPECT_EQ(mailbox.pending(), 0u);
  // No longer interrupted: a fresh push is poppable again.
  mailbox.push(make_message(0, 1, 2), Mailbox::Clock::now());
  auto message = mailbox.pop(100ms);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(std::get<WakeTxn>(message->payload).txn, 2u);
}

TEST(SimNetworkTest, SitesListed) {
  SimNetwork network;
  network.register_site(2);
  network.register_site(0);
  network.register_site(1);
  EXPECT_EQ(network.sites(), (std::vector<SiteId>{0, 1, 2}));
}


TEST(SimNetworkTest, ConcurrentSendersAllDelivered) {
  SimNetwork network({std::chrono::microseconds(10), 0});
  for (SiteId site = 0; site < 4; ++site) network.register_site(site);
  Mailbox& inbox = network.register_site(9);

  constexpr int kPerSender = 200;
  std::vector<std::thread> senders;
  for (SiteId from = 0; from < 4; ++from) {
    senders.emplace_back([&network, from] {
      for (int i = 0; i < kPerSender; ++i) {
        network.send(Message{from, 9, WakeTxn{from * 1000 + static_cast<TxnId>(i)}});
      }
    });
  }
  for (auto& sender : senders) sender.join();

  // Drain: every message arrives exactly once, per-sender FIFO preserved.
  std::map<SiteId, TxnId> last_seen;
  int received = 0;
  while (received < 4 * kPerSender) {
    auto message = inbox.pop(500ms);
    ASSERT_TRUE(message.has_value()) << "lost messages after " << received;
    const TxnId id = std::get<WakeTxn>(message->payload).txn;
    const auto it = last_seen.find(message->from);
    if (it != last_seen.end()) {
      EXPECT_LT(it->second, id) << "per-link FIFO violated";
    }
    last_seen[message->from] = id;
    ++received;
  }
  EXPECT_EQ(network.stats().messages_sent, 4u * kPerSender);
}

TEST(MailboxTest, ManyProducersOneConsumer) {
  Mailbox mailbox;
  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 100; ++i) {
        mailbox.push(Message{static_cast<SiteId>(p), 0,
                             WakeTxn{static_cast<TxnId>(i)}},
                     Mailbox::Clock::now());
        ++produced;
      }
    });
  }
  int consumed = 0;
  while (consumed < 800) {
    if (mailbox.pop(100ms).has_value()) ++consumed;
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(consumed, 800);
  EXPECT_EQ(mailbox.pending(), 0u);
}

TEST(MessageTest, PayloadNames) {
  EXPECT_STREQ(payload_name(Payload{ExecuteOperation{}}), "execute");
  EXPECT_STREQ(payload_name(Payload{OperationResult{}}), "result");
  EXPECT_STREQ(payload_name(Payload{CommitRequest{}}), "commit");
  EXPECT_STREQ(payload_name(Payload{AbortRequest{}}), "abort");
  EXPECT_STREQ(payload_name(Payload{WfgRequest{}}), "wfg-request");
  EXPECT_STREQ(payload_name(Payload{VictimAbort{}}), "victim-abort");
  EXPECT_STREQ(payload_name(Payload{WakeTxn{}}), "wake");
  EXPECT_STREQ(payload_name(Payload{TxnStatusRequest{}}),
               "txn-status-request");
  EXPECT_STREQ(payload_name(Payload{TxnStatusReply{}}), "txn-status-reply");
  EXPECT_STREQ(txn_outcome_name(TxnOutcome::kCommitted), "committed");
  EXPECT_STREQ(txn_outcome_name(TxnOutcome::kUnknown), "unknown");
}

TEST(MessageTest, WireSizeGrowsWithPayload) {
  ExecuteOperation small;
  small.op_indices = {0};
  small.ops = {txn::parse_operation("query d /a").value()};
  ExecuteOperation large;
  large.op_indices = {0};
  large.ops = {txn::make_update(
      "d",
      xupdate::make_insert("/a", "<x>" + std::string(1000, 'q') + "</x>")
          .value())};
  EXPECT_GT(payload_wire_size(Payload{large}),
            payload_wire_size(Payload{small}));
  // Longer paths cost more than shorter ones.
  ExecuteOperation deep;
  deep.op_indices = {0};
  deep.ops = {
      txn::parse_operation("query d /a/b/c[@id='42']/d//e/text()").value()};
  EXPECT_GT(payload_wire_size(Payload{deep}),
            payload_wire_size(Payload{small}));
  // A two-op slice costs more than either op alone.
  ExecuteOperation both = small;
  both.op_indices.push_back(1);
  both.ops.push_back(deep.ops[0]);
  EXPECT_GT(payload_wire_size(Payload{both}),
            payload_wire_size(Payload{deep}));
}

// The wire payload is the typed operation itself: what the coordinator
// sends is exactly what the participant receives — no textual round trip,
// and no node ids anywhere in the payload (label paths + literals only).
TEST(MessageTest, TypedExecuteOperationRoundTripsThroughNetwork) {
  SimNetwork network({std::chrono::microseconds(1), 0});
  network.register_site(0);
  Mailbox& inbox = network.register_site(1);

  const char* kText =
      "update d1 insert into /site/people ::= <person id=\"p9\"/>";
  ExecuteOperation request;
  request.txn = 42;
  request.attempt = 2;
  request.coordinator = 0;
  request.op_indices = {3};
  request.ops = {txn::parse_operation(kText).value()};
  network.send(Message{0, 1, request});

  auto message = inbox.pop(std::chrono::milliseconds(100));
  ASSERT_TRUE(message.has_value());
  ASSERT_TRUE(std::holds_alternative<ExecuteOperation>(message->payload));
  const auto& received = std::get<ExecuteOperation>(message->payload);
  EXPECT_EQ(received.txn, 42u);
  EXPECT_EQ(received.op_indices, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(received.attempt, 2u);
  ASSERT_EQ(received.ops.size(), 1u);
  EXPECT_EQ(received.ops[0].doc, "d1");
  EXPECT_TRUE(received.ops[0].is_update());
  EXPECT_EQ(received.ops[0].update.kind, xupdate::UpdateKind::kInsert);
  EXPECT_EQ(received.ops[0].to_string(), kText);
}

// --- binary codec ------------------------------------------------------------

/// A three-op slice: an update, a query and a second update of another
/// document, at non-contiguous transaction positions.
ExecuteOperation multi_op_slice() {
  ExecuteOperation exec;
  exec.txn = 0xffff'ffff'ffff'fffeull;
  exec.attempt = 9;
  exec.coordinator = 2;
  exec.epoch = 0xdead'beefull;
  exec.op_indices = {1, 3, 4};
  exec.ops = {
      txn::parse_operation(
          "update d1 insert into /site/people ::= <person id=\"p9\"/>")
          .value(),
      txn::parse_operation("query d1 /site/people/person/@id").value(),
      txn::parse_operation("update d2 remove /site/a").value()};
  return exec;
}

/// The reply to a slice that executed two ops and failed on the third.
OperationResult multi_op_result() {
  OperationResult result;
  result.txn = 42;
  result.attempt = 9;
  result.op_indices = {1, 3};
  result.rows = {{}, {"", "two", std::string(300, 'x')}};
  result.failed = true;
  result.reason = txn::AbortReason::kUnprocessableUpdate;
  result.error = "boom";
  return result;
}

/// Recomputes a frame's FNV-1a 64 body checksum after a test edited the
/// body in place, so only the edit is at fault.
std::string reseal(std::string frame) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 16; i < frame.size(); ++i) {  // header is 16 bytes
    hash ^= static_cast<unsigned char>(frame[i]);
    hash *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    frame[8 + i] = static_cast<char>((hash >> (8 * i)) & 0xff);
  }
  return frame;
}

/// Overwrites the little-endian u32 at `offset` of a frame and reseals it.
std::string with_u32(std::string frame, std::size_t offset,
                     std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    frame[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return reseal(std::move(frame));
}

// One exemplar per payload variant, with edge-case fields exercised:
// empty strings and vectors, huge ids, doubles, multi-row results.
std::vector<Message> codec_corpus() {
  std::vector<Message> corpus;
  auto add = [&corpus](Payload payload) {
    corpus.push_back(Message{7, 12, std::move(payload)});
  };

  add(multi_op_slice());
  add(multi_op_result());
  add(OperationResult{});  // all defaults / empty vectors

  add(UndoOperation{42, 7, 3});
  add(CommitRequest{9000});
  add(CommitAck{9000, true});
  add(AbortRequest{1});
  add(AbortAck{1, false});
  add(FailNotice{77});

  add(WfgRequest{123456789, 3});
  WfgReply wfg_reply;
  wfg_reply.probe = 5;
  wfg_reply.edges = {{1, 2}, {2, 3}, {0xffffffffull, 1}};
  add(wfg_reply);
  add(WfgReply{});

  add(VictimAbort{13});
  add(WakeTxn{14});
  add(TxnStatusRequest{15, 2});
  add(TxnStatusReply{15, TxnOutcome::kCommitted});

  SnapshotReadRequest snap_req;
  snap_req.txn = 16;
  snap_req.coordinator = 1;
  snap_req.epoch = 7;
  snap_req.op_indices = {0, 2};
  snap_req.ops = {txn::parse_operation("query d1 /a/b").value(),
                  txn::parse_operation("query d2 //c[@k='v']").value()};
  add(snap_req);
  SnapshotReadReply snap_reply;
  snap_reply.txn = 16;
  snap_reply.ok = true;
  snap_reply.op_indices = {0, 2};
  snap_reply.rows = {{"r1", "r2"}, {}};
  add(snap_reply);

  add(Hello{kClientIdBase + 5, codec::kProtocolVersion});

  ClientSubmit submit;
  submit.seq = 99;
  submit.ops = {txn::parse_operation("query d1 /a").value(),
                txn::parse_operation("update d1 remove /a/b").value()};
  add(submit);

  ClientReply reply;
  reply.seq = 99;
  reply.accepted = true;
  reply.txn = 4242;
  reply.state = 2;
  reply.reason = 1;
  reply.deadlock_victim = true;
  reply.wait_episodes = 3;
  reply.response_ms = 12.75;
  reply.detail = "deadlock victim";
  reply.rows = {{"a"}, {"b", ""}};
  add(reply);

  add(RecoveryPullRequest{"d1", 2});
  RecoveryPullReply pull;
  pull.doc = "d1";
  pull.ok = true;
  pull.version = 31;
  pull.snapshot = std::string("<site>\x01\x02\xff binary-ish</site>", 28);
  pull.log = "v=1 t=5 n=1\nupdate d1 delete /a\n";
  add(pull);

  // Placement & membership (PR 8).
  add(CatalogUpdate{9, "epoch 9\nmembers 0 1\nplace d1 0 1\n", 0});
  add(CatalogUpdate{});  // empty catalog text
  add(CatalogAck{9, 1});
  add(JoinRequest{3, "127.0.0.1:7103"});
  add(JoinRequest{3, ""});  // decommission order / catalog fetch
  add(JoinReply{true, 10, "epoch 10\nmembers 0 1 3\n", ""});
  add(JoinReply{false, 0, "", "another membership change is in flight"});
  MigrateDoc migrate;
  migrate.doc = "d1";
  migrate.epoch = 10;
  migrate.version = 77;
  migrate.snapshot = std::string("<a>\x00\x7f</a>", 10);
  migrate.log = "v=77 t=9 n=1\nupdate d1 remove /a/b\n";
  add(migrate);
  add(MigrateAck{"d1", 3, true, 77});
  add(DropDoc{"d1", 10});

  return corpus;
}

TEST(CodecTest, TagNamesCoverEveryPayload) {
  // The sibling of the corpus-coverage check: a HUMAN-maintained name per
  // wire tag, asserted against the codec's tag count. Adding a payload
  // without deciding its (stable) tag name fails here; renaming or
  // reordering an existing one fails below.
  static const char* const kTagNames[] = {
      "execute",        "result",          "undo-op",
      "commit",         "commit-ack",      "abort",
      "abort-ack",      "fail",            "wfg-request",
      "wfg-reply",      "victim-abort",    "wake",
      "txn-status-request", "txn-status-reply", "snapshot-read",
      "snapshot-reply", "hello",           "client-submit",
      "client-reply",   "recovery-pull",   "recovery-pull-reply",
      "catalog-update", "catalog-ack",     "join-request",
      "join-reply",     "migrate-doc",     "migrate-ack",
      "drop-doc",
  };
  ASSERT_EQ(std::size(kTagNames), codec::kPayloadTagCount);
  // Order: each corpus exemplar's variant index must name-match the list
  // (payload_name is the runtime source of truth).
  for (const Message& message : codec_corpus()) {
    EXPECT_STREQ(payload_name(message.payload),
                 kTagNames[message.payload.index()])
        << "variant index " << message.payload.index();
  }
}

TEST(CodecTest, EveryPayloadVariantRoundTripsByteExactly) {
  // The corpus must cover the whole variant (futureproofing: extending
  // Payload without extending the corpus fails here).
  std::set<std::size_t> covered;
  for (const Message& message : codec_corpus()) {
    covered.insert(message.payload.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<Payload>);

  for (const Message& message : codec_corpus()) {
    const std::string frame = codec::encode(message);
    auto decoded = codec::decode(frame);
    ASSERT_TRUE(decoded.is_ok()) << payload_name(message.payload) << ": "
                              << decoded.status().to_string();
    EXPECT_EQ(decoded.value().from, message.from);
    EXPECT_EQ(decoded.value().to, message.to);
    EXPECT_EQ(decoded.value().payload.index(), message.payload.index());
    // Byte-exact: re-encoding the decoded message reproduces the frame.
    EXPECT_EQ(codec::encode(decoded.value()), frame)
        << payload_name(message.payload);
  }
}

TEST(CodecTest, CorpusFramesMatchRecordedBytes) {
  // The wire contract, pinned: FNV-1a 64 of every corpus frame, in corpus
  // order and keyed by payload name. The round-trip tests above pass for
  // any symmetric change (a field moved on both sides, the variant
  // reordered); these hashes only match the bytes they were recorded
  // from. A deliberate wire change re-records them and bumps
  // codec::kProtocolVersion (which Hello carries, so its hash moves too).
  static const std::pair<const char*, std::uint64_t> kRecorded[] = {
      {"execute", 0x924cf848dbf7669cull},
      {"result", 0x4c9b05c40c4e7abcull},
      {"result", 0x1e280a203888cbecull},
      {"undo-op", 0xc255b0eb7856f68dull},
      {"commit", 0x8a614e25bdcfbf75ull},
      {"commit-ack", 0x57e03bbc7bac5aedull},
      {"abort", 0x83bcac6dfe6bc601ull},
      {"abort-ack", 0xabf07886b1f40bc8ull},
      {"fail", 0x441a266fc057fd28ull},
      {"wfg-request", 0x2506201f342451f1ull},
      {"wfg-reply", 0xc6a2b5e0d6a83e96ull},
      {"wfg-reply", 0x70eaaecea5d5cdc9ull},
      {"victim-abort", 0xb8c64e8d8dc615c1ull},
      {"wake", 0x5158e56b74fc2367ull},
      {"txn-status-request", 0xb0e76dcb4b984977ull},
      {"txn-status-reply", 0x0898660df013eb5full},
      {"snapshot-read", 0x5ec3fc427e14d67aull},
      {"snapshot-reply", 0xcce0abd51df6952full},
      {"hello", 0x1a9eb3737eed8da1ull},
      {"client-submit", 0x2bb2ead855324172ull},
      {"client-reply", 0x3a11ae9887e43dffull},
      {"recovery-pull", 0x2532e599f68cd66dull},
      {"recovery-pull-reply", 0xf9e12edac5a5e9fbull},
      {"catalog-update", 0xb59ac0f8264ca45eull},
      {"catalog-update", 0x5fdd931a127a87abull},
      {"catalog-ack", 0x7f0970087b60d9b3ull},
      {"join-request", 0x4d18fc7455239131ull},
      {"join-request", 0x6a7542d75f1b9277ull},
      {"join-reply", 0x923efeb052c303c5ull},
      {"join-reply", 0xcb38a23845a6c04cull},
      {"migrate-doc", 0xea068fc1de9700b2ull},
      {"migrate-ack", 0x1d4c82192f509343ull},
      {"drop-doc", 0x8998f839462852eaull},
  };
  const std::vector<Message> corpus = codec_corpus();
  ASSERT_EQ(std::size(kRecorded), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const char* name = payload_name(corpus[i].payload);
    EXPECT_STREQ(name, kRecorded[i].first) << "corpus entry " << i;
    const std::uint64_t hash = util::fnv1a64(codec::encode(corpus[i]));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016llxull",
                  static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, kRecorded[i].second) << name << " frame hashes to " << hex;
  }
}

TEST(CodecTest, DecodedFieldsMatch) {
  ClientReply reply;
  reply.seq = 7;
  reply.accepted = true;
  reply.txn = 99;
  reply.state = 3;
  reply.reason = 2;
  reply.wait_episodes = 11;
  reply.response_ms = 0.125;
  reply.detail = "d";
  reply.rows = {{"x", "y"}};
  auto decoded = codec::decode(codec::encode(Message{1, 2, reply}));
  ASSERT_TRUE(decoded.is_ok());
  const auto& got = std::get<ClientReply>(decoded.value().payload);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_TRUE(got.accepted);
  EXPECT_EQ(got.txn, 99u);
  EXPECT_EQ(got.state, 3);
  EXPECT_EQ(got.reason, 2);
  EXPECT_EQ(got.wait_episodes, 11u);
  EXPECT_EQ(got.response_ms, 0.125);
  EXPECT_EQ(got.detail, "d");
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0], (std::vector<std::string>{"x", "y"}));
}

TEST(CodecTest, OperationsSurviveTheTextRoundTrip) {
  const char* kText = "update d2 change /site/a[@id='1']/name ::= Anna";
  ClientSubmit submit;
  submit.seq = 1;
  submit.ops = {txn::parse_operation(kText).value()};
  auto decoded = codec::decode(codec::encode(Message{1, 0, submit}));
  ASSERT_TRUE(decoded.is_ok());
  const auto& got = std::get<ClientSubmit>(decoded.value().payload);
  ASSERT_EQ(got.ops.size(), 1u);
  EXPECT_EQ(got.ops[0].to_string(), kText);
  EXPECT_TRUE(got.ops[0].is_update());
}

TEST(CodecTest, ProtocolVersionIsThree) {
  // v3: one-shot slices in ExecuteOperation / OperationResult.
  EXPECT_EQ(codec::kProtocolVersion, 3u);
}

TEST(CodecTest, MultiOpSliceRoundTripsByteExactly) {
  const ExecuteOperation exec = multi_op_slice();
  const std::string frame = codec::encode(Message{0, 1, exec});
  auto decoded = codec::decode(frame);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(codec::encode(decoded.value()), frame);
  const auto& got = std::get<ExecuteOperation>(decoded.value().payload);
  EXPECT_EQ(got.txn, exec.txn);
  EXPECT_EQ(got.attempt, 9u);
  EXPECT_EQ(got.coordinator, 2u);
  EXPECT_EQ(got.epoch, exec.epoch);
  EXPECT_EQ(got.op_indices, exec.op_indices);
  ASSERT_EQ(got.ops.size(), 3u);
  for (std::size_t i = 0; i < got.ops.size(); ++i) {
    EXPECT_EQ(got.ops[i].to_string(), exec.ops[i].to_string());
  }

  const OperationResult result = multi_op_result();
  const std::string reply_frame = codec::encode(Message{1, 0, result});
  auto reply = codec::decode(reply_frame);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(codec::encode(reply.value()), reply_frame);
  const auto& back = std::get<OperationResult>(reply.value().payload);
  EXPECT_EQ(back.attempt, 9u);
  EXPECT_EQ(back.op_indices, result.op_indices);
  EXPECT_EQ(back.rows, result.rows);
  EXPECT_FALSE(back.lock_conflict);
  EXPECT_TRUE(back.failed);
  EXPECT_EQ(back.reason, txn::AbortReason::kUnprocessableUpdate);
  EXPECT_EQ(back.error, "boom");
}

TEST(CodecTest, SliceItemCountPastTheFrameRejects) {
  // Body: from(4) to(4) tag(1) txn(8) attempt(4) coordinator(4) epoch(8),
  // then the op_indices count — after the 16-byte header.
  constexpr std::size_t kIndexCount = 16 + 4 + 4 + 1 + 8 + 4 + 4 + 8;
  const std::string frame =
      codec::encode(Message{0, 1, multi_op_slice()});
  ASSERT_TRUE(codec::decode(with_u32(frame, kIndexCount, 3)).is_ok());
  EXPECT_FALSE(codec::decode(with_u32(frame, kIndexCount, 1000)).is_ok());
  EXPECT_FALSE(
      codec::decode(with_u32(frame, kIndexCount, 0xffff'ffffu)).is_ok());
  // The op count follows the three indices; counts must also agree.
  constexpr std::size_t kOpCount = kIndexCount + 4 + 3 * 4;
  EXPECT_FALSE(codec::decode(with_u32(frame, kOpCount, 1000)).is_ok());
  EXPECT_FALSE(codec::decode(with_u32(frame, kOpCount, 2)).is_ok());

  // The reply's rows count: txn(8) attempt(4) indices(4 + 2 * 4).
  constexpr std::size_t kRowCount = 16 + 4 + 4 + 1 + 8 + 4 + 4 + 2 * 4;
  const std::string reply = codec::encode(Message{1, 0, multi_op_result()});
  ASSERT_TRUE(codec::decode(with_u32(reply, kRowCount, 2)).is_ok());
  EXPECT_FALSE(codec::decode(with_u32(reply, kRowCount, 1000)).is_ok());
  EXPECT_FALSE(codec::decode(with_u32(reply, kRowCount, 1)).is_ok());
}

TEST(CodecTest, SnapshotReadRequestWithUnequalCountsRejects) {
  SnapshotReadRequest request;
  request.txn = 16;
  request.op_indices = {0, 2};
  request.ops = {txn::parse_operation("query d1 /a/b").value()};
  const auto decoded = codec::decode(codec::encode(Message{0, 1, request}));
  EXPECT_FALSE(decoded.is_ok());
}

TEST(CodecTest, SnapshotReadReplyWithMissingRowsRejects) {
  // The coordinator reads rows[k] for every k < op_indices.size() of an ok
  // reply, so a short one must never get past the codec.
  SnapshotReadReply reply;
  reply.txn = 16;
  reply.ok = true;
  reply.op_indices = {0, 2};
  reply.rows = {{"r1"}};
  const auto decoded = codec::decode(codec::encode(Message{1, 0, reply}));
  EXPECT_FALSE(decoded.is_ok());
}

TEST(CodecTest, SnapshotReadFailureReplyWithoutRowsDecodes) {
  // The membership fences of serve_snapshot_read answer with the request's
  // indices and no rows.
  SnapshotReadReply reply;
  reply.txn = 16;
  reply.reason = txn::AbortReason::kStaleCatalog;
  reply.error = "stale catalog";
  reply.op_indices = {0, 2};
  const std::string frame = codec::encode(Message{1, 0, reply});
  const auto decoded = codec::decode(frame);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto& got = std::get<SnapshotReadReply>(decoded.value().payload);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.op_indices, reply.op_indices);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_EQ(codec::encode(decoded.value()), frame);
}

TEST(CodecTest, TruncationAtEveryLengthRejects) {
  OperationResult result;
  result.txn = 5;
  result.op_indices = {0, 1};
  result.rows = {{"row1"}, {"row2"}};
  result.error = "some error";
  const std::string frame = codec::encode(Message{1, 2, result});
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    auto decoded = codec::decode(std::string_view(frame.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix of length " << cut << " decoded";
  }
}

TEST(CodecTest, EveryFlippedByteRejects) {
  // FNV-64 over the body + validated header: no single-byte corruption
  // anywhere in the frame may pass.
  const std::string frame =
      codec::encode(Message{1, 2, CommitAck{77, true}});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    auto decoded = codec::decode(corrupt);
    EXPECT_FALSE(decoded.is_ok()) << "flip at byte " << i << " decoded";
  }
}

TEST(CodecTest, TrailingBytesReject) {
  std::string frame = codec::encode(Message{1, 2, WakeTxn{3}});
  frame += '\0';
  EXPECT_FALSE(codec::decode(frame).is_ok());
}

TEST(CodecTest, UnknownTagRejects) {
  // Body: from | to | tag | payload. Tag 0 and tags past the variant are
  // both invalid. Rebuild the checksum so only the tag is at fault.
  std::string frame = codec::encode(Message{1, 2, WakeTxn{3}});
  auto with_tag = [&frame](std::uint8_t tag) {
    std::string forged = frame;
    forged[16 + 8] = static_cast<char>(tag);  // header + from + to
    return reseal(std::move(forged));
  };
  EXPECT_FALSE(codec::decode(with_tag(0)).is_ok());
  EXPECT_FALSE(codec::decode(with_tag(29)).is_ok());
  EXPECT_FALSE(codec::decode(with_tag(255)).is_ok());
  // Sanity: the forgery helper preserves valid frames.
  EXPECT_TRUE(codec::decode(with_tag(12)).is_ok());  // WakeTxn's own tag
}

TEST(CodecTest, BadMagicRejects) {
  std::string frame = codec::encode(Message{1, 2, WakeTxn{3}});
  frame[0] = 'X';
  EXPECT_FALSE(codec::decode(frame).is_ok());
}

TEST(CodecTest, OversizedLengthRejects) {
  std::string frame = codec::encode(Message{1, 2, WakeTxn{3}});
  // length field = bytes 4..8; claim something absurd.
  frame[4] = '\xff';
  frame[5] = '\xff';
  frame[6] = '\xff';
  frame[7] = '\x7f';
  EXPECT_FALSE(codec::decode(frame).is_ok());
}

TEST(CodecTest, WireSizeMatchesEncodedFrame) {
  // payload_wire_size counts the bytes without building the frame; it must
  // agree with the encoder for every payload kind.
  std::set<std::size_t> kinds;
  for (const Message& message : codec_corpus()) {
    kinds.insert(message.payload.index());
    EXPECT_EQ(payload_wire_size(message.payload),
              codec::encode(message).size())
        << payload_name(message.payload);
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<Payload>);
}

TEST(FrameReaderTest, ReassemblesFramesFedByteByByte) {
  std::string stream;
  for (const Message& message : codec_corpus()) {
    codec::encode(message, stream);
  }
  codec::FrameReader reader;
  std::vector<Message> got;
  for (char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    while (true) {
      auto next = reader.next();
      ASSERT_TRUE(next.is_ok());
      if (!next.value().has_value()) break;
      got.push_back(std::move(*next.value()));
    }
  }
  const std::vector<Message> expected = codec_corpus();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(codec::encode(got[i]), codec::encode(expected[i])) << i;
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, CorruptFramePoisonsTheReader) {
  std::string stream = codec::encode(Message{1, 2, WakeTxn{3}});
  std::string corrupt = codec::encode(Message{1, 2, WakeTxn{4}});
  corrupt[corrupt.size() - 1] ^= 0x01;  // body corruption
  std::string good = codec::encode(Message{1, 2, WakeTxn{5}});
  codec::FrameReader reader;
  reader.feed(stream + corrupt + good);

  auto first = reader.next();
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value().has_value());

  EXPECT_FALSE(reader.next().is_ok());
  EXPECT_TRUE(reader.poisoned());
  // Poison is sticky — the good frame after the corrupt one is
  // unreachable (framing is lost; the connection must drop).
  EXPECT_FALSE(reader.next().is_ok());
}

TEST(FrameReaderTest, GarbagePrefixPoisonsImmediately) {
  codec::FrameReader reader;
  reader.feed("this is not a DTX frame at all............");
  EXPECT_FALSE(reader.next().is_ok());
  EXPECT_TRUE(reader.poisoned());
}

}  // namespace
}  // namespace dtx::net
