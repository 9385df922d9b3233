// Message vocabulary between DTX schedulers. In the paper the instances talk
// over a LAN; here the same conversations run over net::SimNetwork (see
// DESIGN.md §2 for the substitution rationale). Operations travel as a
// *typed* structure (txn::Operation: document name + parsed XPath / update
// AST) and are re-evaluated at each participant — the receiving site
// resolves the operation through its plan cache instead of re-parsing text.
// Node ids still never cross the wire (the payload is label paths and
// literals only), which is what lets replicas keep independent id spaces.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "lock/lock_table.hpp"
#include "txn/abort_reason.hpp"
#include "txn/operation.hpp"
#include "wfg/wait_for_graph.hpp"

namespace dtx::net {

using SiteId = std::uint32_t;
using lock::TxnId;

/// Coordinator -> participant: execute one operation of a distributed
/// transaction (Alg. 1 l. 13).
struct ExecuteOperation {
  TxnId txn = 0;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 0;  ///< retry counter (wait mode re-execution)
  SiteId coordinator = 0;
  /// Catalog epoch the coordinator routed under; a participant on a
  /// different epoch rejects with the retryable AbortReason::kStaleCatalog.
  std::uint64_t epoch = 0;
  /// Typed operation payload (target document + parsed query / update).
  /// Contains no node ids — only label paths and literals.
  txn::Operation op;
};

/// Participant -> coordinator: outcome of a remote operation (Alg. 2 l. 13).
struct OperationResult {
  TxnId txn = 0;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 0;
  bool executed = false;
  bool lock_conflict = false;  ///< set_adquire_locking(false) in the paper
  bool failed = false;
  bool deadlock = false;       ///< local cycle detected while locking
  std::vector<std::string> rows;  ///< query results (string values)
  /// Failure taxonomy + detail when `failed` — lets the coordinator report
  /// a typed abort reason to the client instead of a generic string.
  txn::AbortReason reason = txn::AbortReason::kNone;
  std::string error;
};

/// Coordinator -> participant: undo one operation's effects (Alg. 1 l. 16 —
/// the operation failed to lock elsewhere, so sites that executed it must
/// roll it back while the transaction waits).
struct UndoOperation {
  TxnId txn = 0;
  std::uint32_t op_index = 0;
};

/// Coordinator -> participant: consolidate the transaction (Alg. 5 l. 4).
struct CommitRequest {
  TxnId txn = 0;
};

struct CommitAck {
  TxnId txn = 0;
  bool ok = false;
};

/// Coordinator -> participant: cancel the transaction (Alg. 6 l. 4).
struct AbortRequest {
  TxnId txn = 0;
};

struct AbortAck {
  TxnId txn = 0;
  bool ok = false;
};

/// Coordinator -> participant: the abort itself failed somewhere; mark the
/// transaction failed (Alg. 6 l. 7).
struct FailNotice {
  TxnId txn = 0;
};

/// Detector -> site: send me your wait-for graph (Alg. 4 l. 4).
struct WfgRequest {
  std::uint64_t probe = 0;
  SiteId requester = 0;
};

struct WfgReply {
  std::uint64_t probe = 0;
  std::vector<wfg::Edge> edges;
};

/// Detector -> victim's coordinator: abort this transaction (Alg. 4 l. 8).
struct VictimAbort {
  TxnId txn = 0;
};

/// Participant -> coordinator: a transaction your waiter was blocked on has
/// released its locks; retry (paper §2.2: "those that entered wait mode ...
/// start executing again").
struct WakeTxn {
  TxnId txn = 0;
};

/// Coordinator-known outcome of a transaction, as answered to a status
/// query. kUnknown means the coordinator has no record — either it never
/// saw the transaction or it crashed and lost its state; under presumed
/// abort the querier treats kUnknown as aborted.
enum class TxnOutcome : std::uint8_t {
  kUnknown = 0,
  kActive,     ///< still running at the coordinator
  kCommitted,
  kAborted,    ///< aborted or failed
};

const char* txn_outcome_name(TxnOutcome outcome) noexcept;

/// Participant -> coordinator: presumed-abort recovery probe. Sent when a
/// transaction holding locks here has gone silent past the orphan timeout —
/// its coordinator may have crashed or be partitioned away.
struct TxnStatusRequest {
  TxnId txn = 0;
  SiteId requester = 0;
};

/// Coordinator -> participant: the outcome from the live transaction table
/// or the recent-outcome cache (kUnknown after a coordinator restart).
struct TxnStatusReply {
  TxnId txn = 0;
  TxnOutcome outcome = TxnOutcome::kUnknown;
};

/// Coordinator -> serving site: evaluate a read-only transaction's queries
/// against that site's versioned snapshots (the MVCC read path — zero
/// locks, no 2PC; dtx/snapshot_store.hpp). One request carries every
/// operation the site serves for the transaction; the site captures one
/// consistent cut over their documents and answers with one reply.
struct SnapshotReadRequest {
  TxnId txn = 0;
  SiteId coordinator = 0;
  std::uint64_t epoch = 0;  ///< routing epoch (see ExecuteOperation::epoch)
  std::vector<std::uint32_t> op_indices;  ///< positions in the transaction
  std::vector<txn::Operation> ops;        ///< parallel to op_indices
};

/// Serving site -> coordinator: the snapshot-read rows (parallel to the
/// request's op_indices), or a typed failure.
struct SnapshotReadReply {
  TxnId txn = 0;
  bool ok = false;
  txn::AbortReason reason = txn::AbortReason::kNone;
  std::string error;
  std::vector<std::uint32_t> op_indices;
  std::vector<std::vector<std::string>> rows;
};

/// Transport handshake: the first frame on every TCP connection, in both
/// directions, identifying the sender endpoint (a site id, or a client id
/// at/above kClientIdBase — see net/network.hpp). TcpNetwork consumes it
/// internally to bind the connection to its peer; it never reaches a
/// mailbox. SimNetwork endpoints are pre-registered, so it is never sent
/// there.
struct Hello {
  SiteId id = 0;
  std::uint32_t protocol = 0;  ///< codec::kProtocolVersion of the sender
};

/// Remote client -> site (the Listener, paper Fig. 1): submit one
/// transaction for coordination. `seq` is the client's correlation id;
/// operations arrive typed, exactly like Cluster::submit.
struct ClientSubmit {
  std::uint64_t seq = 0;
  std::vector<txn::Operation> ops;
};

/// Site -> remote client: the terminal result of a submitted transaction
/// (a flattened txn::TxnResult — `state` and `reason` carry the
/// txn::TxnState / txn::AbortReason values as bytes; TxnResult itself
/// lives above the wire layer).
struct ClientReply {
  std::uint64_t seq = 0;
  bool accepted = false;  ///< false: rejected at submission (see detail)
  TxnId txn = 0;
  std::uint8_t state = 0;   ///< txn::TxnState
  std::uint8_t reason = 0;  ///< txn::AbortReason
  bool deadlock_victim = false;
  std::uint32_t wait_episodes = 0;
  double response_ms = 0.0;
  std::string detail;
  std::vector<std::vector<std::string>> rows;
};

/// Restarting site (or a fenced import) -> another host: ship me your
/// durable state of `doc`. Sent and answered only by core::Site — the
/// recovery sync of dtx/recovery.hpp and the migration pull.
struct RecoveryPullRequest {
  std::string doc;
  SiteId requester = 0;
};

/// Live replica -> restarting site: the resolved durable document —
/// checkpoint snapshot bytes plus the repaired log (marker + record tail),
/// exactly what wal::read_durable_doc resolves locally. ok=false when the
/// store lacks the document, it is a fenced import, or no stable read was
/// possible.
struct RecoveryPullReply {
  std::string doc;
  bool ok = false;
  std::uint64_t version = 0;  ///< durable commit version of the shipped state
  std::string snapshot;
  std::string log;
};

/// Admin / seed -> member: install this catalog epoch (placement &
/// membership — src/placement/placement.hpp). `catalog` is the epoch's
/// line-based text form (CatalogEpoch::to_text). The receiver installs it
/// immediately — fencing new old-epoch requests — but withholds its
/// CatalogAck until every transaction it started or participates in under
/// an older epoch has terminated (the drain), so the sender knows when the
/// old routing generation is fully quiesced.
struct CatalogUpdate {
  std::uint64_t epoch = 0;
  std::string catalog;
  SiteId admin = 0;  ///< where to send the drained CatalogAck
};

/// Member -> admin: `epoch` is installed here and older-epoch transactions
/// have drained.
struct CatalogAck {
  std::uint64_t epoch = 0;
  SiteId site = 0;
};

/// Joining site (Site::join) -> seed member: admit me. `address` is the
/// joiner's listen endpoint, distributed to every member through the next
/// epoch's address book (dtxd --join; empty on SimNetwork). A lagging
/// member also sends its own id to fetch the current catalog.
struct JoinRequest {
  SiteId site = 0;
  std::string address;
};

/// Seed -> joiner: the new catalog (sent only after every old member acked
/// the flip, i.e. the pre-join epoch drained). ok=false carries a reason.
struct JoinReply {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::string catalog;
  std::string error;
};

/// Migration source -> gaining site: adopt this durable document state
/// (checkpoint snapshot + repaired log, as RecoveryPullReply ships it).
/// Idempotent: re-delivery with an equal-or-older version is a no-op ack,
/// which is what makes a kill -9 mid-migration restartable.
struct MigrateDoc {
  std::string doc;
  std::uint64_t epoch = 0;    ///< epoch that rehomed the document
  std::uint64_t version = 0;  ///< durable commit version of the shipped state
  std::string snapshot;
  std::string log;
};

/// Gaining site -> source: the document is durable here (or was already).
struct MigrateAck {
  std::string doc;
  SiteId site = 0;
  bool ok = false;
  std::uint64_t version = 0;
};

/// Admin -> former host: the hosting set of `epoch` no longer includes you
/// and every gaining replica is durable — drop your replica.
struct DropDoc {
  std::string doc;
  std::uint64_t epoch = 0;
};

using Payload =
    std::variant<ExecuteOperation, OperationResult, UndoOperation,
                 CommitRequest, CommitAck, AbortRequest, AbortAck, FailNotice,
                 WfgRequest, WfgReply, VictimAbort, WakeTxn, TxnStatusRequest,
                 TxnStatusReply, SnapshotReadRequest, SnapshotReadReply,
                 Hello, ClientSubmit, ClientReply, RecoveryPullRequest,
                 RecoveryPullReply, CatalogUpdate, CatalogAck, JoinRequest,
                 JoinReply, MigrateDoc, MigrateAck, DropDoc>;

struct Message {
  SiteId from = 0;
  SiteId to = 0;
  Payload payload;
};

/// Payload type name for logging / network statistics.
const char* payload_name(const Payload& payload) noexcept;

/// Exact wire size in bytes: the length of the frame the binary codec
/// (net/codec.hpp) emits for this payload. One source of truth — the
/// SimNetwork bandwidth model charges exactly what TcpNetwork transmits.
std::size_t payload_wire_size(const Payload& payload) noexcept;

}  // namespace dtx::net
