#include "net/codec.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace dtx::net::codec {

using util::Code;
using util::Result;
using util::Status;

namespace {

// Payload tags: the variant alternative's position plus one, frozen here as
// explicit constants (the wire contract — reordering the variant without
// renumbering would silently change the protocol; the static_assert below
// forces this table to be revisited whenever an alternative is added).
enum Tag : std::uint8_t {
  kTagExecuteOperation = 1,
  kTagOperationResult = 2,
  kTagUndoOperation = 3,
  kTagCommitRequest = 4,
  kTagCommitAck = 5,
  kTagAbortRequest = 6,
  kTagAbortAck = 7,
  kTagFailNotice = 8,
  kTagWfgRequest = 9,
  kTagWfgReply = 10,
  kTagVictimAbort = 11,
  kTagWakeTxn = 12,
  kTagTxnStatusRequest = 13,
  kTagTxnStatusReply = 14,
  kTagSnapshotReadRequest = 15,
  kTagSnapshotReadReply = 16,
  kTagHello = 17,
  kTagClientSubmit = 18,
  kTagClientReply = 19,
  kTagRecoveryPullRequest = 20,
  kTagRecoveryPullReply = 21,
  kTagCatalogUpdate = 22,
  kTagCatalogAck = 23,
  kTagJoinRequest = 24,
  kTagJoinReply = 25,
  kTagMigrateDoc = 26,
  kTagMigrateAck = 27,
  kTagDropDoc = 28,
};

static_assert(std::variant_size_v<Payload> == 28,
              "new Payload alternative: assign its Tag and add an encoder, "
              "a decoder case and a payload_name entry");

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // magic, length, checksum

// --- primitive writers ------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.append(v);
  }
  void str_vec(const std::vector<std::string>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const std::string& s : v) str(s);
  }
  void row_vec(const std::vector<std::vector<std::string>>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& rows : v) str_vec(rows);
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint32_t x : v) u32(x);
  }
  /// Canonical text form — the WAL's round-trippable operation encoding.
  void op(const txn::Operation& v) { str(v.to_string()); }
  void op_vec(const std::vector<txn::Operation>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const txn::Operation& o : v) op(o);
  }

 private:
  std::string& out_;
};

/// Writer's twin that only counts the bytes Writer would append: the wire
/// size of a payload without building the frame.
class Sizer {
 public:
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  void u8(std::uint8_t) { bytes_ += 1; }
  void u32(std::uint32_t) { bytes_ += 4; }
  void u64(std::uint64_t) { bytes_ += 8; }
  void boolean(bool) { bytes_ += 1; }
  void f64(double) { bytes_ += 8; }
  void str(std::string_view v) { bytes_ += 4 + v.size(); }
  void str_vec(const std::vector<std::string>& v) {
    bytes_ += 4;
    for (const std::string& s : v) str(s);
  }
  void row_vec(const std::vector<std::vector<std::string>>& v) {
    bytes_ += 4;
    for (const auto& rows : v) str_vec(rows);
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    bytes_ += 4 + 4 * v.size();
  }
  void op(const txn::Operation& v) { str(v.to_string()); }
  void op_vec(const std::vector<txn::Operation>& v) {
    bytes_ += 4;
    for (const txn::Operation& o : v) op(o);
  }

 private:
  std::size_t bytes_ = 0;
};

// --- primitive readers ------------------------------------------------------

// Fail-stop reader: every getter checks bounds and flips `ok` on underflow
// or malformed content; callers check ok once per frame. Values read after
// a failure are zero/empty — never uninitialized, never out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept {
    return ok_ && pos_ == data_.size();
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean byte not 0/1");
    return v == 1;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// A byte constrained to [0, max] — enum range validation.
  std::uint8_t enum8(std::uint8_t max, const char* what) {
    const std::uint8_t v = u8();
    if (v > max) fail(what);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string v(data_.substr(pos_, len));
    pos_ += len;
    return v;
  }
  std::vector<std::string> str_vec() {
    const std::uint32_t count = u32();
    std::vector<std::string> v;
    for (std::uint32_t i = 0; ok_ && i < count; ++i) v.push_back(str());
    return v;
  }
  std::vector<std::vector<std::string>> row_vec() {
    const std::uint32_t count = u32();
    std::vector<std::vector<std::string>> v;
    for (std::uint32_t i = 0; ok_ && i < count; ++i) v.push_back(str_vec());
    return v;
  }
  std::vector<std::uint32_t> u32_vec() {
    const std::uint32_t count = u32();
    std::vector<std::uint32_t> v;
    for (std::uint32_t i = 0; ok_ && i < count; ++i) v.push_back(u32());
    return v;
  }
  txn::Operation op() {
    const std::string text = str();
    if (!ok_) return {};
    auto parsed = txn::parse_operation(text);
    if (!parsed) {
      fail("unparsable operation payload");
      return {};
    }
    return std::move(parsed).value();
  }
  std::vector<txn::Operation> op_vec() {
    const std::uint32_t count = u32();
    std::vector<txn::Operation> v;
    for (std::uint32_t i = 0; ok_ && i < count; ++i) v.push_back(op());
    return v;
  }

  void fail(const char* what) {
    if (ok_) {
      ok_ = false;
      error_ = what;
    }
  }
  [[nodiscard]] const char* error() const noexcept { return error_; }

 private:
  bool need(std::size_t n) {
    if (!ok_) return false;
    if (data_.size() - pos_ < n) {
      fail("truncated payload");
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const char* error_ = "payload malformed";
};

constexpr std::uint8_t kMaxAbortReason =
    static_cast<std::uint8_t>(txn::AbortReason::kStaleCatalog);
constexpr std::uint8_t kMaxTxnOutcome =
    static_cast<std::uint8_t>(TxnOutcome::kAborted);
// txn::TxnState tops out at kFailed = 4; transaction.hpp is above the wire
// layer, so the bound is mirrored here (ClientReply carries the raw byte).
constexpr std::uint8_t kMaxTxnState = 4;

// --- per-payload encoders ---------------------------------------------------

/// Writes a payload's tag and fields through `W` (Writer or Sizer).
template <typename W>
struct EncodeVisitor {
  W& w;

  void operator()(const ExecuteOperation& m) const {
    w.u8(kTagExecuteOperation);
    w.u64(m.txn);
    w.u32(m.attempt);
    w.u32(m.coordinator);
    w.u64(m.epoch);
    w.u32_vec(m.op_indices);
    w.op_vec(m.ops);
  }
  void operator()(const OperationResult& m) const {
    w.u8(kTagOperationResult);
    w.u64(m.txn);
    w.u32(m.attempt);
    w.u32_vec(m.op_indices);
    w.row_vec(m.rows);
    w.boolean(m.lock_conflict);
    w.boolean(m.failed);
    w.boolean(m.deadlock);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.str(m.error);
  }
  void operator()(const UndoOperation& m) const {
    w.u8(kTagUndoOperation);
    w.u64(m.txn);
    w.u32(m.op_index);
    w.u32(m.attempt);
  }
  void operator()(const CommitRequest& m) const {
    w.u8(kTagCommitRequest);
    w.u64(m.txn);
  }
  void operator()(const CommitAck& m) const {
    w.u8(kTagCommitAck);
    w.u64(m.txn);
    w.boolean(m.ok);
  }
  void operator()(const AbortRequest& m) const {
    w.u8(kTagAbortRequest);
    w.u64(m.txn);
  }
  void operator()(const AbortAck& m) const {
    w.u8(kTagAbortAck);
    w.u64(m.txn);
    w.boolean(m.ok);
  }
  void operator()(const FailNotice& m) const {
    w.u8(kTagFailNotice);
    w.u64(m.txn);
  }
  void operator()(const WfgRequest& m) const {
    w.u8(kTagWfgRequest);
    w.u64(m.probe);
    w.u32(m.requester);
  }
  void operator()(const WfgReply& m) const {
    w.u8(kTagWfgReply);
    w.u64(m.probe);
    w.u32(static_cast<std::uint32_t>(m.edges.size()));
    for (const wfg::Edge& edge : m.edges) {
      w.u64(edge.waiter);
      w.u64(edge.holder);
    }
  }
  void operator()(const VictimAbort& m) const {
    w.u8(kTagVictimAbort);
    w.u64(m.txn);
  }
  void operator()(const WakeTxn& m) const {
    w.u8(kTagWakeTxn);
    w.u64(m.txn);
  }
  void operator()(const TxnStatusRequest& m) const {
    w.u8(kTagTxnStatusRequest);
    w.u64(m.txn);
    w.u32(m.requester);
  }
  void operator()(const TxnStatusReply& m) const {
    w.u8(kTagTxnStatusReply);
    w.u64(m.txn);
    w.u8(static_cast<std::uint8_t>(m.outcome));
  }
  void operator()(const SnapshotReadRequest& m) const {
    w.u8(kTagSnapshotReadRequest);
    w.u64(m.txn);
    w.u32(m.coordinator);
    w.u64(m.epoch);
    w.u32_vec(m.op_indices);
    w.op_vec(m.ops);
  }
  void operator()(const SnapshotReadReply& m) const {
    w.u8(kTagSnapshotReadReply);
    w.u64(m.txn);
    w.boolean(m.ok);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.str(m.error);
    w.u32_vec(m.op_indices);
    w.row_vec(m.rows);
  }
  void operator()(const Hello& m) const {
    w.u8(kTagHello);
    w.u32(m.id);
    w.u32(m.protocol);
  }
  void operator()(const ClientSubmit& m) const {
    w.u8(kTagClientSubmit);
    w.u64(m.seq);
    w.op_vec(m.ops);
  }
  void operator()(const ClientReply& m) const {
    w.u8(kTagClientReply);
    w.u64(m.seq);
    w.boolean(m.accepted);
    w.u64(m.txn);
    w.u8(m.state);
    w.u8(m.reason);
    w.boolean(m.deadlock_victim);
    w.u32(m.wait_episodes);
    w.f64(m.response_ms);
    w.str(m.detail);
    w.row_vec(m.rows);
  }
  void operator()(const RecoveryPullRequest& m) const {
    w.u8(kTagRecoveryPullRequest);
    w.str(m.doc);
    w.u32(m.requester);
  }
  void operator()(const RecoveryPullReply& m) const {
    w.u8(kTagRecoveryPullReply);
    w.str(m.doc);
    w.boolean(m.ok);
    w.u64(m.version);
    w.str(m.snapshot);
    w.str(m.log);
  }
  void operator()(const CatalogUpdate& m) const {
    w.u8(kTagCatalogUpdate);
    w.u64(m.epoch);
    w.str(m.catalog);
    w.u32(m.admin);
  }
  void operator()(const CatalogAck& m) const {
    w.u8(kTagCatalogAck);
    w.u64(m.epoch);
    w.u32(m.site);
  }
  void operator()(const JoinRequest& m) const {
    w.u8(kTagJoinRequest);
    w.u32(m.site);
    w.str(m.address);
  }
  void operator()(const JoinReply& m) const {
    w.u8(kTagJoinReply);
    w.boolean(m.ok);
    w.u64(m.epoch);
    w.str(m.catalog);
    w.str(m.error);
  }
  void operator()(const MigrateDoc& m) const {
    w.u8(kTagMigrateDoc);
    w.str(m.doc);
    w.u64(m.epoch);
    w.u64(m.version);
    w.str(m.snapshot);
    w.str(m.log);
  }
  void operator()(const MigrateAck& m) const {
    w.u8(kTagMigrateAck);
    w.str(m.doc);
    w.u32(m.site);
    w.boolean(m.ok);
    w.u64(m.version);
  }
  void operator()(const DropDoc& m) const {
    w.u8(kTagDropDoc);
    w.str(m.doc);
    w.u64(m.epoch);
  }
};

// --- per-payload decoders ---------------------------------------------------

Payload decode_payload(std::uint8_t tag, Reader& r) {
  switch (tag) {
    case kTagExecuteOperation: {
      ExecuteOperation m;
      m.txn = r.u64();
      m.attempt = r.u32();
      m.coordinator = r.u32();
      m.epoch = r.u64();
      m.op_indices = r.u32_vec();
      m.ops = r.op_vec();
      if (m.ops.size() != m.op_indices.size()) {
        r.fail("slice indices and operations differ in count");
      }
      return m;
    }
    case kTagOperationResult: {
      OperationResult m;
      m.txn = r.u64();
      m.attempt = r.u32();
      m.op_indices = r.u32_vec();
      m.rows = r.row_vec();
      if (m.rows.size() != m.op_indices.size()) {
        r.fail("slice indices and rows differ in count");
      }
      m.lock_conflict = r.boolean();
      m.failed = r.boolean();
      m.deadlock = r.boolean();
      m.reason = static_cast<txn::AbortReason>(
          r.enum8(kMaxAbortReason, "abort reason out of range"));
      m.error = r.str();
      return m;
    }
    case kTagUndoOperation: {
      UndoOperation m;
      m.txn = r.u64();
      m.op_index = r.u32();
      m.attempt = r.u32();
      return m;
    }
    case kTagCommitRequest: return CommitRequest{r.u64()};
    case kTagCommitAck: {
      CommitAck m;
      m.txn = r.u64();
      m.ok = r.boolean();
      return m;
    }
    case kTagAbortRequest: return AbortRequest{r.u64()};
    case kTagAbortAck: {
      AbortAck m;
      m.txn = r.u64();
      m.ok = r.boolean();
      return m;
    }
    case kTagFailNotice: return FailNotice{r.u64()};
    case kTagWfgRequest: {
      WfgRequest m;
      m.probe = r.u64();
      m.requester = r.u32();
      return m;
    }
    case kTagWfgReply: {
      WfgReply m;
      m.probe = r.u64();
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; r.ok() && i < count; ++i) {
        wfg::Edge edge;
        edge.waiter = r.u64();
        edge.holder = r.u64();
        m.edges.push_back(edge);
      }
      return m;
    }
    case kTagVictimAbort: return VictimAbort{r.u64()};
    case kTagWakeTxn: return WakeTxn{r.u64()};
    case kTagTxnStatusRequest: {
      TxnStatusRequest m;
      m.txn = r.u64();
      m.requester = r.u32();
      return m;
    }
    case kTagTxnStatusReply: {
      TxnStatusReply m;
      m.txn = r.u64();
      m.outcome = static_cast<TxnOutcome>(
          r.enum8(kMaxTxnOutcome, "txn outcome out of range"));
      return m;
    }
    case kTagSnapshotReadRequest: {
      SnapshotReadRequest m;
      m.txn = r.u64();
      m.coordinator = r.u32();
      m.epoch = r.u64();
      m.op_indices = r.u32_vec();
      m.ops = r.op_vec();
      return m;
    }
    case kTagSnapshotReadReply: {
      SnapshotReadReply m;
      m.txn = r.u64();
      m.ok = r.boolean();
      m.reason = static_cast<txn::AbortReason>(
          r.enum8(kMaxAbortReason, "abort reason out of range"));
      m.error = r.str();
      m.op_indices = r.u32_vec();
      m.rows = r.row_vec();
      return m;
    }
    case kTagHello: {
      Hello m;
      m.id = r.u32();
      m.protocol = r.u32();
      return m;
    }
    case kTagClientSubmit: {
      ClientSubmit m;
      m.seq = r.u64();
      m.ops = r.op_vec();
      return m;
    }
    case kTagClientReply: {
      ClientReply m;
      m.seq = r.u64();
      m.accepted = r.boolean();
      m.txn = r.u64();
      m.state = r.enum8(kMaxTxnState, "txn state out of range");
      m.reason = r.enum8(kMaxAbortReason, "abort reason out of range");
      m.deadlock_victim = r.boolean();
      m.wait_episodes = r.u32();
      m.response_ms = r.f64();
      m.detail = r.str();
      m.rows = r.row_vec();
      return m;
    }
    case kTagRecoveryPullRequest: {
      RecoveryPullRequest m;
      m.doc = r.str();
      m.requester = r.u32();
      return m;
    }
    case kTagRecoveryPullReply: {
      RecoveryPullReply m;
      m.doc = r.str();
      m.ok = r.boolean();
      m.version = r.u64();
      m.snapshot = r.str();
      m.log = r.str();
      return m;
    }
    case kTagCatalogUpdate: {
      CatalogUpdate m;
      m.epoch = r.u64();
      m.catalog = r.str();
      m.admin = r.u32();
      return m;
    }
    case kTagCatalogAck: {
      CatalogAck m;
      m.epoch = r.u64();
      m.site = r.u32();
      return m;
    }
    case kTagJoinRequest: {
      JoinRequest m;
      m.site = r.u32();
      m.address = r.str();
      return m;
    }
    case kTagJoinReply: {
      JoinReply m;
      m.ok = r.boolean();
      m.epoch = r.u64();
      m.catalog = r.str();
      m.error = r.str();
      return m;
    }
    case kTagMigrateDoc: {
      MigrateDoc m;
      m.doc = r.str();
      m.epoch = r.u64();
      m.version = r.u64();
      m.snapshot = r.str();
      m.log = r.str();
      return m;
    }
    case kTagMigrateAck: {
      MigrateAck m;
      m.doc = r.str();
      m.site = r.u32();
      m.ok = r.boolean();
      m.version = r.u64();
      return m;
    }
    case kTagDropDoc: {
      DropDoc m;
      m.doc = r.str();
      m.epoch = r.u64();
      return m;
    }
    default:
      r.fail("unknown payload tag");
      return WakeTxn{};
  }
}

Result<Message> decode_body(std::string_view body) {
  Reader r(body);
  Message message;
  message.from = r.u32();
  message.to = r.u32();
  const std::uint8_t tag = r.u8();
  message.payload = decode_payload(tag, r);
  if (!r.ok()) {
    return Status(Code::kInvalidArgument,
                  std::string("bad frame: ") + r.error());
  }
  if (!r.done()) {
    return Status(Code::kInvalidArgument, "bad frame: trailing bytes");
  }
  return message;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void encode(const Message& message, std::string& out) {
  const std::size_t header_at = out.size();
  out.reserve(out.size() + kHeaderBytes + 64);
  append_u32(out, kMagic);
  append_u32(out, 0);  // length backpatched below
  append_u64(out, 0);  // checksum backpatched below
  const std::size_t body_at = out.size();
  Writer w(out);
  w.u32(message.from);
  w.u32(message.to);
  std::visit(EncodeVisitor<Writer>{w}, message.payload);
  const std::size_t body_len = out.size() - body_at;
  const std::uint64_t checksum =
      util::fnv1a64(std::string_view(out).substr(body_at, body_len));
  std::string patch;
  append_u32(patch, static_cast<std::uint32_t>(body_len));
  append_u64(patch, checksum);
  out.replace(header_at + 4, patch.size(), patch);
}

std::string encode(const Message& message) {
  std::string out;
  encode(message, out);
  return out;
}

Result<Message> decode(std::string_view frame) {
  if (frame.size() < kHeaderBytes) {
    return Status(Code::kInvalidArgument, "bad frame: truncated header");
  }
  if (read_u32(frame.data()) != kMagic) {
    return Status(Code::kInvalidArgument, "bad frame: magic mismatch");
  }
  const std::uint32_t length = read_u32(frame.data() + 4);
  if (length > kMaxFrameBytes) {
    return Status(Code::kInvalidArgument, "bad frame: length out of bounds");
  }
  if (frame.size() != kHeaderBytes + length) {
    return Status(Code::kInvalidArgument,
                  frame.size() < kHeaderBytes + length
                      ? "bad frame: truncated body"
                      : "bad frame: trailing bytes");
  }
  const std::uint64_t checksum = read_u64(frame.data() + 8);
  const std::string_view body = frame.substr(kHeaderBytes, length);
  if (util::fnv1a64(body) != checksum) {
    return Status(Code::kInternal, "bad frame: checksum mismatch");
  }
  return decode_body(body);
}

std::size_t encoded_payload_size(const Payload& payload) {
  Sizer sizer;
  std::visit(EncodeVisitor<Sizer>{sizer}, payload);
  return kHeaderBytes + 8 + sizer.bytes();  // header, from + to, payload
}

void FrameReader::feed(std::string_view bytes) {
  // Compact before the buffer doubles in place forever.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(bytes);
}

Result<std::optional<Message>> FrameReader::next() {
  if (poisoned_) {
    return Status(Code::kInternal, "frame stream poisoned");
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(offset_);
  if (pending.size() < kHeaderBytes) return std::optional<Message>{};
  if (read_u32(pending.data()) != kMagic) {
    poisoned_ = true;
    return Status(Code::kInternal, "bad frame: magic mismatch");
  }
  const std::uint32_t length = read_u32(pending.data() + 4);
  if (length > kMaxFrameBytes) {
    poisoned_ = true;
    return Status(Code::kInternal, "bad frame: length out of bounds");
  }
  if (pending.size() < kHeaderBytes + length) return std::optional<Message>{};
  Result<Message> message = decode(pending.substr(0, kHeaderBytes + length));
  if (!message) {
    poisoned_ = true;
    return message.status();
  }
  offset_ += kHeaderBytes + length;
  return std::optional<Message>{std::move(message).value()};
}

}  // namespace dtx::net::codec
