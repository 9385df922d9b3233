#include "net/codec.hpp"

#include <array>
#include <bit>
#include <concepts>
#include <type_traits>
#include <utility>

#include "util/hash.hpp"

namespace dtx::net::codec {

using util::Code;
using util::Result;
using util::Status;

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // magic, length, checksum

static_assert(kPayloadTagCount < 256, "the tag travels as one byte");

constexpr std::uint8_t kMaxAbortReason =
    static_cast<std::uint8_t>(txn::AbortReason::kStaleCatalog);
constexpr std::uint8_t kMaxTxnOutcome =
    static_cast<std::uint8_t>(TxnOutcome::kAborted);
// txn::TxnState tops out at kFailed = 4; transaction.hpp is above the wire
// layer, so the bound is mirrored here (ClientReply carries the raw byte).
constexpr std::uint8_t kMaxTxnState = 4;

constexpr bool in_range(txn::AbortReason reason) {
  return static_cast<std::uint8_t>(reason) <= kMaxAbortReason;
}
constexpr bool in_range(TxnOutcome outcome) {
  return static_cast<std::uint8_t>(outcome) <= kMaxTxnOutcome;
}

// --- field lists ------------------------------------------------------------
//
// Each payload's wire layout, written once. `a(...)` names the fields in
// wire order; Writer and Sizer encode them and Reader decodes them in
// place, each by overloads on the field's type (see Writer::put). `a.check`
// is a decode-time validation: Reader rejects the frame when it is false,
// the write side ignores it. `m` is const when encoding.

template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

template <typename A>
void fields(A& a, Is<ExecuteOperation> auto& m) {
  a(m.txn, m.attempt, m.coordinator, m.epoch, m.op_indices, m.ops);
  a.check(m.ops.size() == m.op_indices.size(),
          "slice indices and operations differ in count");
}
template <typename A>
void fields(A& a, Is<OperationResult> auto& m) {
  a(m.txn, m.attempt, m.op_indices, m.rows, m.lock_conflict, m.failed,
    m.deadlock, m.reason, m.error);
  a.check(m.rows.size() == m.op_indices.size(),
          "slice indices and rows differ in count");
  a.check(in_range(m.reason), "abort reason out of range");
}
template <typename A>
void fields(A& a, Is<UndoOperation> auto& m) {
  a(m.txn, m.op_index, m.attempt);
}
template <typename A>
void fields(A& a, Is<CommitRequest> auto& m) { a(m.txn); }
template <typename A>
void fields(A& a, Is<CommitAck> auto& m) { a(m.txn, m.ok); }
template <typename A>
void fields(A& a, Is<AbortRequest> auto& m) { a(m.txn); }
template <typename A>
void fields(A& a, Is<AbortAck> auto& m) { a(m.txn, m.ok); }
template <typename A>
void fields(A& a, Is<FailNotice> auto& m) { a(m.txn); }
template <typename A>
void fields(A& a, Is<WfgRequest> auto& m) { a(m.probe, m.requester); }
template <typename A>
void fields(A& a, Is<wfg::Edge> auto& m) { a(m.waiter, m.holder); }
template <typename A>
void fields(A& a, Is<WfgReply> auto& m) { a(m.probe, m.edges); }
template <typename A>
void fields(A& a, Is<VictimAbort> auto& m) { a(m.txn); }
template <typename A>
void fields(A& a, Is<WakeTxn> auto& m) { a(m.txn); }
template <typename A>
void fields(A& a, Is<TxnStatusRequest> auto& m) { a(m.txn, m.requester); }
template <typename A>
void fields(A& a, Is<TxnStatusReply> auto& m) {
  a(m.txn, m.outcome);
  a.check(in_range(m.outcome), "txn outcome out of range");
}
template <typename A>
void fields(A& a, Is<SnapshotReadRequest> auto& m) {
  a(m.txn, m.coordinator, m.epoch, m.op_indices, m.ops);
  a.check(m.ops.size() == m.op_indices.size(),
          "snapshot indices and operations differ in count");
}
template <typename A>
void fields(A& a, Is<SnapshotReadReply> auto& m) {
  a(m.txn, m.ok, m.reason, m.error, m.op_indices, m.rows);
  a.check(in_range(m.reason), "abort reason out of range");
  // A failure reply keeps its indices but carries no rows.
  a.check(!m.ok || m.rows.size() == m.op_indices.size(),
          "snapshot indices and rows differ in count");
}
template <typename A>
void fields(A& a, Is<Hello> auto& m) { a(m.id, m.protocol); }
template <typename A>
void fields(A& a, Is<ClientSubmit> auto& m) { a(m.seq, m.ops); }
template <typename A>
void fields(A& a, Is<ClientReply> auto& m) {
  a(m.seq, m.accepted, m.txn, m.state, m.reason, m.deadlock_victim,
    m.wait_episodes, m.response_ms, m.detail, m.rows);
  a.check(m.state <= kMaxTxnState, "txn state out of range");
  a.check(m.reason <= kMaxAbortReason, "abort reason out of range");
}
template <typename A>
void fields(A& a, Is<RecoveryPullRequest> auto& m) { a(m.doc, m.requester); }
template <typename A>
void fields(A& a, Is<RecoveryPullReply> auto& m) {
  a(m.doc, m.ok, m.version, m.snapshot, m.log);
}
template <typename A>
void fields(A& a, Is<CatalogUpdate> auto& m) { a(m.epoch, m.catalog, m.admin); }
template <typename A>
void fields(A& a, Is<CatalogAck> auto& m) { a(m.epoch, m.site); }
template <typename A>
void fields(A& a, Is<JoinRequest> auto& m) { a(m.site, m.address); }
template <typename A>
void fields(A& a, Is<JoinReply> auto& m) {
  a(m.ok, m.epoch, m.catalog, m.error);
}
template <typename A>
void fields(A& a, Is<MigrateDoc> auto& m) {
  a(m.doc, m.epoch, m.version, m.snapshot, m.log);
}
template <typename A>
void fields(A& a, Is<MigrateAck> auto& m) { a(m.doc, m.site, m.ok, m.version); }
template <typename A>
void fields(A& a, Is<DropDoc> auto& m) { a(m.doc, m.epoch); }

// --- field types ------------------------------------------------------------

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// Counts what a Writer would append: the wire size without the bytes.
struct ByteCount {
  std::size_t size = 0;
  void append(const char*, std::size_t n) { size += n; }
};

/// Encodes fields onto `Out` — a std::string, or a ByteCount (Sizer).
/// Integers are little-endian at their own width, bools one 0/1 byte, enums
/// their underlying byte, doubles their IEEE-754 bits; strings and vectors
/// are u32-length-prefixed. Typed operations travel as their canonical text
/// — the WAL's round-trippable form. Any other struct writes its own field
/// list.
template <typename Out>
class Writer {
 public:
  explicit Writer(Out& out) : out_(out) {}

  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  void check(bool, const char*) {}

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      char bytes[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes[i] = static_cast<char>(static_cast<std::uint64_t>(v) >> (8 * i));
      }
      out_.append(bytes, sizeof(T));
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      out_.append(v.data(), v.size());
    } else if constexpr (std::is_same_v<T, txn::Operation>) {
      put(v.to_string());
    } else if constexpr (IsVector<T>::value) {
      put(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) put(item);
    } else {
      fields(*this, v);
    }
  }

  Out& out_;
};

using Sizer = Writer<ByteCount>;

// Fail-stop decoder, Writer's inverse: reads each field in place, checks
// bounds and content, and flips `ok` on the first underflow or malformed
// value; callers check ok once per frame. Fields read after a failure keep
// their defaults — never uninitialized, never out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept {
    return ok_ && pos_ == data_.size();
  }
  [[nodiscard]] const char* error() const noexcept { return error_; }

  template <typename... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  void check(bool valid, const char* what) {
    if (!valid) fail(what);
  }
  void fail(const char* what) {
    if (ok_) {
      ok_ = false;
      error_ = what;
    }
  }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      get(byte);
      if (byte > 1) fail("boolean byte not 0/1");
      v = byte == 1;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw = 0;
      get(raw);
      v = static_cast<T>(raw);
    } else if constexpr (std::is_unsigned_v<T>) {
      if (!need(sizeof(T))) return;
      std::uint64_t value = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
      }
      pos_ += sizeof(T);
      v = static_cast<T>(value);
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t bits = 0;
      get(bits);
      v = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t size = 0;
      get(size);
      if (!need(size)) return;
      v.assign(data_.substr(pos_, size));
      pos_ += size;
    } else if constexpr (std::is_same_v<T, txn::Operation>) {
      std::string text;
      get(text);
      if (!ok_) return;
      auto parsed = txn::parse_operation(text);
      if (parsed) {
        v = std::move(parsed).value();
      } else {
        fail("unparsable operation payload");
      }
    } else if constexpr (IsVector<T>::value) {
      std::uint32_t count = 0;
      get(count);
      for (std::uint32_t i = 0; ok_ && i < count; ++i) get(v.emplace_back());
    } else {
      fields(*this, v);
    }
  }

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

/// Writes the payload's tag — its variant position plus one — and fields.
template <typename Out>
void put_payload(Writer<Out>& w, const Payload& payload) {
  w(static_cast<std::uint8_t>(payload.index() + 1));
  std::visit([&w](const auto& m) { fields(w, m); }, payload);
}

/// Decoders by variant position, generated from Payload: entry I makes
/// alternative I the payload and reads its fields into it.
using Decoder = void (*)(Reader&, Payload&);
template <std::size_t... I>
constexpr std::array<Decoder, sizeof...(I)> decoders(
    std::index_sequence<I...>) {
  return {[](Reader& r, Payload& payload) {
    fields(r, payload.emplace<I>());
  }...};
}
constexpr auto kDecoders =
    decoders(std::make_index_sequence<kPayloadTagCount>{});

Result<Message> decode_body(std::string_view body) {
  Reader r(body);
  Message message;
  std::uint8_t tag = 0;
  r(message.from, message.to, tag);
  if (tag == 0 || tag > kDecoders.size()) {
    r.fail("unknown payload tag");
  } else {
    kDecoders[tag - 1](r, message.payload);
  }
  if (!r.ok()) {
    return Status(Code::kInvalidArgument,
                  std::string("bad frame: ") + r.error());
  }
  if (!r.done()) {
    return Status(Code::kInvalidArgument, "bad frame: trailing bytes");
  }
  return message;
}

/// The fixed frame header in front of every body.
struct Header {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::uint64_t checksum = 0;
};

Header read_header(std::string_view frame) {
  Header header;
  Reader(frame.substr(0, kHeaderBytes))(header.magic, header.length,
                                         header.checksum);
  return header;
}

}  // namespace

void encode(const Message& message, std::string& out) {
  const std::size_t header_at = out.size();
  out.reserve(out.size() + kHeaderBytes + 64);
  Writer w(out);
  // Length and checksum are backpatched once the body is written.
  w(kMagic, std::uint32_t{0}, std::uint64_t{0}, message.from, message.to);
  put_payload(w, message.payload);
  const std::string_view body =
      std::string_view(out).substr(header_at + kHeaderBytes);
  std::string patch;
  Writer patch_writer(patch);
  patch_writer(static_cast<std::uint32_t>(body.size()), util::fnv1a64(body));
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
  const Header header = read_header(frame);
  if (header.magic != kMagic) {
    return Status(Code::kInvalidArgument, "bad frame: magic mismatch");
  }
  if (header.length > kMaxFrameBytes) {
    return Status(Code::kInvalidArgument, "bad frame: length out of bounds");
  }
  if (frame.size() != kHeaderBytes + header.length) {
    return Status(Code::kInvalidArgument,
                  frame.size() < kHeaderBytes + header.length
                      ? "bad frame: truncated body"
                      : "bad frame: trailing bytes");
  }
  const std::string_view body = frame.substr(kHeaderBytes);
  if (util::fnv1a64(body) != header.checksum) {
    return Status(Code::kInternal, "bad frame: checksum mismatch");
  }
  return decode_body(body);
}

std::size_t encoded_payload_size(const Payload& payload) {
  ByteCount count;
  Sizer sizer(count);
  put_payload(sizer, payload);
  return kHeaderBytes + 8 + count.size;  // header, from + to, payload
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
  const Header header = read_header(pending);
  if (header.magic != kMagic) {
    poisoned_ = true;
    return Status(Code::kInternal, "bad frame: magic mismatch");
  }
  const std::uint32_t length = header.length;
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
