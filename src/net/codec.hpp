// Binary wire codec: the serialization layer under TcpNetwork and the
// authoritative wire-size model of SimNetwork.
//
// Frame layout (all integers little-endian):
//
//   u32 magic     "DTX1" (0x31585444) — stream desync detector
//   u32 length    byte count of `body` (bounded by kMaxFrameBytes)
//   u64 checksum  FNV-1a 64 of `body` (the WAL's framing idiom, wal.hpp)
//   body:
//     u32 from | u32 to | u8 tag | payload
//
// `tag` is the payload's position in net::Payload plus one, computed from
// the variant rather than written down anywhere, so reordering Payload
// changes the wire (CodecTest.CorpusFramesMatchRecordedBytes pins the
// bytes). Unknown tags, truncated bodies, trailing bytes and checksum
// mismatches all reject the frame. Strings are u32-length-prefixed;
// vectors are u32-count-prefixed; bools are exactly 0 or 1 (anything else
// rejects — keeps decode(encode(x)) re-encodable byte-exactly). Typed
// operations (txn::Operation) travel as their canonical text — the same
// round-trippable form the WAL logs — and are re-parsed on decode, so a
// frame that decodes always carries a well-formed operation and node ids
// still never cross the wire.
//
// Each payload's layout is written once, as a field list in codec.cpp
// (`fields(a, m)`): the encoder, the size counter behind payload_wire_size
// and the decoder all walk that list. Validation lives in two places: the
// decoder's field-type rules above, and the list's own `a.check(...)`
// calls for what a type cannot say — parallel vectors agreeing in length,
// enum bytes within range. Adding a message means: its struct, appended to
// Payload (message.hpp); its name, appended to kPayloadNames next to it;
// its field list; a codec_corpus() exemplar in net_test, with the golden
// frame hashes re-recorded and kProtocolVersion bumped on purpose.
//
// Decoding a TCP byte stream goes through FrameReader: feed() appended
// bytes, next() yields complete messages. A corrupt frame poisons the
// reader (framing is lost — the connection must be dropped), which is
// exactly how TcpNetwork treats it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/message.hpp"
#include "util/status.hpp"

namespace dtx::net::codec {

inline constexpr std::uint32_t kMagic = 0x31585444u;  // "DTX1"
/// Bumped on any incompatible frame change; carried in the Hello handshake.
/// v2: ExecuteOperation / SnapshotReadRequest carry the catalog epoch, plus
/// the placement & membership payloads (CatalogUpdate .. DropDoc).
/// v3: one-shot slices — ExecuteOperation / OperationResult carry a
/// participant's whole ordered slice of operations, UndoOperation rolls
/// back from an operation on and carries the attempt.
inline constexpr std::uint32_t kProtocolVersion = 3;
/// Number of payload tags the codec knows (tags run 1..kPayloadTagCount).
/// net_test keeps a hand-written tag-name list asserted against this, so a
/// new Payload alternative without codec + corpus coverage fails the suite.
inline constexpr std::size_t kPayloadTagCount = std::variant_size_v<Payload>;
/// Upper bound on one frame's body — a stream whose length field exceeds
/// this is corrupt (or hostile), not merely large.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Appends one encoded frame for `message` to `out`.
void encode(const Message& message, std::string& out);

[[nodiscard]] std::string encode(const Message& message);

/// Decodes exactly one frame (header + body). Rejects truncated input,
/// checksum mismatches, unknown tags, malformed payloads and trailing
/// bytes after the frame.
[[nodiscard]] util::Result<Message> decode(std::string_view frame);

/// Exact encoded frame size of a payload (from/to contribute a fixed 8
/// bytes regardless of value), counted without copying the payload or
/// building the frame. This is net::payload_wire_size's backend.
[[nodiscard]] std::size_t encoded_payload_size(const Payload& payload);

/// Incremental frame extraction over a TCP byte stream.
class FrameReader {
 public:
  /// Appends raw bytes received from the stream.
  void feed(std::string_view bytes);

  /// One decoded message, std::nullopt when the buffer holds no complete
  /// frame yet, or an error when the stream is corrupt. After an error the
  /// reader stays poisoned — framing is unrecoverable; drop the connection.
  [[nodiscard]] util::Result<std::optional<Message>> next();

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - offset_;
  }
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

 private:
  std::string buffer_;
  std::size_t offset_ = 0;
  bool poisoned_ = false;
};

}  // namespace dtx::net::codec
