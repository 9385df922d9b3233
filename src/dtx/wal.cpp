#include "dtx/wal.hpp"

#include <algorithm>
#include <charconv>

#include "txn/operation.hpp"
#include "util/hash.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xupdate/applier.hpp"
#include "xupdate/undo_log.hpp"

namespace dtx::core::wal {

using util::Code;
using util::Result;
using util::Status;

std::uint64_t fnv1a(const std::string& text) noexcept {
  return util::fnv1a64(text);
}

namespace {

/// Parses an unsigned decimal at `pos`, advancing it. False on no digits.
bool parse_u64(const std::string& raw, std::size_t& pos,
               std::uint64_t& out) {
  const char* begin = raw.data() + pos;
  const char* end = raw.data() + raw.size();
  const auto [next, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || next == begin) return false;
  pos += static_cast<std::size_t>(next - begin);
  return true;
}

bool skip_char(const std::string& raw, std::size_t& pos, char expected) {
  if (pos >= raw.size() || raw[pos] != expected) return false;
  ++pos;
  return true;
}

/// Parses one entry at `pos`. On success advances `pos` past it and fills
/// `entry` (including `raw`); on failure leaves `pos` untouched.
bool parse_entry(const std::string& raw, std::size_t& pos, LogEntry& entry) {
  std::size_t p = pos;
  if (p >= raw.size()) return false;
  const char kind = raw[p];
  if (kind != 'R' && kind != 'C') return false;
  ++p;
  if (!skip_char(raw, p, ' ')) return false;
  if (kind == 'C') {
    entry.kind = LogEntry::Kind::kCheckpoint;
    std::uint64_t id_count = 0;
    if (!parse_u64(raw, p, entry.version)) return false;
    if (!skip_char(raw, p, ' ')) return false;
    if (!parse_u64(raw, p, entry.hash)) return false;
    if (!skip_char(raw, p, ' ')) return false;
    if (!parse_u64(raw, p, id_count)) return false;
    entry.ids.clear();
    for (std::uint64_t i = 0; i < id_count; ++i) {
      std::uint64_t id = 0;
      if (!skip_char(raw, p, ' ')) return false;
      if (!parse_u64(raw, p, id)) return false;
      entry.ids.push_back(id);
    }
    if (!skip_char(raw, p, '\n')) return false;
    entry.txn = 0;
    entry.ops.clear();
    entry.raw = raw.substr(pos, p - pos);
    pos = p;
    return true;
  }
  entry.kind = LogEntry::Kind::kRecord;
  std::uint64_t op_count = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t payload_hash = 0;
  if (!parse_u64(raw, p, entry.version)) return false;
  if (!skip_char(raw, p, ' ')) return false;
  if (!parse_u64(raw, p, entry.txn)) return false;
  if (!skip_char(raw, p, ' ')) return false;
  if (!parse_u64(raw, p, op_count)) return false;
  if (!skip_char(raw, p, ' ')) return false;
  if (!parse_u64(raw, p, payload_len)) return false;
  if (!skip_char(raw, p, ' ')) return false;
  if (!parse_u64(raw, p, payload_hash)) return false;
  if (!skip_char(raw, p, '\n')) return false;
  if (payload_len > raw.size() - p) return false;  // torn payload
  const std::string payload = raw.substr(p, payload_len);
  if (fnv1a(payload) != payload_hash) return false;
  // Payload: op_count entries of "<len> <bytes>\n".
  entry.ops.clear();
  std::size_t q = 0;
  for (std::uint64_t i = 0; i < op_count; ++i) {
    std::uint64_t len = 0;
    if (!parse_u64(payload, q, len)) return false;
    if (!skip_char(payload, q, ' ')) return false;
    if (len > payload.size() - q) return false;
    entry.ops.push_back(payload.substr(q, len));
    q += len;
    if (!skip_char(payload, q, '\n')) return false;
  }
  if (q != payload.size()) return false;  // trailing bytes inside the frame
  entry.hash = payload_hash;
  p += payload_len;
  entry.raw = raw.substr(pos, p - pos);
  pos = p;
  return true;
}

}  // namespace

std::string encode_record(std::uint64_t version, lock::TxnId txn,
                          const std::vector<std::string>& ops) {
  std::string payload;
  for (const std::string& op : ops) {
    payload += std::to_string(op.size());
    payload += ' ';
    payload += op;
    payload += '\n';
  }
  std::string out = "R ";
  out += std::to_string(version);
  out += ' ';
  out += std::to_string(txn);
  out += ' ';
  out += std::to_string(ops.size());
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += std::to_string(fnv1a(payload));
  out += '\n';
  out += payload;
  return out;
}

std::string encode_checkpoint(std::uint64_t version,
                              std::uint64_t snapshot_hash,
                              const std::vector<lock::TxnId>& ids) {
  std::string out = "C ";
  out += std::to_string(version);
  out += ' ';
  out += std::to_string(snapshot_hash);
  out += ' ';
  out += std::to_string(ids.size());
  for (const lock::TxnId id : ids) {
    out += ' ';
    out += std::to_string(id);
  }
  out += '\n';
  return out;
}

LogScan scan_log(const std::string& raw) {
  LogScan scan;
  std::size_t pos = 0;
  LogEntry entry;
  while (parse_entry(raw, pos, entry)) {
    scan.entries.push_back(std::move(entry));
    entry = LogEntry{};
  }
  scan.valid_bytes = pos;
  scan.torn = pos != raw.size();
  return scan;
}

Result<DurableDoc> read_durable_doc(storage::StorageBackend& store,
                                    const std::string& doc) {
  auto bytes = store.load(doc);
  if (!bytes) return bytes.status();
  auto raw_log = store.read_log(log_key(doc));
  if (!raw_log) return raw_log.status();
  const LogScan scan = scan_log(raw_log.value());

  DurableDoc out;
  out.snapshot = std::move(bytes).value();
  out.torn_tail = scan.torn;

  // Resolve the snapshot's version: the *last* checkpoint marker whose
  // hash matches the bytes. Matching the last one is correct even when
  // two checkpoints hashed identically (commits of no-effect updates):
  // skipping the records between byte-identical snapshots replays to the
  // same bytes.
  const std::uint64_t snapshot_hash = fnv1a(out.snapshot);
  std::size_t base_index = scan.entries.size();  // = no marker matched
  std::uint64_t max_marker_version = 0;
  for (std::size_t i = 0; i < scan.entries.size(); ++i) {
    if (scan.entries[i].kind != LogEntry::Kind::kCheckpoint) continue;
    max_marker_version =
        std::max(max_marker_version, scan.entries[i].version);
    if (scan.entries[i].hash == snapshot_hash) {
      base_index = i;
      out.checkpoint_version = scan.entries[i].version;
      out.checkpoint_ids = scan.entries[i].ids;
      out.marker_raw = scan.entries[i].raw;
    }
  }

  // Collect the record tail: contiguous versions after the base. Anything
  // else — records the snapshot already covers, markers of interrupted
  // checkpoints, everything past a version gap — is dropped here and
  // physically removed by repair().
  const std::size_t first =
      base_index == scan.entries.size() ? 0 : base_index + 1;
  std::uint64_t next = out.checkpoint_version + 1;
  for (std::size_t i = first; i < scan.entries.size(); ++i) {
    const LogEntry& entry = scan.entries[i];
    if (entry.kind == LogEntry::Kind::kCheckpoint) continue;
    if (entry.version < next) continue;  // already in the snapshot
    if (entry.version != next) break;    // gap: the rest is unusable
    out.tail.push_back(entry);
    ++next;
  }
  out.version = out.checkpoint_version + out.tail.size();

  // Repair is needed exactly when the stored log differs from its
  // canonical compacted form (marker + tail): torn bytes, entries below
  // the base, an unfulfilled checkpoint intent.
  std::string canonical = out.marker_raw;
  for (const LogEntry& entry : out.tail) canonical += entry.raw;
  out.needs_repair = canonical != raw_log.value();

  // Consistency vs a concurrent writer: a snapshot matching no marker is
  // valid when the records still reach every marker's version (the
  // crash-between-marker-and-snapshot window of a version-0 base). If
  // they don't, the snapshot read raced a live checkpoint whose
  // compaction already dropped the records — the caller re-reads.
  if (base_index == scan.entries.size() &&
      out.version < max_marker_version) {
    out.consistent = false;
  }
  return out;
}

Status repair(storage::StorageBackend& store, const std::string& doc,
              const DurableDoc& durable) {
  if (!durable.needs_repair) return Status::ok();
  // Re-anchor the snapshot version + commit ids for future reads (a
  // version-0 snapshot that never checkpointed has no marker; absence
  // reads as 0 / empty).
  std::string compacted = durable.marker_raw;
  for (const LogEntry& entry : durable.tail) compacted += entry.raw;
  if (compacted.empty()) return store.truncate(log_key(doc));
  return store.store(log_key(doc), compacted);
}

Status apply_records(const std::vector<LogEntry>& records,
                     xml::Document& document, dataguide::DataGuide* guide,
                     const std::string& doc) {
  for (const LogEntry& entry : records) {
    for (const std::string& text : entry.ops) {
      auto op = txn::parse_operation(text);
      if (!op) {
        return Status(Code::kInternal,
                      "redo log of '" + doc + "' record v" +
                          std::to_string(entry.version) +
                          " holds an unparsable operation: " +
                          op.status().to_string());
      }
      if (!op.value().is_update()) continue;  // queries are never logged
      xupdate::UndoLog scratch;
      auto applied =
          xupdate::apply(op.value().update, document, scratch, guide);
      if (!applied) {
        return Status(Code::kInternal,
                      "redo replay of '" + doc + "' record v" +
                          std::to_string(entry.version) +
                          " failed: " + applied.status().to_string());
      }
      scratch.commit();
    }
  }
  return Status::ok();
}

Result<std::unique_ptr<xml::Document>> replay(const DurableDoc& durable,
                                              const std::string& doc) {
  auto document = xml::parse(durable.snapshot, doc);
  if (!document) return document.status();
  Status applied =
      apply_records(durable.tail, *document.value(), nullptr, doc);
  if (!applied) return applied;
  return document;
}

Result<std::string> materialize(storage::StorageBackend& store,
                                const std::string& doc) {
  auto durable = read_durable_doc(store, doc);
  if (!durable) return durable.status();
  auto document = replay(durable.value(), doc);
  if (!document) return document.status();
  return xml::serialize(*document.value());
}

Result<std::unique_ptr<xml::Document>> replay_to(const DurableDoc& durable,
                                                 std::uint64_t version,
                                                 const std::string& doc) {
  if (durable.checkpoint_version > version || durable.version < version) {
    return Status(Code::kNotFound,
                  "version " + std::to_string(version) + " of '" + doc +
                      "' is not durable (checkpoint v" +
                      std::to_string(durable.checkpoint_version) + ", head v" +
                      std::to_string(durable.version) + ")");
  }
  auto document = xml::parse(durable.snapshot, doc);
  if (!document) return document.status();
  // The tail is contiguous from checkpoint_version + 1, so the prefix that
  // replays to `version` is exactly its first version - checkpoint_version
  // records.
  const auto count =
      static_cast<std::size_t>(version - durable.checkpoint_version);
  const std::vector<LogEntry> prefix(durable.tail.begin(),
                                     durable.tail.begin() +
                                         static_cast<std::ptrdiff_t>(count));
  Status applied = apply_records(prefix, *document.value(), nullptr, doc);
  if (!applied) return applied;
  return document;
}

Result<std::unique_ptr<xml::Document>> materialize_at(
    storage::StorageBackend& store, const std::string& doc,
    std::uint64_t version) {
  auto durable = read_durable_doc(store, doc);
  if (!durable) return durable.status();
  return replay_to(durable.value(), version, doc);
}

std::uint64_t durable_version(storage::StorageBackend& store,
                              const std::string& doc) {
  auto durable = read_durable_doc(store, doc);
  return durable ? durable.value().version : 0;
}

}  // namespace dtx::core::wal
