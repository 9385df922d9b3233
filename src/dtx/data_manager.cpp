#include "dtx/data_manager.hpp"

#include "dtx/snapshot_store.hpp"
#include "util/log.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/evaluator.hpp"
#include "xupdate/applier.hpp"

namespace dtx::core {

using util::Code;
using util::Result;
using util::Status;

DataManager::DataManager(storage::StorageBackend& store,
                         std::size_t checkpoint_interval,
                         std::size_t checkpoint_log_bytes,
                         SnapshotStore* snapshots)
    : store_(store),
      checkpoint_interval_(checkpoint_interval),
      checkpoint_log_bytes_(checkpoint_log_bytes),
      snapshots_(snapshots) {}

bool DataManager::is_internal_key(const std::string& name) {
  for (const char* suffix : {".~log", ".~v"}) {
    const std::size_t len = std::char_traits<char>::length(suffix);
    if (name.size() > len &&
        name.compare(name.size() - len, len, suffix) == 0) {
      return true;  // redo log / legacy commit-version sidecar
    }
  }
  return !name.empty() && name.front() == '~';  // e.g. "~outcomes"
}

Status DataManager::load_all() {
  for (const std::string& name : store_.list()) {
    if (is_internal_key(name)) continue;
    Status loaded = load_document(name);
    if (!loaded) return loaded;
  }
  return Status::ok();
}

Status DataManager::load_document(const std::string& name) {
  auto durable = wal::read_durable_doc(store_, name);
  if (!durable) return durable.status();
  // First reader after a crash: physically drop torn appends and
  // already-checkpointed entries before anything new is logged (the
  // snapshot-version resolution is only exact while the log still ends
  // where the crash left it).
  if (durable.value().needs_repair) {
    Status repaired = wal::repair(store_, name, durable.value());
    if (!repaired) return repaired;
    if (durable.value().torn_tail) {
      DTX_WARN() << "redo log of '" << name
                 << "' had a torn tail; recovered to v"
                 << durable.value().version;
    }
  }
  auto document = xml::parse(durable.value().snapshot, name);
  if (!document) return document.status();
  DocEntry entry;
  entry.scope = next_scope_++;
  entry.document = std::move(document).value();
  entry.guide = dataguide::DataGuide::build(*entry.document);
  entry.history = durable.value().checkpoint_ids;
  // Replay the record tail exactly as run_update applied it, guide
  // maintained incrementally (the same replay the store-side
  // materialization runs — one implementation, wal::apply_records).
  Status replayed = wal::apply_records(durable.value().tail,
                                       *entry.document, entry.guide.get(),
                                       name);
  if (!replayed) return replayed;
  for (const wal::LogEntry& record : durable.value().tail) {
    entry.history.push_back(record.txn);
    entry.log_ops += record.ops.size();
    entry.log_bytes += record.raw.size();
  }
  entry.version = durable.value().version;
  // Replace any stale entry (replica re-adoption after a migration).
  drop_undo_of(name);
  documents_.erase(name);
  auto [it, inserted] = documents_.emplace(name, std::move(entry));
  (void)inserted;
  // Bound the next recovery's replay: compact a long tail right here,
  // while nothing runs concurrently.
  DocEntry& loaded = it->second;
  note_checkpoint_policy(name, loaded, nullptr);
  if (loaded.checkpoint_pending) checkpoint_doc(name, loaded);
  if (snapshots_ != nullptr) {
    snapshots_->register_doc(name, loaded.version);
  }
  return Status::ok();
}

void DataManager::drop_document(const std::string& name) {
  drop_undo_of(name);
  documents_.erase(name);
}

void DataManager::drop_undo_of(const std::string& doc) {
  for (auto& [key, state] : txn_states_) {
    if (key.second == doc) state.undo.commit();
  }
}

bool DataManager::has_document(const std::string& name) const {
  return documents_.count(name) != 0;
}

std::vector<std::string> DataManager::documents() const {
  std::vector<std::string> names;
  names.reserve(documents_.size());
  for (const auto& [name, entry] : documents_) {
    (void)entry;
    names.push_back(name);
  }
  return names;
}

DataManager::DocEntry* DataManager::entry_of(const std::string& name) {
  const auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : &it->second;
}

DataManager::TxnDocState& DataManager::state_of(TxnId txn,
                                                const std::string& doc) {
  auto [it, inserted] = txn_states_.try_emplace({txn, doc});
  if (inserted) {
    docs_of_txn_[txn].insert(doc);
    ++live_writers_[doc];
  }
  return it->second;
}

Result<lock::DocContext> DataManager::context_of(const std::string& name) {
  DocEntry* entry = entry_of(name);
  if (entry == nullptr) {
    return Status(Code::kNotFound, "document '" + name + "' not at this site");
  }
  return lock::DocContext{entry->scope, *entry->document, *entry->guide};
}

Result<std::vector<std::string>> DataManager::run_query(
    const query::Plan& plan) {
  DocEntry* entry = entry_of(plan.doc());
  if (entry == nullptr) {
    return Status(Code::kNotFound,
                  "document '" + plan.doc() + "' not at this site");
  }
  return xpath::evaluate_strings(plan.query(), *entry->document);
}

Result<std::size_t> DataManager::run_update(TxnId txn,
                                            const query::Plan& plan) {
  DocEntry* entry = entry_of(plan.doc());
  if (entry == nullptr) {
    return Status(Code::kNotFound,
                  "document '" + plan.doc() + "' not at this site");
  }
  TxnDocState& state = state_of(txn, plan.doc());
  auto result = xupdate::apply(plan.update(), *entry->document, state.undo,
                               entry->guide.get());
  if (!result) return result.status();
  state.redo.push_back(plan.text());  // committed-at-commit redo delta
  return result.value().affected;
}

std::size_t DataManager::undo_checkpoint(TxnId txn, const std::string& doc) {
  TxnDocState& state = state_of(txn, doc);
  const std::size_t token = state.undo.checkpoint();
  // Last-wins on purpose: only the most recent operation is individually
  // undoable, and a no-effect predecessor can share its undo position.
  state.redo_marks[token] = state.redo.size();
  return token;
}

void DataManager::undo_to(TxnId txn, const std::string& doc,
                          std::size_t token) {
  DocEntry* entry = entry_of(doc);
  const auto it = txn_states_.find({txn, doc});
  if (entry == nullptr || it == txn_states_.end()) return;
  TxnDocState& state = it->second;
  state.undo.undo_to(token, *entry->document, entry->guide.get());
  const auto mark = state.redo_marks.find(token);
  const std::size_t redo_len = mark != state.redo_marks.end()
                                   ? mark->second
                                   : (token == 0 ? 0 : state.redo.size());
  if (redo_len < state.redo.size()) state.redo.resize(redo_len);
  state.redo_marks.erase(state.redo_marks.upper_bound(token),
                         state.redo_marks.end());
}

void DataManager::undo_all(TxnId txn,
                           std::vector<std::string>* checkpoint_due) {
  const auto docs_it = docs_of_txn_.find(txn);
  if (docs_it == docs_of_txn_.end()) return;
  for (const std::string& doc : docs_it->second) {
    const auto state_it = txn_states_.find({txn, doc});
    if (state_it == txn_states_.end()) continue;
    DocEntry* entry = entry_of(doc);
    if (entry != nullptr) {
      state_it->second.undo.undo_to(0, *entry->document, entry->guide.get());
    }
    txn_states_.erase(state_it);
    const auto writers = live_writers_.find(doc);
    if (writers != live_writers_.end() && --writers->second == 0) {
      live_writers_.erase(writers);
      if (entry != nullptr && entry->checkpoint_pending &&
          checkpoint_due != nullptr) {
        checkpoint_due->push_back(doc);  // deferred compaction unblocked
      }
    }
  }
  docs_of_txn_.erase(docs_it);
}

Status DataManager::persist(TxnId txn,
                            std::vector<std::string>* checkpoint_due) {
  const auto docs_it = docs_of_txn_.find(txn);
  if (docs_it == docs_of_txn_.end()) return Status::ok();
  // The transaction's committed deltas, published into the MVCC layer in
  // one atomic batch after the appends — snapshot cuts either see all of
  // this commit or none of it.
  std::vector<SnapshotStore::Delta> published;
  for (const std::string& doc : docs_it->second) {
    const auto state_it = txn_states_.find({txn, doc});
    if (state_it == txn_states_.end()) continue;
    TxnDocState& state = state_it->second;
    DocEntry* entry = entry_of(doc);
    if (entry != nullptr && !state.redo.empty()) {
      // The durability point: one O(delta) append of the transaction's
      // committed operations. Append-before-bookkeeping so a store
      // failure leaves memory unchanged and the abort path rolls back.
      const std::string record =
          wal::encode_record(entry->version + 1, txn, state.redo);
      Status appended = store_.append(wal::log_key(doc), record);
      if (!appended) {
        // Publish what was durably appended so far: those versions exist.
        if (snapshots_ != nullptr && !published.empty()) {
          snapshots_->publish(std::move(published));
        }
        return appended;
      }
      ++entry->version;
      entry->history.push_back(txn);
      entry->log_ops += state.redo.size();
      entry->log_bytes += record.size();
      note_checkpoint_policy(doc, *entry, nullptr);
      if (snapshots_ != nullptr && snapshots_->enabled()) {
        published.push_back(
            SnapshotStore::Delta{doc, entry->version, state.redo});
      }
    }
    state.undo.commit();
    txn_states_.erase(state_it);
    const auto writers = live_writers_.find(doc);
    if (writers != live_writers_.end() && --writers->second == 0) {
      live_writers_.erase(writers);
      if (entry != nullptr && entry->checkpoint_pending &&
          checkpoint_due != nullptr) {
        checkpoint_due->push_back(doc);
      }
    }
  }
  docs_of_txn_.erase(docs_it);
  if (snapshots_ != nullptr && !published.empty()) {
    snapshots_->publish(std::move(published));
  }
  return Status::ok();
}

void DataManager::note_checkpoint_policy(const std::string& doc,
                                         DocEntry& entry,
                                         std::vector<std::string>* due) {
  const bool over_ops =
      checkpoint_interval_ != 0 && entry.log_ops >= checkpoint_interval_;
  const bool over_bytes =
      checkpoint_log_bytes_ != 0 && entry.log_bytes >= checkpoint_log_bytes_;
  if (!over_ops && !over_bytes) return;
  entry.checkpoint_pending = true;
  if (due != nullptr && live_writers_.count(doc) == 0) due->push_back(doc);
}

void DataManager::run_checkpoints(const std::vector<std::string>& docs) {
  sync::MutexLock lock(checkpoint_mutex_);
  for (const std::string& doc : docs) {
    DocEntry* entry = entry_of(doc);
    if (entry == nullptr || !entry->checkpoint_pending) continue;
    // Deferred while any live transaction holds an undo log on the
    // document: the snapshot must only ever contain committed state.
    // (live_writers_ is stable here: its writers hold the data latch
    // exclusive, the caller holds it shared.)
    if (live_writers_.count(doc) != 0) continue;
    checkpoint_doc(doc, *entry);
  }
}

void DataManager::checkpoint_doc(const std::string& doc, DocEntry& entry) {
  // Three ordered writes; every crash window between them resolves (see
  // dtx/wal.hpp): 1. marker append ties version+hash to the coming
  // snapshot, 2. atomic snapshot replace, 3. log compaction to the
  // marker.
  const std::string bytes = xml::serialize(*entry.document);
  const std::uint64_t hash = wal::fnv1a(bytes);
  const std::string marker =
      wal::encode_checkpoint(entry.version, hash, entry.history);
  Status status = store_.append(wal::log_key(doc), marker);
  if (status) status = store_.store(doc, bytes);
  if (status) status = store_.store(wal::log_key(doc), marker);
  if (!status) {
    // checkpoint_pending stays set; the next commit/abort retries. The
    // log remains authoritative whichever write failed.
    DTX_ERROR() << "checkpoint of '" << doc
                << "' failed: " << status.to_string();
    return;
  }
  entry.checkpoint_pending = false;
  entry.log_ops = 0;
  entry.log_bytes = 0;
  if (snapshots_ != nullptr) {
    snapshots_->on_checkpoint(doc, entry.version);
  }
}

std::size_t DataManager::total_nodes() const {
  std::size_t total = 0;
  for (const auto& [name, entry] : documents_) {
    (void)name;
    total += entry.document->node_count();
  }
  return total;
}

std::size_t DataManager::total_guide_nodes() const {
  std::size_t total = 0;
  for (const auto& [name, entry] : documents_) {
    (void)name;
    total += entry.guide->node_count();
  }
  return total;
}

std::uint64_t DataManager::version_of(const std::string& doc) const {
  const auto it = documents_.find(doc);
  return it == documents_.end() ? 0 : it->second.version;
}

}  // namespace dtx::core
