// Per-(transaction, document) undo log. Every mutation the applier performs
// appends an inverse entry; rollback replays the entries in reverse order
// (paper §2: "upon abortion, the transaction undoes all its effects on the
// required data").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataguide/dataguide.hpp"
#include "xml/document.hpp"

namespace dtx::xupdate {

class UndoLog {
 public:
  UndoLog() = default;
  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;
  UndoLog(UndoLog&&) = default;
  UndoLog& operator=(UndoLog&&) = default;

  /// Undo of an insert: detach and destroy the node with this id.
  void record_insert(xml::NodeId inserted);

  /// Undo of a remove: reattach `subtree` under `parent` at `position`.
  void record_remove(xml::NodeId parent, std::size_t position,
                     xml::Subtree subtree);

  /// Undo of a rename: restore the old element name.
  void record_rename(xml::NodeId node, std::string old_name);

  /// Undo of a text-value change: restore the old value.
  void record_set_value(xml::NodeId node, std::string old_value);

  /// Undo of a transpose: move `node` back under `old_parent` at
  /// `old_position`.
  void record_move(xml::NodeId node, xml::NodeId old_parent,
                   std::size_t old_position);

  /// Marks a checkpoint and returns a token; undo_to unwinds back to it.
  /// Used to undo a single failed operation without aborting the
  /// transaction (Alg. 3 l. 12).
  [[nodiscard]] std::size_t checkpoint() const noexcept {
    return entries_.size();
  }

  /// Rolls back every entry recorded after `token` (newest first). Pass the
  /// same `guide` the forward application maintained (or nullptr for none).
  void undo_to(std::size_t token, xml::Document& document,
               dataguide::DataGuide* guide = nullptr);

  /// Rolls back everything (transaction abort).
  void undo_all(xml::Document& document,
                dataguide::DataGuide* guide = nullptr) {
    undo_to(0, document, guide);
  }

  /// Commit: drops the log. Detached subtrees held for potential reattach
  /// are dropped, which frees their nodes.
  void commit() noexcept { entries_.clear(); }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  enum class Kind : std::uint8_t {
    kDetachInserted,
    kReattach,
    kRename,
    kSetValue,
    kMoveBack,
  };

  struct Entry {
    Kind kind;
    xml::NodeId node = xml::kInvalidNodeId;
    xml::NodeId parent = xml::kInvalidNodeId;
    std::size_t position = 0;
    std::string text;
    xml::Subtree subtree;
  };

  void undo_entry(Entry& entry, xml::Document& document,
                  dataguide::DataGuide* guide);

  std::vector<Entry> entries_;
};

}  // namespace dtx::xupdate
