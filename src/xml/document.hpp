// A Document owns one XML tree: the node pool every node of the tree lives
// in, the interned names, and the dense id index used by undo logs and the
// DataGuide extents (see xml/node.hpp for the layout and lifetime rules).
//
// Replica note: each DTX site parses its own copy of a document from storage,
// so node ids are site-local. Operations travel between sites as language
// level specifications (XPath + update spec) and are re-evaluated locally;
// node ids never cross the wire.
//
// Thread safety: const members only read, so any number of readers may
// share a document that nobody mutates; a mutation (creating, attaching,
// renaming, dropping nodes) needs exclusive access.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xml/node.hpp"

namespace dtx::xml {

class Document {
 public:
  explicit Document(std::string name);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] Node* root() const noexcept { return root_; }
  [[nodiscard]] bool has_root() const noexcept { return root_ != nullptr; }

  /// Installs a root element (drops any existing tree).
  Node* set_root(Subtree root);

  /// Creates a detached element / text node of this document.
  [[nodiscard]] Subtree create_element(std::string_view tag);
  [[nodiscard]] Subtree create_text(std::string text);

  /// Id lookup. May return a node that is currently detached from the tree
  /// (e.g. held by an undo log); returns nullptr for unknown or dropped ids.
  [[nodiscard]] Node* find(NodeId id) const noexcept {
    return id < index_.size() ? index_[id] : nullptr;
  }

  /// This document's interned form of `text`; nullptr when no element name
  /// or attribute key of the document was ever spelled that way (so no node
  /// can match it).
  [[nodiscard]] const Name* lookup_name(std::string_view text) const;

  /// Number of nodes in the live tree (0 when empty).
  [[nodiscard]] std::size_t node_count() const;

  /// Deep structural equality of the live trees (names, values, attributes).
  [[nodiscard]] bool deep_equal(const Document& other) const;

  /// Full deep copy (fresh ids, allocated in pre-order) under a new name.
  [[nodiscard]] std::unique_ptr<Document> clone(std::string new_name) const;

 private:
  friend class Node;
  friend class Subtree;

  const Name* intern(std::string_view text);
  /// A fresh node in a free slot, registered under the next id.
  Node* allocate(NodeKind kind, const Name* name);
  /// Returns the slots of a detached subtree to the pool and unregisters
  /// its ids.
  void release(Node* subtree) noexcept;
  /// A span of `capacity` (a power of two) child slots, reused when one
  /// of that size was freed.
  Node** allocate_children(std::uint32_t capacity);
  void free_children(Node** array, std::uint32_t capacity);
  /// Pre-order copy of `source` into this document. `same_names`: this
  /// document's name table agrees with the source's index by index (the
  /// source's own document, or a clone), so names map without hashing.
  Node* copy_in(const Node& source, bool same_names);

  std::string name_;
  Node* root_ = nullptr;

  /// The pool: chunks of node records, the last one filled up to
  /// chunk_used_, plus the slots freed since (reused first). payloads_
  /// holds each chunk's payloads, slot for slot.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::unique_ptr<Node::Payload[]>> payloads_;
  std::size_t chunk_used_ = 0;
  std::size_t chunk_capacity_ = 0;
  std::vector<Node*> free_;

  /// Child spans: blocks of pointers, the current one filled up to
  /// child_block_used_, and the freed spans by log2 of their capacity.
  std::vector<std::unique_ptr<Node*[]>> child_blocks_;
  Node** current_child_block_ = nullptr;
  std::size_t child_block_used_ = 0;
  std::size_t child_block_size_ = 0;
  std::vector<std::vector<Node**>> free_children_;

  /// Node by id; nullptr for id 0 and for dropped nodes.
  std::vector<Node*> index_;

  /// The empty name every text node carries, and the interned names, each
  /// at its index (a deque keeps them in place as it grows).
  Name text_name_;
  std::deque<Name> names_;
  std::unordered_map<std::string_view, const Name*> name_lookup_;
};

}  // namespace dtx::xml
