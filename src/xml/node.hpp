// In-memory XML node. DTX manipulates documents entirely in main memory
// (paper §2: "XML data handling is conducted in the main memory") and only
// talks to the storage backend at load / persist time.
//
// The model is deliberately small: elements with attributes, and text nodes.
// Comments and processing instructions are skipped at parse time; they play
// no role in the paper's query/update languages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dtx::xml {

/// Stable per-document node identifier. Ids survive moves (transpose) and
/// are never reused within a document's lifetime, so undo logs and lock
/// bookkeeping can refer to nodes by value.
using NodeId = std::uint64_t;

inline constexpr NodeId kInvalidNodeId = 0;

enum class NodeKind : std::uint8_t { kElement, kText };

class Document;

class Node {
 public:
  Node(NodeKind kind, NodeId id, std::string name_or_value);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_element() const noexcept {
    return kind_ == NodeKind::kElement;
  }
  [[nodiscard]] bool is_text() const noexcept {
    return kind_ == NodeKind::kText;
  }
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Element tag name; empty for text nodes.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name);

  /// Text content for text nodes; unused for elements.
  [[nodiscard]] const std::string& value() const noexcept { return value_; }
  void set_value(std::string value);

  // --- attributes (elements only) -----------------------------------------
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  attributes() const noexcept {
    return attributes_;
  }
  /// nullptr when absent.
  [[nodiscard]] const std::string* attribute(std::string_view name) const;
  void set_attribute(std::string_view name, std::string value);
  /// Returns true when an attribute was removed.
  bool remove_attribute(std::string_view name);

  // --- tree structure ------------------------------------------------------
  [[nodiscard]] Node* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children()
      const noexcept {
    return children_;
  }
  [[nodiscard]] std::size_t child_count() const noexcept {
    return children_.size();
  }
  [[nodiscard]] Node* child(std::size_t index) const {
    return children_.at(index).get();
  }

  /// Index of this node within its parent; 0 for a root.
  [[nodiscard]] std::size_t index_in_parent() const;

  /// Inserts a child at position (clamped to [0, child_count()]). Takes
  /// ownership; returns the raw pointer for convenience.
  Node* insert_child(std::size_t position, std::unique_ptr<Node> child);
  Node* append_child(std::unique_ptr<Node> child) {
    return insert_child(children_.size(), std::move(child));
  }

  /// Detaches and returns the child at position.
  std::unique_ptr<Node> remove_child(std::size_t position);

  /// First element child with the given tag name, or nullptr.
  [[nodiscard]] Node* first_child_named(std::string_view tag) const;

  /// All element children with the given tag name.
  [[nodiscard]] std::vector<Node*> children_named(std::string_view tag) const;

  /// Concatenated text of direct text children (the common "leaf value").
  [[nodiscard]] std::string text() const;

  /// Concatenated text of the entire subtree in document order.
  [[nodiscard]] std::string deep_text() const;
  /// Appends deep_text() to `out`, one string for the whole subtree.
  void append_deep_text(std::string& out) const;

  /// "/site/people/person" style label path from the root to this node.
  /// Text nodes contribute the pseudo-label "#text".
  [[nodiscard]] std::string label_path() const;

  /// Number of nodes in this subtree (including this node).
  [[nodiscard]] std::size_t subtree_size() const;

  /// Depth of this node (root = 0).
  [[nodiscard]] std::size_t depth() const;

  /// True when `other` is this node or a descendant of it.
  [[nodiscard]] bool contains(const Node& other) const;

  /// Structural equality: kind, name/value, attributes (ordered) and
  /// children. Node ids are ignored.
  [[nodiscard]] bool deep_equal(const Node& other) const;

  /// Deep copy with fresh ids allocated from `id_source` (a Document).
  [[nodiscard]] std::unique_ptr<Node> clone(Document& id_source) const;

  /// Pre-order visit of this subtree; return false from the visitor to prune
  /// descent below a node.
  template <typename Visitor>
  void visit(Visitor&& visitor) const {
    if (!visitor(*this)) return;
    for (const auto& child : children_) child->visit(visitor);
  }

 private:
  friend class Document;

  NodeKind kind_;
  NodeId id_;
  std::string name_;   // element tag
  std::string value_;  // text payload
  std::vector<std::pair<std::string, std::string>> attributes_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace dtx::xml
