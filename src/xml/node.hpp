// In-memory XML node. DTX manipulates documents entirely in main memory
// (paper §2: "XML data handling is conducted in the main memory") and only
// talks to the storage backend at load / persist time.
//
// The model is deliberately small: elements with attributes, and text nodes.
// Comments and processing instructions are skipped at parse time; they play
// no role in the paper's query/update languages.
//
// Storage. Every node of a document lives in that document's node pool
// (xml::Document): fixed-size 64-byte records allocated in creation order
// from a few large chunks, so the parser, Node::clone and the WAL replay —
// which all build in pre-order — lay each subtree out contiguously and a
// walk streams memory instead of chasing one heap block per node. A record
// holds what walks and node tests read; attribute values, text and the id
// live in a payload slot beside it. A node reaches its children through a
// compact span of pointers, also carved from the document (appending is
// amortized O(1), as in a vector), so the loads of one node's children do
// not wait on each other. Element names and attribute keys are interned per
// document (xml::Name): nodes carrying the same name share one Name, so a
// node test is a pointer compare. Document::find reads a dense vector
// indexed by id.
//
// Lifetime. A node belongs to its document and never outlives it. A node
// created but not yet attached, or removed from its parent, is held by an
// xml::Subtree handle — the undo log keeps removed subtrees that way until
// it re-attaches them or drops them. Dropping a Subtree returns its slots
// to the pool for reuse; node ids are never reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace dtx::xml {

/// Stable per-document node identifier. Ids survive moves (transpose) and
/// are never reused within a document's lifetime, so undo logs and lock
/// bookkeeping can refer to nodes by value.
using NodeId = std::uint64_t;

inline constexpr NodeId kInvalidNodeId = 0;

enum class NodeKind : std::uint8_t { kElement, kText };

class Document;
class Node;

/// An element name or attribute key, stored once per document. All nodes
/// of one document that carry the same name point at the same Name, so
/// names of one document are equal exactly when their pointers are.
struct Name {
  std::string text;
  std::uint32_t index = 0;      ///< position in the document's name table
  Document* document = nullptr;  ///< the document that interned it
};

/// One attribute of an element. Binds as `const auto& [key, value]`, both
/// strings.
struct Attribute {
  const Name* key = nullptr;
  std::string value;

  [[nodiscard]] const std::string& name() const noexcept { return key->text; }

  friend bool operator==(const Attribute& a, const Attribute& b) {
    return a.name() == b.name() && a.value == b.value;
  }
  friend bool operator<(const Attribute& a, const Attribute& b) {
    return std::tie(a.name(), a.value) < std::tie(b.name(), b.value);
  }
};

template <std::size_t I>
[[nodiscard]] const std::string& get(const Attribute& attribute) noexcept {
  static_assert(I < 2);
  if constexpr (I == 0) {
    return attribute.name();
  } else {
    return attribute.value;
  }
}

/// Owning handle of a detached subtree: a node created but not yet
/// attached, or one removed from its parent. Attaching it (insert_child,
/// append_child, Document::set_root) hands the nodes back to the tree;
/// dropping it frees their slots and forgets their ids. A Subtree must not
/// outlive its document.
class Subtree {
 public:
  Subtree() noexcept = default;
  Subtree(Subtree&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Subtree& operator=(Subtree&& other) noexcept {
    if (this != &other) {
      reset();
      node_ = std::exchange(other.node_, nullptr);
    }
    return *this;
  }
  Subtree(const Subtree&) = delete;
  Subtree& operator=(const Subtree&) = delete;
  ~Subtree() { reset(); }

  [[nodiscard]] Node* get() const noexcept { return node_; }
  Node* operator->() const noexcept { return node_; }
  Node& operator*() const noexcept { return *node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }
  friend bool operator==(const Subtree& subtree, std::nullptr_t) noexcept {
    return subtree.node_ == nullptr;
  }

  /// Frees the subtree (no-op when empty).
  void reset() noexcept;

 private:
  friend class Document;
  friend class Node;

  explicit Subtree(Node* node) noexcept : node_(node) {}
  Node* release() noexcept { return std::exchange(node_, nullptr); }

  Node* node_ = nullptr;
};

// One cache line per node, aligned: a walk reads one line per node.
class alignas(64) Node {
 public:
  ~Node() = default;
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
  [[nodiscard]] Document& document() const noexcept {
    return *name_->document;
  }

  /// Element tag name; empty for text nodes.
  [[nodiscard]] const std::string& name() const noexcept {
    return name_->text;
  }
  /// The document's interned form of name(): equal names, equal pointers.
  [[nodiscard]] const Name* interned_name() const noexcept { return name_; }
  void set_name(std::string_view name);

  /// Text content for text nodes; unused for elements.
  [[nodiscard]] const std::string& value() const noexcept {
    return payload_->value;
  }
  void set_value(std::string value);

  // --- attributes (elements only) -----------------------------------------
  [[nodiscard]] const std::vector<Attribute>& attributes() const noexcept {
    return payload_->attributes;
  }
  /// nullptr when absent.
  [[nodiscard]] const std::string* attribute(std::string_view name) const;
  /// Lookup by interned key (see Document::lookup_name); nullptr when absent.
  [[nodiscard]] const std::string* attribute(const Name* key) const noexcept {
    for (std::uint32_t i = 0; i < attribute_count_; ++i) {
      if (attributes_[i].key == key) return &attributes_[i].value;
    }
    return nullptr;
  }
  void set_attribute(std::string_view name, std::string value);
  /// Returns true when an attribute was removed.
  bool remove_attribute(std::string_view name);

  // --- tree structure ------------------------------------------------------
  [[nodiscard]] Node* parent() const noexcept { return parent_; }
  /// The children in document order.
  [[nodiscard]] std::span<Node* const> children() const noexcept {
    return {children_, child_count_};
  }
  [[nodiscard]] std::size_t child_count() const noexcept {
    return child_count_;
  }
  /// How many of the children are elements: a walk for elements need not
  /// enter a node whose children are all text.
  [[nodiscard]] std::size_t element_child_count() const noexcept {
    return element_child_count_;
  }
  /// The child at `index`; nullptr when out of range.
  [[nodiscard]] Node* child(std::size_t index) const noexcept {
    return index < child_count_ ? children_[index] : nullptr;
  }

  /// Index of this node within its parent; 0 for a root.
  [[nodiscard]] std::size_t index_in_parent() const;

  /// Inserts a detached subtree of this document as a child at position
  /// (clamped to [0, child_count()]). Returns the attached node. Appending
  /// is amortized O(1); inserting elsewhere shifts the later children.
  Node* insert_child(std::size_t position, Subtree subtree);
  Node* append_child(Subtree subtree) {
    return insert_child(child_count_, std::move(subtree));
  }

  /// Detaches and returns the child at position.
  Subtree remove_child(std::size_t position);

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

  /// Deep copy into `target` (this document or another), fresh ids,
  /// allocated in pre-order.
  [[nodiscard]] Subtree clone(Document& target) const;

  /// Pre-order visit of this subtree; return false from the visitor to prune
  /// descent below a node.
  template <typename Visitor>
  void visit(Visitor&& visitor) const {
    if (!visitor(*this)) return;
    for (const Node* child : children()) child->visit(visitor);
  }

 private:
  friend class Document;
  friend class Subtree;

  /// What walks and node tests do not read, kept out of the record so that
  /// a record is one cache line. Each pool slot owns one payload for the
  /// pool's life.
  struct Payload {
    std::vector<Attribute> attributes;  // elements
    std::string value;                  // text nodes
  };

  Node() = default;
  /// Refreshes the record's view of payload_->attributes after a change.
  void sync_attributes() noexcept {
    attributes_ = payload_->attributes.data();
    attribute_count_ = static_cast<std::uint32_t>(payload_->attributes.size());
  }
  /// Makes room for `count` children (the span doubles when it grows).
  void reserve_children(std::size_t count);

  /// Slots in the child span; 0 when there is none.
  [[nodiscard]] std::uint32_t child_capacity() const noexcept {
    return children_ == nullptr ? 0 : std::uint32_t{1} << capacity_log2_;
  }

  const Name* name_ = nullptr;  // text nodes: the document's empty name
  Node** children_ = nullptr;   // child_capacity() slots, child_count_ used
  Node* parent_ = nullptr;
  /// payload_->attributes, readable without touching the payload.
  const Attribute* attributes_ = nullptr;
  Payload* payload_ = nullptr;
  NodeId id_ = kInvalidNodeId;
  std::uint32_t child_count_ = 0;
  std::uint32_t element_child_count_ = 0;
  std::uint32_t attribute_count_ = 0;
  NodeKind kind_ = NodeKind::kElement;
  std::uint8_t capacity_log2_ = 0;
};

static_assert(sizeof(Node) == 64, "a node record is one cache line");

}  // namespace dtx::xml

template <>
struct std::tuple_size<dtx::xml::Attribute>
    : std::integral_constant<std::size_t, 2> {};

template <std::size_t I>
struct std::tuple_element<I, dtx::xml::Attribute> {
  using type = const std::string;
};
