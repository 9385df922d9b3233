#include "xml/document.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dtx::xml {

namespace {

// Chunks grow geometrically up to a cap, so a small document stays small
// and a large one has few chunk boundaries.
constexpr std::size_t kFirstChunkNodes = 8;
constexpr std::size_t kMaxChunkNodes = 4096;
// Child spans are carved from blocks of pointers that grow the same way.
constexpr std::size_t kFirstChildBlock = 16;
constexpr std::size_t kMaxChildBlock = 8192;

}  // namespace

Document::Document(std::string name)
    : name_(std::move(name)), text_name_{std::string(), 0, this} {}

const Name* Document::intern(std::string_view text) {
  if (const Name* existing = lookup_name(text)) return existing;
  const Name& name = names_.emplace_back(
      Name{std::string(text), static_cast<std::uint32_t>(names_.size()), this});
  name_lookup_.emplace(name.text, &name);
  return &name;
}

const Name* Document::lookup_name(std::string_view text) const {
  const auto it = name_lookup_.find(text);
  return it == name_lookup_.end() ? nullptr : it->second;
}

Node* Document::allocate(NodeKind kind, const Name* name) {
  Node* node = nullptr;
  if (!free_.empty()) {
    node = free_.back();
    free_.pop_back();
  } else {
    if (chunk_used_ == chunk_capacity_) {
      chunk_capacity_ = chunks_.empty()
                            ? kFirstChunkNodes
                            : std::min(chunk_capacity_ * 2, kMaxChunkNodes);
      chunks_.emplace_back(new Node[chunk_capacity_]);
      payloads_.emplace_back(new Node::Payload[chunk_capacity_]);
      chunk_used_ = 0;
    }
    node = &chunks_.back()[chunk_used_];
    node->payload_ = &payloads_.back()[chunk_used_];
    ++chunk_used_;
  }
  if (index_.empty()) {
    index_.reserve(kFirstChunkNodes + 1);
    index_.push_back(nullptr);  // kInvalidNodeId
  }
  node->kind_ = kind;
  node->name_ = name;
  node->id_ = index_.size();
  index_.push_back(node);
  return node;
}

void Document::release(Node* subtree) noexcept {
  assert(subtree->parent_ == nullptr && subtree != root_);
  // Collect in pre-order, then hand the slots out in that order again:
  // free_ pops from the back, so push the subtree reversed.
  const std::size_t first = free_.size();
  subtree->visit([&](const Node& node) {
    free_.push_back(const_cast<Node*>(&node));
    return true;
  });
  std::reverse(free_.begin() + static_cast<std::ptrdiff_t>(first),
               free_.end());
  for (std::size_t i = first; i < free_.size(); ++i) {
    Node* node = free_[i];
    index_[node->id_] = nullptr;
    if (node->children_ != nullptr) {
      free_children(node->children_, node->child_capacity());
    }
    node->name_ = nullptr;
    node->children_ = nullptr;
    node->parent_ = nullptr;
    node->id_ = kInvalidNodeId;
    node->child_count_ = 0;
    node->element_child_count_ = 0;
    *node->payload_ = Node::Payload{};
    node->sync_attributes();
  }
}

Node** Document::allocate_children(std::uint32_t capacity) {
  const auto size_class = static_cast<std::size_t>(std::countr_zero(capacity));
  if (size_class < free_children_.size() &&
      !free_children_[size_class].empty()) {
    Node** array = free_children_[size_class].back();
    free_children_[size_class].pop_back();
    return array;
  }
  if (capacity > kMaxChildBlock / 4) {
    // Large spans get a block of their own, so a block's tail is never
    // wasted on one.
    return child_blocks_.emplace_back(new Node*[capacity]).get();
  }
  if (child_block_size_ - child_block_used_ < capacity) {
    child_block_size_ = std::max<std::size_t>(
        capacity, std::min(std::max(child_block_size_ * 2, kFirstChildBlock),
                           kMaxChildBlock));
    current_child_block_ = child_blocks_.emplace_back(
        new Node*[child_block_size_]).get();
    child_block_used_ = 0;
  }
  Node** array = current_child_block_ + child_block_used_;
  child_block_used_ += capacity;
  return array;
}

void Document::free_children(Node** array, std::uint32_t capacity) {
  const auto size_class = static_cast<std::size_t>(std::countr_zero(capacity));
  if (free_children_.size() <= size_class) {
    free_children_.resize(size_class + 1);
  }
  free_children_[size_class].push_back(array);
}

Node* Document::set_root(Subtree root) {
  assert(root == nullptr || root->is_element());
  Subtree old(root_);
  root_ = root.release();
  return root_;
}

Subtree Document::create_element(std::string_view tag) {
  return Subtree(allocate(NodeKind::kElement, intern(tag)));
}

Subtree Document::create_text(std::string text) {
  Node* node = allocate(NodeKind::kText, &text_name_);
  node->payload_->value = std::move(text);
  return Subtree(node);
}

Node* Document::copy_in(const Node& source, bool same_names) {
  const auto map = [&](const Name* name) {
    return same_names ? &names_[name->index] : intern(name->text);
  };
  Node* copy = allocate(source.kind_, source.is_text() ? &text_name_
                                                       : map(source.name_));
  copy->payload_->value = source.value();
  std::vector<Attribute>& attributes = copy->payload_->attributes;
  attributes.reserve(source.attributes().size());
  for (const Attribute& attribute : source.attributes()) {
    attributes.push_back(Attribute{map(attribute.key), attribute.value});
  }
  copy->sync_attributes();
  copy->reserve_children(source.child_count_);
  for (const Node* child : source.children()) {
    copy->append_child(Subtree(copy_in(*child, same_names)));
  }
  return copy;
}

std::size_t Document::node_count() const {
  return root_ == nullptr ? 0 : root_->subtree_size();
}

bool Document::deep_equal(const Document& other) const {
  if ((root_ == nullptr) != (other.root_ == nullptr)) return false;
  return root_ == nullptr || root_->deep_equal(*other.root_);
}

std::unique_ptr<Document> Document::clone(std::string new_name) const {
  auto copy = std::make_unique<Document>(std::move(new_name));
  // Same names at the same indexes, so copy_in maps them by index.
  for (const Name& name : names_) copy->intern(name.text);
  if (root_ != nullptr) copy->root_ = copy->copy_in(*root_, true);
  return copy;
}

}  // namespace dtx::xml
