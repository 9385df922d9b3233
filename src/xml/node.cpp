#include "xml/node.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "xml/document.hpp"

namespace dtx::xml {

void Subtree::reset() noexcept {
  Node* node = std::exchange(node_, nullptr);
  if (node != nullptr) node->document().release(node);
}

void Node::set_name(std::string_view name) {
  assert(is_element());
  name_ = document().intern(name);
}

void Node::set_value(std::string value) { payload_->value = std::move(value); }

const std::string* Node::attribute(std::string_view name) const {
  for (std::uint32_t i = 0; i < attribute_count_; ++i) {
    if (attributes_[i].name() == name) return &attributes_[i].value;
  }
  return nullptr;
}

void Node::set_attribute(std::string_view name, std::string value) {
  assert(is_element());
  const Name* key = document().intern(name);
  for (Attribute& attribute : payload_->attributes) {
    if (attribute.key == key) {
      attribute.value = std::move(value);
      return;
    }
  }
  payload_->attributes.push_back(Attribute{key, std::move(value)});
  sync_attributes();
}

bool Node::remove_attribute(std::string_view name) {
  const auto it =
      std::find_if(payload_->attributes.begin(), payload_->attributes.end(),
                   [&](const Attribute& attribute) {
                     return attribute.name() == name;
                   });
  if (it == payload_->attributes.end()) return false;
  payload_->attributes.erase(it);
  sync_attributes();
  return true;
}

std::size_t Node::index_in_parent() const {
  if (parent_ == nullptr) return 0;
  const auto siblings = parent_->children();
  const auto it = std::find(siblings.begin(), siblings.end(), this);
  assert(it != siblings.end() && "node not found in its parent's child list");
  return static_cast<std::size_t>(it - siblings.begin());
}

void Node::reserve_children(std::size_t count) {
  if (count <= child_capacity()) return;
  const std::uint32_t capacity =
      std::bit_ceil(static_cast<std::uint32_t>(count));
  Node** grown = document().allocate_children(capacity);
  std::copy(children_, children_ + child_count_, grown);
  if (children_ != nullptr) {
    document().free_children(children_, child_capacity());
  }
  children_ = grown;
  capacity_log2_ = static_cast<std::uint8_t>(std::countr_zero(capacity));
}

Node* Node::insert_child(std::size_t position, Subtree subtree) {
  assert(is_element() && "text nodes cannot have children");
  assert(subtree != nullptr);
  Node* node = subtree.release();
  assert(node->parent_ == nullptr && "child must be detached first");
  assert(&node->document() == &document() &&
         "child belongs to another document");
  reserve_children(child_count_ + 1);
  position = std::min<std::size_t>(position, child_count_);
  std::copy_backward(children_ + position, children_ + child_count_,
                     children_ + child_count_ + 1);
  children_[position] = node;
  ++child_count_;
  if (node->is_element()) ++element_child_count_;
  node->parent_ = this;
  return node;
}

Subtree Node::remove_child(std::size_t position) {
  assert(position < child_count_);
  Node* node = children_[position];
  std::copy(children_ + position + 1, children_ + child_count_,
            children_ + position);
  --child_count_;
  if (node->is_element()) --element_child_count_;
  node->parent_ = nullptr;
  return Subtree(node);
}

Node* Node::first_child_named(std::string_view tag) const {
  const Name* name = document().lookup_name(tag);
  if (name == nullptr) return nullptr;
  for (Node* node : children()) {
    if (node->name_ == name && node->is_element()) return node;
  }
  return nullptr;
}

std::vector<Node*> Node::children_named(std::string_view tag) const {
  std::vector<Node*> out;
  const Name* name = document().lookup_name(tag);
  if (name == nullptr) return out;
  for (Node* node : children()) {
    if (node->name_ == name && node->is_element()) out.push_back(node);
  }
  return out;
}

std::string Node::text() const {
  std::string out;
  for (const Node* node : children()) {
    if (node->is_text()) out += node->value();
  }
  return out;
}

std::string Node::deep_text() const {
  std::string out;
  append_deep_text(out);
  return out;
}

void Node::append_deep_text(std::string& out) const {
  if (is_text()) {
    out += value();
    return;
  }
  for (const Node* node : children()) node->append_deep_text(out);
}

std::string Node::label_path() const {
  std::vector<const Node*> chain;
  for (const Node* node = this; node != nullptr; node = node->parent_) {
    chain.push_back(node);
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    path += '/';
    path += (*it)->is_element() ? (*it)->name() : "#text";
  }
  return path;
}

std::size_t Node::subtree_size() const {
  std::size_t total = 1;
  for (const Node* node : children()) total += node->subtree_size();
  return total;
}

std::size_t Node::depth() const {
  std::size_t d = 0;
  for (const Node* node = parent_; node != nullptr; node = node->parent_) ++d;
  return d;
}

bool Node::contains(const Node& other) const {
  for (const Node* node = &other; node != nullptr; node = node->parent_) {
    if (node == this) return true;
  }
  return false;
}

bool Node::deep_equal(const Node& other) const {
  if (kind_ != other.kind_ || name() != other.name() ||
      value() != other.value() || attributes() != other.attributes() ||
      child_count_ != other.child_count_) {
    return false;
  }
  for (std::size_t i = 0; i < child_count_; ++i) {
    if (!children_[i]->deep_equal(*other.children_[i])) return false;
  }
  return true;
}

Subtree Node::clone(Document& target) const {
  return Subtree(target.copy_in(*this, &target == &document()));
}

}  // namespace dtx::xml
