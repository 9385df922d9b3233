#include "xml/node.hpp"

#include <algorithm>
#include <cassert>

#include "xml/document.hpp"

namespace dtx::xml {

Node::Node(NodeKind kind, NodeId id, std::string name_or_value)
    : kind_(kind), id_(id) {
  if (kind == NodeKind::kElement) {
    name_ = std::move(name_or_value);
  } else {
    value_ = std::move(name_or_value);
  }
}

void Node::set_name(std::string name) {
  assert(is_element());
  name_ = std::move(name);
}

void Node::set_value(std::string value) { value_ = std::move(value); }

const std::string* Node::attribute(std::string_view name) const {
  for (const auto& [key, value] : attributes_) {
    if (key == name) return &value;
  }
  return nullptr;
}

void Node::set_attribute(std::string_view name, std::string value) {
  assert(is_element());
  for (auto& [key, existing] : attributes_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::string(name), std::move(value));
}

bool Node::remove_attribute(std::string_view name) {
  const auto it = std::find_if(
      attributes_.begin(), attributes_.end(),
      [&](const auto& pair) { return pair.first == name; });
  if (it == attributes_.end()) return false;
  attributes_.erase(it);
  return true;
}

std::size_t Node::index_in_parent() const {
  if (parent_ == nullptr) return 0;
  for (std::size_t i = 0; i < parent_->children_.size(); ++i) {
    if (parent_->children_[i].get() == this) return i;
  }
  assert(false && "node not found in its parent's child list");
  return 0;
}

Node* Node::insert_child(std::size_t position, std::unique_ptr<Node> child) {
  assert(is_element() && "text nodes cannot have children");
  assert(child != nullptr);
  assert(child->parent_ == nullptr && "child must be detached first");
  position = std::min(position, children_.size());
  child->parent_ = this;
  Node* raw = child.get();
  children_.insert(children_.begin() + static_cast<std::ptrdiff_t>(position),
                   std::move(child));
  return raw;
}

std::unique_ptr<Node> Node::remove_child(std::size_t position) {
  assert(position < children_.size());
  std::unique_ptr<Node> child =
      std::move(children_[position]);
  children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(position));
  child->parent_ = nullptr;
  return child;
}

Node* Node::first_child_named(std::string_view tag) const {
  for (const auto& child : children_) {
    if (child->is_element() && child->name() == tag) return child.get();
  }
  return nullptr;
}

std::vector<Node*> Node::children_named(std::string_view tag) const {
  std::vector<Node*> out;
  for (const auto& child : children_) {
    if (child->is_element() && child->name() == tag) out.push_back(child.get());
  }
  return out;
}

std::string Node::text() const {
  std::string out;
  for (const auto& child : children_) {
    if (child->is_text()) out += child->value();
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
    out += value_;
    return;
  }
  for (const auto& child : children_) child->append_deep_text(out);
}

std::string Node::label_path() const {
  std::vector<const Node*> chain;
  for (const Node* node = this; node != nullptr; node = node->parent_) {
    chain.push_back(node);
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    path += '/';
    path += (*it)->is_element() ? (*it)->name_ : "#text";
  }
  return path;
}

std::size_t Node::subtree_size() const {
  std::size_t total = 1;
  for (const auto& child : children_) total += child->subtree_size();
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
  if (kind_ != other.kind_ || name_ != other.name_ || value_ != other.value_ ||
      attributes_ != other.attributes_ ||
      children_.size() != other.children_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->deep_equal(*other.children_[i])) return false;
  }
  return true;
}

std::unique_ptr<Node> Node::clone(Document& id_source) const {
  std::unique_ptr<Node> copy =
      is_element() ? id_source.create_element(name_)
                   : id_source.create_text(value_);
  copy->attributes_ = attributes_;
  for (const auto& child : children_) {
    copy->append_child(child->clone(id_source));
  }
  return copy;
}

}  // namespace dtx::xml
