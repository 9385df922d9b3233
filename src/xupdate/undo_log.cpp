#include "xupdate/undo_log.hpp"

#include <cassert>

namespace dtx::xupdate {

void UndoLog::record_insert(xml::NodeId inserted) {
  Entry entry;
  entry.kind = Kind::kDetachInserted;
  entry.node = inserted;
  entries_.push_back(std::move(entry));
}

void UndoLog::record_remove(xml::NodeId parent, std::size_t position,
                            xml::Subtree subtree) {
  assert(subtree != nullptr);
  Entry entry;
  entry.kind = Kind::kReattach;
  entry.parent = parent;
  entry.position = position;
  entry.subtree = std::move(subtree);
  entries_.push_back(std::move(entry));
}

void UndoLog::record_rename(xml::NodeId node, std::string old_name) {
  Entry entry;
  entry.kind = Kind::kRename;
  entry.node = node;
  entry.text = std::move(old_name);
  entries_.push_back(std::move(entry));
}

void UndoLog::record_set_value(xml::NodeId node, std::string old_value) {
  Entry entry;
  entry.kind = Kind::kSetValue;
  entry.node = node;
  entry.text = std::move(old_value);
  entries_.push_back(std::move(entry));
}

void UndoLog::record_move(xml::NodeId node, xml::NodeId old_parent,
                          std::size_t old_position) {
  Entry entry;
  entry.kind = Kind::kMoveBack;
  entry.node = node;
  entry.parent = old_parent;
  entry.position = old_position;
  entries_.push_back(std::move(entry));
}

void UndoLog::undo_entry(Entry& entry, xml::Document& document,
                         dataguide::DataGuide* guide) {
  switch (entry.kind) {
    case Kind::kDetachInserted: {
      xml::Node* node = document.find(entry.node);
      assert(node != nullptr && node->parent() != nullptr);
      if (guide != nullptr) {
        guide->on_subtree_removed(*node, node->parent()->label_path());
      }
      node->parent()->remove_child(node->index_in_parent());
      break;
    }
    case Kind::kReattach: {
      xml::Node* parent = document.find(entry.parent);
      assert(parent != nullptr);
      xml::Node* attached =
          parent->insert_child(entry.position, std::move(entry.subtree));
      if (guide != nullptr) {
        guide->on_subtree_added(*attached, parent->label_path());
      }
      break;
    }
    case Kind::kRename: {
      xml::Node* node = document.find(entry.node);
      assert(node != nullptr);
      const std::string current_name = node->name();
      node->set_name(std::move(entry.text));
      if (guide != nullptr) {
        const std::string parent_path =
            node->parent() == nullptr ? "" : node->parent()->label_path();
        guide->on_subtree_renamed(*node, parent_path, current_name);
      }
      break;
    }
    case Kind::kSetValue: {
      xml::Node* node = document.find(entry.node);
      assert(node != nullptr);
      node->set_value(std::move(entry.text));
      break;
    }
    case Kind::kMoveBack: {
      xml::Node* node = document.find(entry.node);
      xml::Node* old_parent = document.find(entry.parent);
      assert(node != nullptr && old_parent != nullptr &&
             node->parent() != nullptr);
      if (guide != nullptr) {
        guide->on_subtree_removed(*node, node->parent()->label_path());
      }
      xml::Subtree detached =
          node->parent()->remove_child(node->index_in_parent());
      xml::Node* attached =
          old_parent->insert_child(entry.position, std::move(detached));
      if (guide != nullptr) {
        guide->on_subtree_added(*attached, old_parent->label_path());
      }
      break;
    }
  }
}

void UndoLog::undo_to(std::size_t token, xml::Document& document,
                      dataguide::DataGuide* guide) {
  while (entries_.size() > token) {
    undo_entry(entries_.back(), document, guide);
    entries_.pop_back();
  }
}

}  // namespace dtx::xupdate
