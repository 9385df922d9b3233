#include "xupdate/applier.hpp"

#include <cassert>

#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"

namespace dtx::xupdate {

namespace {

using dataguide::DataGuide;
using util::Code;
using util::Result;
using util::Status;
using xml::Node;

Status invalid(const std::string& what) {
  return Status(Code::kInvalidArgument, "update apply error: " + what);
}

/// Guide hook wrappers that tolerate a null guide.
void guide_added(DataGuide* guide, const Node& node) {
  if (guide != nullptr && node.parent() != nullptr) {
    guide->on_subtree_added(node, node.parent()->label_path());
  }
}

void guide_removing(DataGuide* guide, const Node& node) {
  if (guide != nullptr && node.parent() != nullptr) {
    guide->on_subtree_removed(node, node.parent()->label_path());
  }
}

Result<ApplyResult> apply_insert(const UpdateOp& op, xml::Document& document,
                                 UndoLog& undo, DataGuide* guide) {
  std::vector<Node*> targets = xpath::evaluate(op.target, document);
  std::size_t affected = 0;
  for (Node* target : targets) {
    auto fragment = xml::parse_fragment(op.content_xml, document);
    if (!fragment) return fragment.status();
    Node* inserted = nullptr;
    switch (op.where) {
      case InsertWhere::kInto:
        if (!target->is_element()) return invalid("insert-into a non-element");
        inserted = target->append_child(std::move(fragment).value());
        break;
      case InsertWhere::kBefore:
      case InsertWhere::kAfter: {
        Node* parent = target->parent();
        if (parent == nullptr) {
          return invalid("cannot insert beside the document root");
        }
        std::size_t position = target->index_in_parent();
        if (op.where == InsertWhere::kAfter) ++position;
        inserted = parent->insert_child(position, std::move(fragment).value());
        break;
      }
    }
    guide_added(guide, *inserted);
    undo.record_insert(inserted->id());
    ++affected;
  }
  return ApplyResult{affected};
}

Result<ApplyResult> apply_remove(const UpdateOp& op, xml::Document& document,
                                 UndoLog& undo, DataGuide* guide) {
  std::vector<Node*> targets = xpath::evaluate(op.target, document);
  // Removing a node invalidates the positions of later targets under the
  // same parent; remove in reverse document order so recorded positions stay
  // valid for re-attachment in reverse.
  std::size_t affected = 0;
  for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
    Node* target = *it;
    Node* parent = target->parent();
    if (parent == nullptr) return invalid("cannot remove the document root");
    guide_removing(guide, *target);
    const std::size_t position = target->index_in_parent();
    xml::Subtree detached = parent->remove_child(position);
    undo.record_remove(parent->id(), position, std::move(detached));
    ++affected;
  }
  return ApplyResult{affected};
}

Result<ApplyResult> apply_rename(const UpdateOp& op, xml::Document& document,
                                 UndoLog& undo, DataGuide* guide) {
  std::vector<Node*> targets = xpath::evaluate(op.target, document);
  std::size_t affected = 0;
  for (Node* target : targets) {
    if (!target->is_element()) return invalid("rename of a non-element");
    if (target->parent() == nullptr) {
      // Renaming the root would re-root the whole DataGuide; the DTX update
      // language does not need it and the guide keeps one root label.
      return invalid("cannot rename the document root");
    }
    const std::string old_name = target->name();
    undo.record_rename(target->id(), old_name);
    target->set_name(op.new_text);
    if (guide != nullptr && target->parent() != nullptr) {
      guide->on_subtree_renamed(*target, target->parent()->label_path(),
                                old_name);
    }
    ++affected;
  }
  return ApplyResult{affected};
}

Result<ApplyResult> apply_change(const UpdateOp& op, xml::Document& document,
                                 UndoLog& undo, DataGuide* guide) {
  std::vector<Node*> targets = xpath::evaluate(op.target, document);
  std::size_t affected = 0;
  for (Node* target : targets) {
    if (target->is_text()) {
      undo.record_set_value(target->id(), target->value());
      target->set_value(op.new_text);
      ++affected;
      continue;
    }
    // Element: replace its direct text content. Existing text children are
    // removed (reverse order, as in apply_remove), then one new text node is
    // appended.
    for (std::size_t i = target->child_count(); i-- > 0;) {
      if (!target->child(i)->is_text()) continue;
      guide_removing(guide, *target->child(i));
      xml::Subtree detached = target->remove_child(i);
      undo.record_remove(target->id(), i, std::move(detached));
    }
    Node* text = target->append_child(document.create_text(op.new_text));
    guide_added(guide, *text);
    undo.record_insert(text->id());
    ++affected;
  }
  return ApplyResult{affected};
}

Result<ApplyResult> apply_transpose(const UpdateOp& op,
                                    xml::Document& document, UndoLog& undo,
                                    DataGuide* guide) {
  std::vector<Node*> targets = xpath::evaluate(op.target, document);
  std::vector<Node*> destinations = xpath::evaluate(op.destination, document);
  if (targets.empty()) return ApplyResult{0};
  if (destinations.size() != 1) {
    return invalid("transpose destination must select exactly one node (got " +
                   std::to_string(destinations.size()) + ")");
  }
  Node* destination = destinations.front();
  if (!destination->is_element()) {
    return invalid("transpose destination must be an element");
  }
  std::size_t affected = 0;
  for (Node* target : targets) {
    if (target->parent() == nullptr) {
      return invalid("cannot transpose the document root");
    }
    if (target->contains(*destination)) {
      return invalid("transpose destination lies inside the moved subtree");
    }
    if (target == destination) return invalid("transpose onto itself");
    Node* old_parent = target->parent();
    const std::size_t old_position = target->index_in_parent();
    guide_removing(guide, *target);
    xml::Subtree detached = old_parent->remove_child(old_position);
    Node* moved = destination->append_child(std::move(detached));
    guide_added(guide, *moved);
    undo.record_move(target->id(), old_parent->id(), old_position);
    ++affected;
  }
  return ApplyResult{affected};
}

}  // namespace

Result<ApplyResult> apply(const UpdateOp& op, xml::Document& document,
                          UndoLog& undo, DataGuide* guide) {
  const std::size_t checkpoint = undo.checkpoint();
  Result<ApplyResult> result = [&]() -> Result<ApplyResult> {
    switch (op.kind) {
      case UpdateKind::kInsert:
        return apply_insert(op, document, undo, guide);
      case UpdateKind::kRemove:
        return apply_remove(op, document, undo, guide);
      case UpdateKind::kRename:
        return apply_rename(op, document, undo, guide);
      case UpdateKind::kChange:
        return apply_change(op, document, undo, guide);
      case UpdateKind::kTranspose:
        return apply_transpose(op, document, undo, guide);
    }
    return Status(Code::kInternal, "unknown update kind");
  }();
  if (!result) {
    // Leave the document (and guide) untouched on error.
    undo.undo_to(checkpoint, document, guide);
  }
  return result;
}

}  // namespace dtx::xupdate
