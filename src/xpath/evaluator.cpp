#include "xpath/evaluator.hpp"

#include <cstdlib>
#include <deque>
#include <unordered_set>

namespace dtx::xpath {

namespace {

using xml::Node;

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

/// Whether `node` passes the node test of `step`. An attribute test is
/// passed by the element that owns the attribute.
bool node_test(const Node& node, const Step& step) {
  switch (step.test) {
    case NodeTest::kName:
      return node.is_element() && node.name() == step.name;
    case NodeTest::kWildcard:
      return node.is_element();
    case NodeTest::kText:
      return node.is_text();
    case NodeTest::kAttribute:
      return node.is_element() && node.attribute(step.name) != nullptr;
  }
  return false;
}

/// Appends `node` and its descendants that pass the node test, pre-order.
void append_subtree(Node& node, const Step& step, std::vector<Node*>& out) {
  if (node_test(node, step)) out.push_back(&node);
  for (const auto& child : node.children()) append_subtree(*child, step, out);
}

/// Appends the candidates `step` produces from one context, in document
/// order, before predicates. An attribute step selects the context itself
/// whatever its axis.
void append_candidates(Node& context, const Step& step,
                       std::vector<Node*>& out) {
  if (step.test == NodeTest::kAttribute) {
    if (node_test(context, step)) out.push_back(&context);
  } else if (step.axis == Axis::kChild) {
    for (const auto& child : context.children()) {
      if (node_test(*child, step)) out.push_back(child.get());
    }
  } else {
    for (const auto& child : context.children()) {
      append_subtree(*child, step, out);
    }
  }
}

/// Node buffers reused by every evaluation on one thread. Predicate paths
/// borrow them in stack order; a deque keeps the buffers of outer levels in
/// place while inner levels grow it. A buffer keeps the capacity of the
/// largest selection it held, a few percent of the document's size.
struct Scratch {
  std::deque<std::vector<Node*>> buffers;
  std::size_t used = 0;
  std::string text;
};

/// One cleared scratch buffer, handed back when the borrow ends.
class Borrowed {
 public:
  explicit Borrowed(Scratch& scratch) : scratch_(scratch) {
    if (scratch.used == scratch.buffers.size()) scratch.buffers.emplace_back();
    buffer_ = &scratch.buffers[scratch.used++];
    buffer_->clear();
  }
  Borrowed(const Borrowed&) = delete;
  Borrowed& operator=(const Borrowed&) = delete;
  ~Borrowed() { --scratch_.used; }

  std::vector<Node*>& operator*() const { return *buffer_; }
  std::vector<Node*>* operator->() const { return buffer_; }

 private:
  Scratch& scratch_;
  std::vector<Node*>* buffer_ = nullptr;
};

class Evaluator {
 public:
  Evaluator() : scratch_(instance()) {}

  /// Selection of `path` from the virtual document node whose only child
  /// is `root`: the child axis tests the root, the descendant axis the
  /// root's whole subtree, an attribute test the root's attributes.
  std::vector<Node*> absolute(const Path& path, Node& root) {
    const Step& first = path.steps.front();
    Borrowed nodes(scratch_);
    if (first.axis == Axis::kChild || first.test == NodeTest::kAttribute) {
      if (node_test(root, first)) nodes->push_back(&root);
    } else {
      append_subtree(root, first, *nodes);
    }
    filter(first, *nodes, 0);
    run(path.steps.data() + 1, path.steps.data() + path.steps.size(),
        *nodes);
    return {nodes->begin(), nodes->end()};
  }

  /// Selection of `steps` from `context`.
  std::vector<Node*> relative(const std::vector<Step>& steps,
                              Node& context) {
    Borrowed nodes(scratch_);
    nodes->push_back(&context);
    run(steps.data(), steps.data() + steps.size(), *nodes);
    return {nodes->begin(), nodes->end()};
  }

 private:
  static Scratch& instance() {
    thread_local Scratch scratch;
    return scratch;
  }

  /// Applies steps [first, last) to the contexts in `nodes` and leaves the
  /// selection in their place. Each step appends every context's candidates
  /// to one output buffer and filters them there, so position predicates
  /// still count per context.
  void run(const Step* first, const Step* last, std::vector<Node*>& nodes) {
    if (first == last) return;
    Borrowed out(scratch_);
    for (; first != last && !nodes.empty(); ++first) {
      out->clear();
      apply(*first, nodes, *out);
      nodes.swap(*out);
    }
  }

  /// Keeps the candidates in out[mark, end) that pass the predicates of
  /// `step`, applied left to right to that one context's list.
  void filter(const Step& step, std::vector<Node*>& out, std::size_t mark) {
    for (const Predicate& predicate : step.predicates) {
      if (out.size() == mark) return;
      if (predicate.kind == PredicateKind::kPosition) {
        if (predicate.position > out.size() - mark) {
          out.resize(mark);
        } else {
          out[mark] = out[mark + predicate.position - 1];
          out.resize(mark + 1);
        }
        continue;
      }
      auto kept = out.begin() + static_cast<std::ptrdiff_t>(mark);
      for (auto it = kept; it != out.end(); ++it) {
        if (holds(**it, predicate)) *kept++ = *it;
      }
      out.erase(kept, out.end());
    }
  }

  void apply(const Step& step, const std::vector<Node*>& contexts,
             std::vector<Node*>& out) {
    // Contexts are distinct, and a node has one parent, so child and
    // attribute steps cannot select a node twice. Only a descendant step
    // run from several contexts can: one context may lie below another.
    const bool overlap = step.axis == Axis::kDescendant &&
                         step.test != NodeTest::kAttribute &&
                         contexts.size() > 1;
    std::unordered_set<const Node*> seen;
    for (Node* context : contexts) {
      const std::size_t mark = out.size();
      append_candidates(*context, step, out);
      filter(step, out, mark);
      if (!overlap) continue;
      auto kept = out.begin() + static_cast<std::ptrdiff_t>(mark);
      for (auto it = kept; it != out.end(); ++it) {
        if (seen.insert(*it).second) *kept++ = *it;
      }
      out.erase(kept, out.end());
    }
  }

  bool holds(Node& candidate, const Predicate& predicate) {
    const std::vector<Step>& steps = predicate.path.steps;
    const Step* attribute =
        !steps.empty() && steps.back().test == NodeTest::kAttribute
            ? &steps.back()
            : nullptr;
    if (steps.size() == 1 && attribute != nullptr &&
        attribute->predicates.empty()) {
      // [@a] and [@a=literal]: one attribute lookup, no selection. A text
      // node has no attributes, so it fails both.
      const std::string* value = candidate.attribute(attribute->name);
      return value != nullptr && (predicate.kind == PredicateKind::kExists ||
                                  literal_equals(*value, predicate.literal));
    }

    Borrowed selected(scratch_);
    selected->push_back(&candidate);
    run(steps.data(), steps.data() + steps.size(), *selected);
    if (predicate.kind == PredicateKind::kExists) return !selected->empty();
    for (const Node* node : *selected) {
      if (attribute != nullptr) {
        const std::string* value = node->attribute(attribute->name);
        if (value != nullptr && literal_equals(*value, predicate.literal)) {
          return true;
        }
      } else if (literal_equals(value_of(*node), predicate.literal)) {
        return true;
      }
    }
    return false;
  }

  /// String-value of `node`: a reference to the text when one text node
  /// holds it (a leaf element), otherwise built in the scratch string.
  const std::string& value_of(const Node& node) {
    if (node.is_text()) return node.value();
    const auto& children = node.children();
    if (children.size() == 1 && children.front()->is_text()) {
      return children.front()->value();
    }
    scratch_.text.clear();
    node.append_deep_text(scratch_.text);
    return scratch_.text;
  }

  Scratch& scratch_;
};

}  // namespace

std::string string_value(const xml::Node& node) {
  return node.is_text() ? node.value() : node.deep_text();
}

bool literal_equals(const std::string& value, const std::string& literal) {
  double a = 0.0;
  double b = 0.0;
  if (parse_number(value, a) && parse_number(literal, b)) return a == b;
  return value == literal;
}

std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document) {
  if (!document.has_root() || path.empty()) return {};
  return Evaluator().absolute(path, *document.root());
}

std::vector<xml::Node*> evaluate_relative(const RelativePath& path,
                                          xml::Node& context) {
  return Evaluator().relative(path.steps, context);
}

std::vector<std::string> evaluate_strings(const Path& path,
                                          const xml::Document& document) {
  std::vector<xml::Node*> nodes = evaluate(path, document);
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (xml::Node* node : nodes) {
    if (path.targets_attribute()) {
      const std::string* attr = node->attribute(path.steps.back().name);
      out.push_back(attr == nullptr ? std::string() : *attr);
    } else {
      out.push_back(string_value(*node));
    }
  }
  return out;
}

}  // namespace dtx::xpath
