#include "xpath/evaluator.hpp"

#include <cstdlib>
#include <deque>
#include <unordered_set>

namespace dtx::xpath {

namespace {

using xml::Name;
using xml::Node;

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

/// An equality predicate's literal, classified once: a candidate's value is
/// parsed as a number only when the literal is one.
class Literal {
 public:
  explicit Literal(const std::string& text)
      : text_(text), numeric_(parse_number(text, number_)) {}

  [[nodiscard]] bool equals(const std::string& value) const {
    double parsed = 0.0;
    if (numeric_ && parse_number(value, parsed)) return parsed == number_;
    return value == text_;
  }

 private:
  const std::string& text_;
  double number_ = 0.0;
  bool numeric_;
};

/// A step's node test bound to one document: names become that document's
/// interned Name, so testing a node is a pointer compare.
struct Test {
  NodeTest kind = NodeTest::kName;
  /// kName / kAttribute: nullptr when the document has no such name, so
  /// no node passes.
  const Name* name = nullptr;

  /// Whether `node` passes. An attribute test is passed by the element
  /// that owns the attribute.
  [[nodiscard]] bool passes(const Node& node) const noexcept {
    switch (kind) {
      case NodeTest::kName:
        return node.interned_name() == name && node.is_element();
      case NodeTest::kWildcard:
        return node.is_element();
      case NodeTest::kText:
        return node.is_text();
      case NodeTest::kAttribute:
        return node.attribute(name) != nullptr;
    }
    return false;
  }

  /// True when no node of the document can pass.
  [[nodiscard]] bool never() const noexcept {
    return name == nullptr &&
           (kind == NodeTest::kName || kind == NodeTest::kAttribute);
  }
};

/// Appends the nodes strictly below `context` that pass `test`, pre-order.
/// Only a text() test enters nodes whose children are all text.
void append_descendants(const Node& context, const Test& test,
                        std::vector<Node*>& out) {
  const bool text = test.kind == NodeTest::kText;
  for (Node* child : context.children()) {
    if (test.passes(*child)) out.push_back(child);
    if ((text ? child->child_count() : child->element_child_count()) != 0) {
      append_descendants(*child, test, out);
    }
  }
}

/// Appends the candidates a step with `test` produces from one context, in
/// document order, before predicates. An attribute step selects the
/// context itself whatever its axis.
void append_candidates(Node& context, Axis axis, const Test& test,
                       std::vector<Node*>& out) {
  if (test.never()) return;
  if (test.kind == NodeTest::kAttribute) {
    if (test.passes(context)) out.push_back(&context);
  } else if (axis == Axis::kChild) {
    for (Node* child : context.children()) {
      if (test.passes(*child)) out.push_back(child);
    }
  } else {
    append_descendants(context, test, out);
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
  /// The current evaluation's steps bound to its document.
  std::vector<std::pair<const Step*, Test>> tests;
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
  explicit Evaluator(const xml::Document& document)
      : scratch_(instance()), document_(document) {
    scratch_.tests.clear();
  }

  /// Selection of `path` from the virtual document node whose only child
  /// is `root`: the child axis tests the root, the descendant axis the
  /// root's whole subtree, an attribute test the root's attributes.
  std::vector<Node*> absolute(const Path& path, Node& root) {
    const Step& first = path.steps.front();
    const Test test = test_of(first);
    Borrowed nodes(scratch_);
    if (test.passes(root)) nodes->push_back(&root);
    if (first.axis == Axis::kDescendant && first.test != NodeTest::kAttribute &&
        !test.never()) {
      append_descendants(root, test, *nodes);
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

  /// `step`'s test bound to the document, looked up once per evaluation.
  /// Returned by value: binding a later step may grow the table.
  Test test_of(const Step& step) {
    for (const auto& [bound, test] : scratch_.tests) {
      if (bound == &step) return test;
    }
    Test test{step.test, nullptr};
    if (step.test == NodeTest::kName || step.test == NodeTest::kAttribute) {
      test.name = document_.lookup_name(step.name);
    }
    return scratch_.tests.emplace_back(&step, test).second;
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
      const Literal literal(predicate.literal);
      auto kept = out.begin() + static_cast<std::ptrdiff_t>(mark);
      for (auto it = kept; it != out.end(); ++it) {
        if (holds(**it, predicate, literal)) *kept++ = *it;
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
    const Test test = test_of(step);
    std::unordered_set<const Node*> seen;
    for (Node* context : contexts) {
      const std::size_t mark = out.size();
      append_candidates(*context, step.axis, test, out);
      filter(step, out, mark);
      if (!overlap) continue;
      auto kept = out.begin() + static_cast<std::ptrdiff_t>(mark);
      for (auto it = kept; it != out.end(); ++it) {
        if (seen.insert(*it).second) *kept++ = *it;
      }
      out.erase(kept, out.end());
    }
  }

  bool holds(Node& candidate, const Predicate& predicate,
             const Literal& literal) {
    const std::vector<Step>& steps = predicate.path.steps;
    const Step* attribute =
        !steps.empty() && steps.back().test == NodeTest::kAttribute
            ? &steps.back()
            : nullptr;
    if (steps.size() == 1 && attribute != nullptr &&
        attribute->predicates.empty()) {
      // [@a] and [@a=literal]: one attribute lookup, no selection. A text
      // node has no attributes, so it fails both.
      const std::string* value = candidate.attribute(test_of(*attribute).name);
      return value != nullptr && (predicate.kind == PredicateKind::kExists ||
                                  literal.equals(*value));
    }

    Borrowed selected(scratch_);
    selected->push_back(&candidate);
    run(steps.data(), steps.data() + steps.size(), *selected);
    if (predicate.kind == PredicateKind::kExists) return !selected->empty();
    const Name* key = attribute == nullptr ? nullptr : test_of(*attribute).name;
    for (const Node* node : *selected) {
      if (attribute != nullptr) {
        const std::string* value = node->attribute(key);
        if (value != nullptr && literal.equals(*value)) return true;
      } else if (literal.equals(value_of(*node))) {
        return true;
      }
    }
    return false;
  }

  /// String-value of `node`: a reference to the text when one text node
  /// holds it (a leaf element), otherwise built in the scratch string.
  const std::string& value_of(const Node& node) {
    if (node.is_text()) return node.value();
    if (node.child_count() == 1 && node.child(0)->is_text()) {
      return node.child(0)->value();
    }
    scratch_.text.clear();
    node.append_deep_text(scratch_.text);
    return scratch_.text;
  }

  Scratch& scratch_;
  const xml::Document& document_;
};

}  // namespace

std::string string_value(const xml::Node& node) {
  return node.is_text() ? node.value() : node.deep_text();
}

bool literal_equals(const std::string& value, const std::string& literal) {
  return Literal(literal).equals(value);
}

std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document) {
  if (!document.has_root() || path.empty()) return {};
  return Evaluator(document).absolute(path, *document.root());
}

std::vector<xml::Node*> evaluate_relative(const RelativePath& path,
                                          xml::Node& context) {
  return Evaluator(context.document()).relative(path.steps, context);
}

std::vector<std::string> evaluate_strings(const Path& path,
                                          const xml::Document& document) {
  std::vector<xml::Node*> nodes = evaluate(path, document);
  std::vector<std::string> out;
  out.reserve(nodes.size());
  const xml::Name* key = path.targets_attribute()
                             ? document.lookup_name(path.steps.back().name)
                             : nullptr;
  for (xml::Node* node : nodes) {
    if (path.targets_attribute()) {
      const std::string* attr = node->attribute(key);
      out.push_back(attr == nullptr ? std::string() : *attr);
    } else {
      out.push_back(string_value(*node));
    }
  }
  return out;
}

}  // namespace dtx::xpath
