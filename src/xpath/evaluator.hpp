// Evaluator for the XPath subset over xml::Document trees.
//
// Semantics follow XPath 1.0 restricted to the supported grammar:
//  * absolute paths evaluate from a virtual document node whose only child is
//    the root element;
//  * '/'  = child axis, '//' = descendant axis (any depth below the context);
//    an attribute step selects the element that owns the attribute, so its
//    axis plays no role;
//  * position predicates are applied per context node, after the other
//    predicates that precede them lexically;
//  * equality compares the candidate's string-value (concatenated descendant
//    text, or attribute value) with the literal — numerically when both
//    sides parse as numbers, as strings otherwise.
//
// Order and duplicates: a step's output lists its contexts' candidates one
// context after another, each context's in document order. Duplicates are
// removed (the first occurrence stays) only after a descendant step run from
// more than one context. That is the only step that can reach a node twice,
// since the contexts are distinct and a node has one parent.
//
// Cost: a step's names are bound once per evaluation to the document's
// interned names (xml::Name), so a node test is a pointer compare, and a
// name the document never used selects nothing without a walk. Each step
// appends its candidates to one buffer, reused for the whole path, and
// filters them there. A child step costs one pass over each context's
// children, a descendant step one pre-order walk of each context's
// subtree (skipping nodes whose children are all text unless the test is
// text()), an attribute step one attribute lookup per context;
// de-duplication adds one hash insert per surviving node. Each candidate
// then pays per predicate: [n] is O(1) per context; [@a] and [@a=lit] are
// one attribute lookup; any other predicate path is evaluated from the
// candidate in scratch buffers reused across candidates (per thread), and
// an equality compares the text of a leaf element in place and builds
// other string-values in one reused string. An equality's literal is
// classified as numeric or not once per predicate and candidate list; a
// candidate's value is parsed as a number only when the literal is one.
#pragma once

#include <string>
#include <vector>

#include "xml/document.hpp"
#include "xpath/ast.hpp"

namespace dtx::xpath {

/// Nodes selected by `path`, in document order without duplicates.
/// For attribute-final paths the *owning elements* are returned; use
/// evaluate_strings to obtain the attribute values.
std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document);

/// Relative-path evaluation from an explicit context element.
std::vector<xml::Node*> evaluate_relative(const RelativePath& path,
                                          xml::Node& context);

/// String-values of the selected nodes (attribute values for attribute-final
/// paths, string-value of the node otherwise).
std::vector<std::string> evaluate_strings(const Path& path,
                                          const xml::Document& document);

/// XPath string-value of a node (text payload or concatenated subtree text).
std::string string_value(const xml::Node& node);

/// Literal comparison rule used by equality predicates.
bool literal_equals(const std::string& value, const std::string& literal);

}  // namespace dtx::xpath
