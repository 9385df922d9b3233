// Recursive-descent XML parser covering the subset DTX stores and generates:
// declaration, elements, attributes, character data with the five predefined
// entities, comments and CDATA (skipped / folded into text). DOCTYPE and
// processing instructions are skipped. Namespaces are treated literally
// (prefix kept inside the tag name).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "util/status.hpp"
#include "xml/document.hpp"

namespace dtx::xml {

struct ParseOptions {
  /// Drop text nodes that are pure whitespace between elements (on by
  /// default: XMark-style data documents are element-structured).
  bool strip_whitespace_text = true;
};

/// Parses `text` into a new document named `document_name`.
util::Result<std::unique_ptr<Document>> parse(
    std::string_view text, std::string document_name,
    const ParseOptions& options = {});

/// Parses a fragment (single element subtree) into an existing document,
/// returning it detached.
util::Result<Subtree> parse_fragment(
    std::string_view text, Document& document,
    const ParseOptions& options = {});

}  // namespace dtx::xml
