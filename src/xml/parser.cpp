#include "xml/parser.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace dtx::xml {

namespace {

using util::Code;
using util::Result;
using util::Status;

bool is_name_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool is_name_char(char c) noexcept {
  return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

class Parser {
 public:
  Parser(std::string_view text, Document& document, ParseOptions options)
      : text_(text), document_(document), options_(options) {}

  Result<Subtree> parse_document_element() {
    skip_prolog();
    if (at_end()) return error("no root element found");
    auto root = parse_element();
    if (!root) return root;
    skip_misc();
    if (!at_end()) return error("trailing content after root element");
    return root;
  }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }
  [[nodiscard]] bool looking_at(std::string_view prefix) const noexcept {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  Status error(const std::string& what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status(Code::kInvalidArgument,
                  "XML parse error at line " + std::to_string(line) + ": " +
                      what);
  }

  void skip_whitespace() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
  }

  /// Skips declaration, DOCTYPE, comments and PIs before / after the root.
  void skip_prolog() {
    for (;;) {
      skip_whitespace();
      if (looking_at("<?")) {
        skip_until("?>");
      } else if (looking_at("<!--")) {
        skip_until("-->");
      } else if (looking_at("<!DOCTYPE")) {
        skip_doctype();
      } else {
        return;
      }
    }
  }

  void skip_misc() {
    for (;;) {
      skip_whitespace();
      if (looking_at("<?")) {
        skip_until("?>");
      } else if (looking_at("<!--")) {
        skip_until("-->");
      } else {
        return;
      }
    }
  }

  void skip_until(std::string_view terminator) {
    const std::size_t found = text_.find(terminator, pos_);
    pos_ = found == std::string_view::npos ? text_.size()
                                           : found + terminator.size();
  }

  void skip_doctype() {
    // DOCTYPE may contain a bracketed internal subset.
    int brackets = 0;
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '[') ++brackets;
      else if (c == ']') --brackets;
      else if (c == '>' && brackets <= 0) return;
    }
  }

  Result<std::string_view> parse_name() {
    if (at_end() || !is_name_start(peek())) return error("expected a name");
    const std::size_t start = pos_;
    while (!at_end() && is_name_char(peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  Result<Subtree> parse_element() {
    if (at_end() || peek() != '<') return error("expected '<'");
    ++pos_;
    auto name = parse_name();
    if (!name) return name.status();
    Subtree element = document_.create_element(name.value());

    // Attributes.
    for (;;) {
      skip_whitespace();
      if (at_end()) return error("unterminated start tag");
      if (peek() == '>') {
        ++pos_;
        break;
      }
      if (looking_at("/>")) {
        pos_ += 2;
        return element;
      }
      auto attr_name = parse_name();
      if (!attr_name) return attr_name.status();
      skip_whitespace();
      if (at_end() || peek() != '=') return error("expected '=' in attribute");
      ++pos_;
      skip_whitespace();
      auto attr_value = parse_quoted();
      if (!attr_value) return attr_value.status();
      element->set_attribute(attr_name.value(),
                             std::move(attr_value).value());
    }

    // Content.
    for (;;) {
      if (at_end()) return error("unterminated element <" + element->name() + ">");
      if (looking_at("</")) {
        pos_ += 2;
        auto close = parse_name();
        if (!close) return close.status();
        if (close.value() != element->name()) {
          return error("mismatched close tag </" + std::string(close.value()) +
                       "> for <" + element->name() + ">");
        }
        skip_whitespace();
        if (at_end() || peek() != '>') return error("expected '>'");
        ++pos_;
        return element;
      }
      if (looking_at("<!--")) {
        skip_until("-->");
        continue;
      }
      if (looking_at("<![CDATA[")) {
        pos_ += 9;
        const std::size_t end = text_.find("]]>", pos_);
        if (end == std::string_view::npos) return error("unterminated CDATA");
        element->append_child(
            document_.create_text(std::string(text_.substr(pos_, end - pos_))));
        pos_ = end + 3;
        continue;
      }
      if (looking_at("<?")) {
        skip_until("?>");
        continue;
      }
      if (peek() == '<') {
        auto child = parse_element();
        if (!child) return child;
        element->append_child(std::move(child).value());
        continue;
      }
      // Character data up to the next markup.
      const std::size_t start = pos_;
      while (!at_end() && peek() != '<') ++pos_;
      std::string raw(text_.substr(start, pos_ - start));
      std::string value = util::xml_unescape(raw);
      const bool all_space =
          util::trim(value).empty();
      if (!(options_.strip_whitespace_text && all_space)) {
        element->append_child(document_.create_text(std::move(value)));
      }
    }
  }

  Result<std::string> parse_quoted() {
    if (at_end() || (peek() != '"' && peek() != '\'')) {
      return error("expected a quoted value");
    }
    const char quote = text_[pos_++];
    const std::size_t start = pos_;
    while (!at_end() && peek() != quote) ++pos_;
    if (at_end()) return error("unterminated quoted value");
    std::string value = util::xml_unescape(text_.substr(start, pos_ - start));
    ++pos_;  // closing quote
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Document& document_;
  ParseOptions options_;
};

}  // namespace

Result<std::unique_ptr<Document>> parse(std::string_view text,
                                        std::string document_name,
                                        const ParseOptions& options) {
  auto document = std::make_unique<Document>(std::move(document_name));
  Parser parser(text, *document, options);
  auto root = parser.parse_document_element();
  if (!root) return root.status();
  document->set_root(std::move(root).value());
  return document;
}

Result<Subtree> parse_fragment(std::string_view text, Document& document,
                               const ParseOptions& options) {
  Parser parser(text, document, options);
  return parser.parse_document_element();
}

}  // namespace dtx::xml
