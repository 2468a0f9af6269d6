#include "regex/regex.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>

#include "base/resource_guard.h"
#include "base/string_util.h"

namespace xmlverify {

namespace {

std::shared_ptr<const Regex::Node> MakeNode(RegexKind kind, int symbol,
                                            std::shared_ptr<const Regex::Node> l,
                                            std::shared_ptr<const Regex::Node> r) {
  auto node = std::make_shared<Regex::Node>();
  node->kind = kind;
  node->symbol = symbol;
  node->left = std::move(l);
  node->right = std::move(r);
  return node;
}

struct RegexAccess {
  static std::shared_ptr<const Regex::Node> NodeOf(const Regex& r);
  static Regex Wrap(std::shared_ptr<const Regex::Node> node);
};

}  // namespace

Regex Regex::Epsilon() {
  return Regex(MakeNode(RegexKind::kEpsilon, -1, nullptr, nullptr));
}

Regex Regex::Symbol(int symbol) {
  return Regex(MakeNode(RegexKind::kSymbol, symbol, nullptr, nullptr));
}

Regex Regex::Wildcard() {
  return Regex(MakeNode(RegexKind::kWildcard, -1, nullptr, nullptr));
}

Regex Regex::Concat(Regex left, Regex right) {
  return Regex(
      MakeNode(RegexKind::kConcat, -1, left.node_, right.node_));
}

Regex Regex::Union(Regex left, Regex right) {
  return Regex(MakeNode(RegexKind::kUnion, -1, left.node_, right.node_));
}

Regex Regex::Star(Regex inner) {
  return Regex(MakeNode(RegexKind::kStar, -1, inner.node_, nullptr));
}

Regex Regex::ConcatAll(const std::vector<Regex>& parts) {
  if (parts.empty()) return Epsilon();
  Regex result = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) result = Concat(result, parts[i]);
  return result;
}

Regex Regex::UnionAll(const std::vector<Regex>& parts) {
  Regex result = parts.at(0);
  for (size_t i = 1; i < parts.size(); ++i) result = Union(result, parts[i]);
  return result;
}

bool Regex::MatchesEmpty() const {
  switch (kind()) {
    case RegexKind::kEpsilon:
      return true;
    case RegexKind::kSymbol:
    case RegexKind::kWildcard:
      return false;
    case RegexKind::kConcat:
      return left().MatchesEmpty() && right().MatchesEmpty();
    case RegexKind::kUnion:
      return left().MatchesEmpty() || right().MatchesEmpty();
    case RegexKind::kStar:
      return true;
  }
  return false;
}

bool Regex::IsStarFree() const {
  switch (kind()) {
    case RegexKind::kEpsilon:
    case RegexKind::kSymbol:
    case RegexKind::kWildcard:
      return true;
    case RegexKind::kConcat:
    case RegexKind::kUnion:
      return left().IsStarFree() && right().IsStarFree();
    case RegexKind::kStar:
      return false;
  }
  return true;
}

int64_t Regex::ExpandedSize(int64_t cap) const {
  // Post-order over the node DAG with a memo, so shared subtrees are
  // measured once; their size still multiplies through every
  // reference, which is exactly the expansion a consumer would pay.
  std::map<const Node*, int64_t> memo;
  struct Frame { const Node* node; bool expanded; };
  std::vector<Frame> stack = {{node_.get(), false}};
  auto saturating_add = [cap](int64_t a, int64_t b) {
    return a >= cap - b ? cap : a + b;
  };
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.node == nullptr || memo.count(frame.node) > 0) continue;
    if (!frame.expanded) {
      stack.push_back({frame.node, true});
      stack.push_back({frame.node->left.get(), false});
      stack.push_back({frame.node->right.get(), false});
      continue;
    }
    int64_t size = 1;
    if (frame.node->left != nullptr) {
      size = saturating_add(size, memo.at(frame.node->left.get()));
    }
    if (frame.node->right != nullptr) {
      size = saturating_add(size, memo.at(frame.node->right.get()));
    }
    memo[frame.node] = size;
  }
  return memo.at(node_.get());
}

std::vector<int> Regex::Symbols() const {
  std::set<int> seen;
  std::vector<const Node*> stack = {node_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr) continue;
    if (node->kind == RegexKind::kSymbol) seen.insert(node->symbol);
    stack.push_back(node->left.get());
    stack.push_back(node->right.get());
  }
  return std::vector<int>(seen.begin(), seen.end());
}

namespace {

// Precedence-aware printer: union (lowest), concat, star (highest).
std::string Print(const Regex& r,
                  const std::function<std::string(int)>& name_of,
                  int parent_precedence) {
  auto wrap = [&](const std::string& body, int my_precedence) {
    if (my_precedence < parent_precedence) return "(" + body + ")";
    return body;
  };
  switch (r.kind()) {
    case RegexKind::kEpsilon:
      return "%";
    case RegexKind::kSymbol:
      return name_of(r.symbol());
    case RegexKind::kWildcard:
      return "_";
    case RegexKind::kUnion:
      return wrap(Print(r.left(), name_of, 1) + "|" +
                      Print(r.right(), name_of, 1),
                  1);
    case RegexKind::kConcat:
      return wrap(Print(r.left(), name_of, 2) + "." +
                      Print(r.right(), name_of, 2),
                  2);
    case RegexKind::kStar:
      return Print(r.left(), name_of, 3) + "*";
  }
  return "?";
}

class Parser {
 public:
  Parser(const std::string& text,
         const std::function<int(const std::string&)>& resolve)
      : text_(text), resolve_(resolve) {}

  Result<Regex> Parse() {
    ASSIGN_OR_RETURN(Regex result, ParseUnion());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in regex: '" +
                                     text_.substr(pos_) + "'");
    }
    return result;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  Result<Regex> ParseUnion() {
    ASSIGN_OR_RETURN(Regex result, ParseConcat());
    while (Consume('|')) {
      ASSIGN_OR_RETURN(Regex rhs, ParseConcat());
      result = Regex::Union(result, rhs);
    }
    return result;
  }

  Result<Regex> ParseConcat() {
    ASSIGN_OR_RETURN(Regex result, ParseStar());
    while (Consume('.') || Consume(',')) {
      ASSIGN_OR_RETURN(Regex rhs, ParseStar());
      result = Regex::Concat(result, rhs);
    }
    return result;
  }

  Result<Regex> ParseStar() {
    ASSIGN_OR_RETURN(Regex result, ParseAtom());
    while (true) {
      if (Consume('*')) {
        result = Regex::Star(result);
      } else if (Consume('+')) {
        // a+ == a.a* ; accepted for DTD convenience.
        result = Regex::Concat(result, Regex::Star(result));
      } else if (Consume('?')) {
        // a? == a|epsilon.
        result = Regex::Union(result, Regex::Epsilon());
      } else if (Peek('{')) {
        ASSIGN_OR_RETURN(result, ParseRepetition(result));
      } else {
        break;
      }
    }
    return result;
  }

  // Bounded repetition a{n}, a{n,}, a{n,m}: expanded structurally
  // into n mandatory copies followed by optional tails (or a star for
  // an open upper bound). The *expanded* size is capped — the copies
  // share nodes, so the parse itself is cheap, but every downstream
  // consumer (ToString, Thompson construction, determinization) pays
  // for the full expansion, and nested repetitions multiply: without
  // the product check, ((a{500}){500}){500} slips under any per-bound
  // limit yet expands to 1.25e8 atoms. An oversized repetition is a
  // property of the input, not of this process's resources, so it is
  // an InvalidArgument (ResourceExhausted would invite budget-escalated
  // retries that can never succeed).
  Result<Regex> ParseRepetition(Regex base) {
    Consume('{');
    ASSIGN_OR_RETURN(int64_t low, ParseCount());
    int64_t high = low;
    bool unbounded = false;
    if (Consume(',')) {
      SkipSpace();
      if (Peek('}')) {
        unbounded = true;
      } else {
        ASSIGN_OR_RETURN(high, ParseCount());
      }
    }
    if (!Consume('}')) {
      return Status::InvalidArgument("missing '}' in repetition: '" + text_ +
                                     "'");
    }
    if (!unbounded && high < low) {
      return Status::InvalidArgument("repetition bounds out of order: '" +
                                     text_ + "'");
    }
    // Copies of `base` the expansion will reference: the mandatory
    // prefix plus either the star or the optional tail. Each copy
    // also costs roughly one operator node (concat/union/star), hence
    // the +1 in the product bound.
    int64_t copies = unbounded ? low + 1 : high;
    if (copies == 0) copies = 1;  // a{0} still holds one epsilon node
    int64_t base_size = base.ExpandedSize(kMaxExpandedRegexSize);
    if (copies > kMaxExpandedRegexSize / (base_size + 1)) {
      return Status::InvalidArgument(
          "repetition in '" + text_ + "' expands to more than " +
          std::to_string(kMaxExpandedRegexSize) +
          " nodes; rewrite with '*' or smaller bounds");
    }
    std::vector<Regex> parts;
    for (int64_t i = 0; i < low; ++i) parts.push_back(base);
    if (unbounded) {
      parts.push_back(Regex::Star(base));
    } else {
      for (int64_t i = low; i < high; ++i) {
        parts.push_back(Regex::Union(base, Regex::Epsilon()));
      }
    }
    return Regex::ConcatAll(parts);
  }

  Result<int64_t> ParseCount() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a count in repetition: '" +
                                     text_ + "'");
    }
    if (pos_ - start > 9) {
      return Status::InvalidArgument("repetition count too large");
    }
    return static_cast<int64_t>(std::stoll(text_.substr(start, pos_ - start)));
  }

  Result<Regex> ParseAtom() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of regex: '" + text_ +
                                     "'");
    }
    char c = text_[pos_];
    if (c == '(') {
      // '(' is the only way the descent recurses; guard it so
      // adversarially deep nesting becomes a parse error rather than
      // a stack overflow (~4 frames per level).
      if (++depth_ > MaxParseDepth()) {
        --depth_;
        return Status::ResourceExhausted(
            "regex nesting exceeds the depth ceiling of " +
            std::to_string(MaxParseDepth()));
      }
      ++pos_;
      Result<Regex> inner = ParseUnion();
      --depth_;
      RETURN_IF_ERROR(inner.status());
      if (!Consume(')')) {
        return Status::InvalidArgument("missing ')' in regex: '" + text_ +
                                       "'");
      }
      return std::move(inner).value();
    }
    if (c == '%') {
      ++pos_;
      return Regex::Epsilon();
    }
    if (c == '_') {
      // '_' may start an identifier; only a lone underscore is the
      // wildcard. Look ahead.
      size_t next = pos_ + 1;
      bool lone = next >= text_.size() ||
                  (!std::isalnum(static_cast<unsigned char>(text_[next])) &&
                   text_[next] != '_');
      if (lone) {
        ++pos_;
        return Regex::Wildcard();
      }
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::string name = text_.substr(start, pos_ - start);
      if (name == "epsilon") return Regex::Epsilon();
      int symbol = resolve_(name);
      if (symbol < 0) {
        return Status::NotFound("unknown symbol in regex: '" + name + "'");
      }
      return Regex::Symbol(symbol);
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' in regex: '" + text_ + "'");
  }

  const std::string& text_;
  const std::function<int(const std::string&)>& resolve_;
  int depth_ = 0;
  size_t pos_ = 0;
};

}  // namespace

std::string Regex::ToString(
    const std::function<std::string(int)>& name_of) const {
  return Print(*this, name_of, 0);
}

std::string Regex::CanonicalText() const {
  return Print(
      *this, [](int symbol) { return StrCat("#", std::to_string(symbol)); }, 0);
}

Regex RemapSymbols(const Regex& regex, const std::function<int(int)>& map) {
  switch (regex.kind()) {
    case RegexKind::kEpsilon:
      return Regex::Epsilon();
    case RegexKind::kSymbol:
      return Regex::Symbol(map(regex.symbol()));
    case RegexKind::kWildcard:
      return Regex::Wildcard();
    case RegexKind::kConcat:
      return Regex::Concat(RemapSymbols(regex.left(), map),
                           RemapSymbols(regex.right(), map));
    case RegexKind::kUnion:
      return Regex::Union(RemapSymbols(regex.left(), map),
                          RemapSymbols(regex.right(), map));
    case RegexKind::kStar:
      return Regex::Star(RemapSymbols(regex.left(), map));
  }
  return Regex::Epsilon();
}

Regex ExpandWildcard(const Regex& regex, const std::vector<int>& symbols) {
  switch (regex.kind()) {
    case RegexKind::kEpsilon:
    case RegexKind::kSymbol:
      return regex;
    case RegexKind::kWildcard: {
      std::vector<Regex> parts;
      parts.reserve(symbols.size());
      for (int symbol : symbols) parts.push_back(Regex::Symbol(symbol));
      return Regex::UnionAll(parts);
    }
    case RegexKind::kConcat:
      return Regex::Concat(ExpandWildcard(regex.left(), symbols),
                           ExpandWildcard(regex.right(), symbols));
    case RegexKind::kUnion:
      return Regex::Union(ExpandWildcard(regex.left(), symbols),
                          ExpandWildcard(regex.right(), symbols));
    case RegexKind::kStar:
      return Regex::Star(ExpandWildcard(regex.left(), symbols));
  }
  return regex;
}

Result<Regex> ParseRegex(
    const std::string& text,
    const std::function<int(const std::string&)>& resolve) {
  Parser parser(text, resolve);
  return parser.Parse();
}

}  // namespace xmlverify
