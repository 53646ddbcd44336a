#include "sp2b/sparql/parser.h"

#include <cctype>

#include "sp2b/vocabulary.h"

namespace sp2b::sparql {

namespace {

struct Token {
  enum Kind {
    kEnd,
    kIri,     // <...> (content in text)
    kPname,   // prefix:local (split at first ':')
    kVar,     // ?name (name in text)
    kString,  // "..." (unescaped content in text)
    kInteger,
    kWord,    // bare identifier / keyword
    kPunct,   // one of { } ( ) . , ; * plus operators = != < <= > >= && || !
  } kind = kEnd;
  std::string text;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) { Advance(); }

  const Token& Peek() const { return tok_; }

  Token Take() {
    Token t = tok_;
    Advance();
    return t;
  }

 private:
  void Advance();

  const std::string& src_;
  size_t i_ = 0;
  Token tok_;
};

void Lexer::Advance() {
  while (i_ < src_.size()) {
    char c = src_[i_];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i_;
    } else if (c == '#') {
      while (i_ < src_.size() && src_[i_] != '\n') ++i_;
    } else {
      break;
    }
  }
  tok_ = Token{};
  tok_.pos = i_;
  if (i_ >= src_.size()) return;

  char c = src_[i_];
  auto two = [&](const char* op) {
    tok_.kind = Token::kPunct;
    tok_.text = op;
    i_ += 2;
  };
  auto one = [&](char op) {
    tok_.kind = Token::kPunct;
    tok_.text = std::string(1, op);
    ++i_;
  };

  if (c == '<') {
    size_t end = src_.find('>', i_ + 1);
    if (end == std::string::npos) {
      // A lone '<' is the less-than operator.
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '=') return two("<=");
      return one('<');
    }
    // IRIs never contain spaces; "?a < ?b" would otherwise lex as one.
    std::string body = src_.substr(i_ + 1, end - i_ - 1);
    if (body.find_first_of(" \t\n?") != std::string::npos) {
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '=') return two("<=");
      return one('<');
    }
    tok_.kind = Token::kIri;
    tok_.text = std::move(body);
    i_ = end + 1;
    return;
  }
  if (c == '?' || c == '$') {
    size_t start = ++i_;
    while (i_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '_')) {
      ++i_;
    }
    if (i_ == start) throw ParseError("empty variable name");
    tok_.kind = Token::kVar;
    tok_.text = src_.substr(start, i_ - start);
    return;
  }
  if (c == '"') {
    std::string out;
    ++i_;
    while (i_ < src_.size() && src_[i_] != '"') {
      if (src_[i_] == '\\' && i_ + 1 < src_.size()) {
        char e = src_[i_ + 1];
        i_ += 2;
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            out += e;
        }
      } else {
        out += src_[i_++];
      }
    }
    if (i_ >= src_.size()) throw ParseError("unterminated string literal");
    ++i_;
    tok_.kind = Token::kString;
    tok_.text = std::move(out);
    return;
  }
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '-' && i_ + 1 < src_.size() &&
       std::isdigit(static_cast<unsigned char>(src_[i_ + 1])))) {
    size_t start = i_++;
    while (i_ < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[i_]))) {
      ++i_;
    }
    tok_.kind = Token::kInteger;
    tok_.text = src_.substr(start, i_ - start);
    return;
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    size_t start = i_;
    while (i_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '_' || src_[i_] == '-')) {
      ++i_;
    }
    // prefix:local (or _:blank) forms one PNAME token. A PN_LOCAL may
    // contain dots but never end with one, so a statement-terminating
    // '.' written flush against the name goes back to the stream.
    if (i_ < src_.size() && src_[i_] == ':') {
      ++i_;
      while (i_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
              src_[i_] == '_' || src_[i_] == '-' || src_[i_] == '.')) {
        ++i_;
      }
      while (i_ > start && src_[i_ - 1] == '.') --i_;
      tok_.kind = Token::kPname;
      tok_.text = src_.substr(start, i_ - start);
      return;
    }
    tok_.kind = Token::kWord;
    tok_.text = src_.substr(start, i_ - start);
    return;
  }
  if (c == ':') {
    // Default-prefix PNAME ":local".
    size_t start = i_++;
    while (i_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
            src_[i_] == '_' || src_[i_] == '-' || src_[i_] == '.')) {
      ++i_;
    }
    while (i_ > start + 1 && src_[i_ - 1] == '.') --i_;
    tok_.kind = Token::kPname;
    tok_.text = src_.substr(start, i_ - start);
    return;
  }
  switch (c) {
    case '!':
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '=') return two("!=");
      return one('!');
    case '^':
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '^') return two("^^");
      throw ParseError("stray '^'");
    case '&':
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '&') return two("&&");
      throw ParseError("stray '&'");
    case '|':
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '|') return two("||");
      throw ParseError("stray '|'");
    case '>':
      if (i_ + 1 < src_.size() && src_[i_ + 1] == '=') return two(">=");
      return one('>');
    case '=':
      return one('=');
    case '{':
    case '}':
    case '(':
    case ')':
    case '.':
    case ',':
    case ';':
    case '*':
    case '/':  // property-path sequence p/q
    case '+':  // property-path closure p+
      return one(c);
    default:
      throw ParseError(std::string("unexpected character '") + c + "'");
  }
}

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  size_t n = 0;
  while (b[n]) ++n;
  if (a.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

class Parser {
 public:
  Parser(const std::string& text, PrefixMap prefixes)
      : lex_(text), prefixes_(std::move(prefixes)) {}

  AstQuery Parse();

 private:
  bool PeekWord(const char* w) const {
    return lex_.Peek().kind == Token::kWord &&
           EqualsIgnoreCase(lex_.Peek().text, w);
  }
  bool AcceptWord(const char* w) {
    if (!PeekWord(w)) return false;
    lex_.Take();
    return true;
  }
  bool AcceptPunct(const char* p) {
    if (lex_.Peek().kind != Token::kPunct || lex_.Peek().text != p) {
      return false;
    }
    lex_.Take();
    return true;
  }
  void ExpectPunct(const char* p) {
    if (!AcceptPunct(p)) {
      throw ParseError(std::string("expected '") + p + "' near '" +
                       lex_.Peek().text + "'");
    }
  }

  std::string ResolvePname(const std::string& pname) const;
  TermRef ParseTermRef(bool allow_literal);
  void ParsePathSuffix(TriplePatternAst& pattern);
  void ParsePrologue();
  void ParseSelectClause(AstQuery& q);
  GroupPattern ParseGroup();
  Expr ParseExpr();
  Expr ParseAnd();
  Expr ParseRelational();
  Expr ParsePrimaryExpr();
  void ParseModifiers(AstQuery& q);

  /// Counts one level of group or expression nesting for its scope.
  /// Planning and evaluation recurse per level, so a query from outside
  /// nesting deeper than kMaxNesting is refused up front.
  class Nest {
   public:
    explicit Nest(int& depth) : depth_(depth) {
      if (++depth_ > kMaxNesting) {
        --depth_;
        throw ParseError("query nests deeper than " +
                         std::to_string(kMaxNesting) + " levels");
      }
    }
    ~Nest() { --depth_; }

   private:
    int& depth_;
  };
  static constexpr int kMaxNesting = 64;

  Lexer lex_;
  PrefixMap prefixes_;
  int depth_ = 0;  // current group/expression nesting
};

std::string Parser::ResolvePname(const std::string& pname) const {
  size_t colon = pname.find(':');
  std::string prefix = pname.substr(0, colon);
  std::string local = pname.substr(colon + 1);
  auto it = prefixes_.find(prefix);
  if (it == prefixes_.end()) {
    throw ParseError("unknown prefix '" + prefix + ":'");
  }
  return it->second + local;
}

TermRef Parser::ParseTermRef(bool allow_literal) {
  Token t = lex_.Take();
  TermRef ref;
  switch (t.kind) {
    case Token::kVar:
      ref.kind = TermRef::kVar;
      ref.value = t.text;
      return ref;
    case Token::kIri:
      ref.kind = TermRef::kIri;
      ref.value = t.text;
      return ref;
    case Token::kPname: {
      if (t.text.size() > 1 && t.text[0] == '_' && t.text[1] == ':') {
        ref.kind = TermRef::kBlank;
        ref.value = t.text.substr(2);
        return ref;
      }
      ref.kind = TermRef::kIri;
      ref.value = ResolvePname(t.text);
      return ref;
    }
    case Token::kWord:
      if (t.text == "a") {  // rdf:type shorthand (predicate position)
        ref.kind = TermRef::kIri;
        ref.value = vocab::kRdfType;
        return ref;
      }
      if (EqualsIgnoreCase(t.text, "true") ||
          EqualsIgnoreCase(t.text, "false")) {
        ref.kind = TermRef::kLiteral;
        ref.value = t.text;
        ref.datatype = "http://www.w3.org/2001/XMLSchema#boolean";
        return ref;
      }
      throw ParseError("unexpected word '" + t.text + "' in pattern");
    case Token::kString: {
      if (!allow_literal) throw ParseError("literal not allowed here");
      ref.kind = TermRef::kLiteral;
      ref.value = t.text;
      if (AcceptPunct("^^")) {
        Token dt = lex_.Take();
        if (dt.kind == Token::kIri) {
          ref.datatype = dt.text;
        } else if (dt.kind == Token::kPname) {
          ref.datatype = ResolvePname(dt.text);
        } else {
          throw ParseError("expected datatype IRI after ^^");
        }
      }
      return ref;
    }
    case Token::kInteger:
      ref.kind = TermRef::kLiteral;
      ref.value = t.text;
      ref.datatype = vocab::kXsdInteger;
      return ref;
    default:
      throw ParseError("unexpected token '" + t.text + "' in pattern");
  }
}

// Property-path suffix after a predicate term: `p+`, `p*`, or
// `p/q/...`. The engine evaluates paths over constant predicates
// only, so every element must be an IRI; modifiers cannot nest inside
// sequences (the shape generator never emits them and the grammar
// stays decidable without precedence rules).
void Parser::ParsePathSuffix(TriplePatternAst& pattern) {
  auto require_iri = [](const TermRef& t) {
    if (t.kind != TermRef::kIri) {
      throw ParseError("property path requires a constant IRI predicate");
    }
  };
  if (AcceptPunct("+")) {
    require_iri(pattern.p);
    pattern.path = PathOp::kOneOrMore;
    return;
  }
  if (AcceptPunct("*")) {
    require_iri(pattern.p);
    pattern.path = PathOp::kZeroOrMore;
    return;
  }
  while (AcceptPunct("/")) {
    require_iri(pattern.p);
    TermRef step = ParseTermRef(/*allow_literal=*/false);
    require_iri(step);
    pattern.path = PathOp::kSequence;
    pattern.path_seq.push_back(std::move(step));
  }
}

void Parser::ParsePrologue() {
  while (AcceptWord("PREFIX")) {
    Token name = lex_.Take();
    if (name.kind != Token::kPname) {
      throw ParseError("expected prefix name after PREFIX");
    }
    std::string prefix = name.text.substr(0, name.text.find(':'));
    Token iri = lex_.Take();
    if (iri.kind != Token::kIri) {
      throw ParseError("expected <iri> after PREFIX " + name.text);
    }
    prefixes_[prefix] = iri.text;
  }
}

void Parser::ParseSelectClause(AstQuery& q) {
  q.form = AstQuery::kSelect;
  if (AcceptWord("DISTINCT")) q.distinct = true;
  if (AcceptPunct("*")) {
    q.select_all = true;
    return;
  }
  for (;;) {
    if (lex_.Peek().kind == Token::kVar) {
      SelectItem item;
      item.var = lex_.Take().text;
      q.select.push_back(std::move(item));
      continue;
    }
    if (AcceptPunct("(")) {
      SelectItem item;
      Token fn = lex_.Take();
      if (fn.kind != Token::kWord) throw ParseError("expected aggregate");
      if (EqualsIgnoreCase(fn.text, "COUNT")) {
        item.agg = SelectItem::kCount;
      } else if (EqualsIgnoreCase(fn.text, "SUM")) {
        item.agg = SelectItem::kSum;
      } else if (EqualsIgnoreCase(fn.text, "AVG")) {
        item.agg = SelectItem::kAvg;
      } else if (EqualsIgnoreCase(fn.text, "MIN")) {
        item.agg = SelectItem::kMin;
      } else if (EqualsIgnoreCase(fn.text, "MAX")) {
        item.agg = SelectItem::kMax;
      } else {
        throw ParseError("unknown aggregate '" + fn.text + "'");
      }
      ExpectPunct("(");
      if (AcceptWord("DISTINCT")) item.distinct_agg = true;
      if (AcceptPunct("*")) {
        item.source_var.clear();
      } else {
        Token v = lex_.Take();
        if (v.kind != Token::kVar) {
          throw ParseError("expected variable in aggregate");
        }
        item.source_var = v.text;
      }
      ExpectPunct(")");
      if (!AcceptWord("AS")) throw ParseError("expected AS in aggregate");
      Token out = lex_.Take();
      if (out.kind != Token::kVar) {
        throw ParseError("expected output variable after AS");
      }
      item.var = out.text;
      ExpectPunct(")");
      q.select.push_back(std::move(item));
      continue;
    }
    break;
  }
  if (q.select.empty()) throw ParseError("empty SELECT clause");
}

GroupPattern Parser::ParseGroup() {
  Nest nest(depth_);
  GroupPattern group;
  ExpectPunct("{");
  for (;;) {
    if (AcceptPunct("}")) break;
    if (AcceptWord("OPTIONAL")) {
      group.optionals.push_back(ParseGroup());
      AcceptPunct(".");
      continue;
    }
    if (AcceptWord("FILTER")) {
      Expr e;
      if (PeekWord("BOUND") || PeekWord("bound")) {
        e = ParsePrimaryExpr();
      } else {
        ExpectPunct("(");
        e = ParseExpr();
        ExpectPunct(")");
      }
      group.filters.push_back(std::move(e));
      AcceptPunct(".");
      continue;
    }
    if (lex_.Peek().kind == Token::kPunct && lex_.Peek().text == "{") {
      std::vector<GroupPattern> alternatives;
      alternatives.push_back(ParseGroup());
      while (AcceptWord("UNION")) alternatives.push_back(ParseGroup());
      group.unions.push_back(std::move(alternatives));
      AcceptPunct(".");
      continue;
    }
    // Triple pattern, optionally with ';' predicate-object lists and
    // ',' object lists.
    TriplePatternAst pattern;
    pattern.s = ParseTermRef(/*allow_literal=*/false);
    for (;;) {
      pattern.p = ParseTermRef(/*allow_literal=*/false);
      pattern.path = PathOp::kNone;
      pattern.path_seq.clear();
      ParsePathSuffix(pattern);
      for (;;) {
        pattern.o = ParseTermRef(/*allow_literal=*/true);
        // Typed-literal suffix "^^iri" support for object literals:
        // handled here because '^' never appears elsewhere.
        group.triples.push_back(pattern);
        if (!AcceptPunct(",")) break;
      }
      if (!AcceptPunct(";")) break;
    }
    AcceptPunct(".");
  }
  return group;
}

Expr Parser::ParseExpr() {
  Expr left = ParseAnd();
  while (AcceptPunct("||")) {
    Expr parent;
    parent.op = Expr::kOr;
    parent.kids.push_back(std::move(left));
    parent.kids.push_back(ParseAnd());
    left = std::move(parent);
  }
  return left;
}

Expr Parser::ParseAnd() {
  Expr left = ParseRelational();
  while (AcceptPunct("&&")) {
    Expr parent;
    parent.op = Expr::kAnd;
    parent.kids.push_back(std::move(left));
    parent.kids.push_back(ParseRelational());
    left = std::move(parent);
  }
  return left;
}

Expr Parser::ParseRelational() {
  Expr left = ParsePrimaryExpr();
  const Token& t = lex_.Peek();
  if (t.kind == Token::kPunct) {
    Expr::Op op;
    if (t.text == "=") {
      op = Expr::kEq;
    } else if (t.text == "!=") {
      op = Expr::kNe;
    } else if (t.text == "<") {
      op = Expr::kLt;
    } else if (t.text == "<=") {
      op = Expr::kLe;
    } else if (t.text == ">") {
      op = Expr::kGt;
    } else if (t.text == ">=") {
      op = Expr::kGe;
    } else {
      return left;
    }
    lex_.Take();
    Expr parent;
    parent.op = op;
    parent.kids.push_back(std::move(left));
    parent.kids.push_back(ParsePrimaryExpr());
    return parent;
  }
  return left;
}

Expr Parser::ParsePrimaryExpr() {
  Nest nest(depth_);
  if (AcceptPunct("!")) {
    Expr e;
    e.op = Expr::kNot;
    e.kids.push_back(ParsePrimaryExpr());
    return e;
  }
  if (AcceptPunct("(")) {
    Expr e = ParseExpr();
    ExpectPunct(")");
    return e;
  }
  if (PeekWord("BOUND")) {
    lex_.Take();
    ExpectPunct("(");
    Token v = lex_.Take();
    if (v.kind != Token::kVar) throw ParseError("bound() expects a variable");
    ExpectPunct(")");
    Expr e;
    e.op = Expr::kBound;
    e.var = v.text;
    return e;
  }
  const Token& t = lex_.Peek();
  if (t.kind == Token::kVar) {
    Expr e;
    e.op = Expr::kVar;
    e.var = lex_.Take().text;
    return e;
  }
  Expr e;
  e.op = Expr::kConst;
  e.constant = ParseTermRef(/*allow_literal=*/true);
  return e;
}

void Parser::ParseModifiers(AstQuery& q) {
  for (;;) {
    if (AcceptWord("GROUP")) {
      if (!AcceptWord("BY")) throw ParseError("expected BY after GROUP");
      while (lex_.Peek().kind == Token::kVar) {
        q.group_by.push_back(lex_.Take().text);
      }
      if (q.group_by.empty()) throw ParseError("empty GROUP BY");
      continue;
    }
    if (AcceptWord("ORDER")) {
      if (!AcceptWord("BY")) throw ParseError("expected BY after ORDER");
      for (;;) {
        OrderKey key;
        if (PeekWord("ASC") || PeekWord("DESC")) {
          key.descending = EqualsIgnoreCase(lex_.Take().text, "DESC");
          ExpectPunct("(");
          Token v = lex_.Take();
          if (v.kind != Token::kVar) {
            throw ParseError("expected variable in ORDER BY");
          }
          key.var = v.text;
          ExpectPunct(")");
        } else if (lex_.Peek().kind == Token::kVar) {
          key.var = lex_.Take().text;
        } else {
          break;
        }
        q.order_by.push_back(std::move(key));
      }
      if (q.order_by.empty()) throw ParseError("empty ORDER BY");
      continue;
    }
    if (AcceptWord("LIMIT")) {
      Token n = lex_.Take();
      if (n.kind != Token::kInteger) throw ParseError("expected LIMIT count");
      q.has_limit = true;
      q.limit = std::stoull(n.text);
      continue;
    }
    if (AcceptWord("OFFSET")) {
      Token n = lex_.Take();
      if (n.kind != Token::kInteger) throw ParseError("expected OFFSET count");
      q.offset = std::stoull(n.text);
      continue;
    }
    break;
  }
}

AstQuery Parser::Parse() {
  AstQuery q;
  ParsePrologue();
  if (AcceptWord("SELECT")) {
    ParseSelectClause(q);
    AcceptWord("WHERE");
    q.where = ParseGroup();
    ParseModifiers(q);
  } else if (AcceptWord("ASK")) {
    q.form = AstQuery::kAsk;
    AcceptWord("WHERE");
    q.where = ParseGroup();
  } else {
    throw ParseError("query must start with SELECT or ASK");
  }
  if (lex_.Peek().kind != Token::kEnd) {
    throw ParseError("trailing tokens after query: '" + lex_.Peek().text +
                     "'");
  }
  return q;
}

// ---------------------------------------------------------------------------
// AST -> text renderer. Full IRIs, fully parenthesized filter
// expressions, one statement per triple: everything the parser
// accepts renders to text the parser maps back to the identical AST,
// which makes Render a fixed point after one parse.
// ---------------------------------------------------------------------------

std::string RenderEscaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

void RenderTerm(const TermRef& t, std::string* out) {
  switch (t.kind) {
    case TermRef::kVar:
      *out += '?';
      *out += t.value;
      break;
    case TermRef::kIri:
      *out += '<';
      *out += t.value;
      *out += '>';
      break;
    case TermRef::kBlank:
      *out += "_:";
      *out += t.value;
      break;
    case TermRef::kLiteral:
      *out += '"';
      *out += RenderEscaped(t.value);
      *out += '"';
      if (!t.datatype.empty()) {
        *out += "^^<";
        *out += t.datatype;
        *out += '>';
      }
      break;
  }
}

void RenderExpr(const Expr& e, std::string* out) {
  switch (e.op) {
    case Expr::kVar:
      *out += '?';
      *out += e.var;
      return;
    case Expr::kConst:
      RenderTerm(e.constant, out);
      return;
    case Expr::kBound:
      *out += "bound(?";
      *out += e.var;
      *out += ')';
      return;
    case Expr::kNot:
      *out += "(! ";
      RenderExpr(e.kids[0], out);
      *out += ')';
      return;
    default: {
      const char* op = "";
      switch (e.op) {
        case Expr::kAnd: op = "&&"; break;
        case Expr::kOr: op = "||"; break;
        case Expr::kEq: op = "="; break;
        case Expr::kNe: op = "!="; break;
        case Expr::kLt: op = "<"; break;
        case Expr::kLe: op = "<="; break;
        case Expr::kGt: op = ">"; break;
        case Expr::kGe: op = ">="; break;
        default: break;
      }
      *out += '(';
      RenderExpr(e.kids[0], out);
      *out += ' ';
      *out += op;
      *out += ' ';
      RenderExpr(e.kids[1], out);
      *out += ')';
      return;
    }
  }
}

void RenderGroup(const GroupPattern& g, std::string* out) {
  *out += "{ ";
  for (const TriplePatternAst& t : g.triples) {
    RenderTerm(t.s, out);
    *out += ' ';
    RenderTerm(t.p, out);
    switch (t.path) {
      case PathOp::kNone:
        break;
      case PathOp::kOneOrMore:
        *out += '+';
        break;
      case PathOp::kZeroOrMore:
        *out += '*';
        break;
      case PathOp::kSequence:
        for (const TermRef& step : t.path_seq) {
          *out += '/';
          RenderTerm(step, out);
        }
        break;
    }
    *out += ' ';
    RenderTerm(t.o, out);
    *out += " . ";
  }
  for (const std::vector<GroupPattern>& alternatives : g.unions) {
    for (size_t i = 0; i < alternatives.size(); ++i) {
      if (i > 0) *out += " UNION ";
      RenderGroup(alternatives[i], out);
    }
    *out += " . ";
  }
  for (const GroupPattern& opt : g.optionals) {
    *out += "OPTIONAL ";
    RenderGroup(opt, out);
    *out += " . ";
  }
  for (const Expr& e : g.filters) {
    *out += "FILTER (";
    RenderExpr(e, out);
    *out += ") . ";
  }
  *out += '}';
}

}  // namespace

AstQuery Parse(const std::string& text, const PrefixMap& prefixes) {
  Parser parser(text, prefixes);
  return parser.Parse();
}

std::string Render(const AstQuery& q) {
  std::string out;
  if (q.form == AstQuery::kAsk) {
    out += "ASK ";
  } else {
    out += "SELECT ";
    if (q.distinct) out += "DISTINCT ";
    if (q.select_all) {
      out += "* ";
    } else {
      for (const SelectItem& item : q.select) {
        if (item.agg == SelectItem::kNone) {
          out += '?';
          out += item.var;
          out += ' ';
          continue;
        }
        out += '(';
        switch (item.agg) {
          case SelectItem::kCount: out += "COUNT("; break;
          case SelectItem::kSum: out += "SUM("; break;
          case SelectItem::kAvg: out += "AVG("; break;
          case SelectItem::kMin: out += "MIN("; break;
          case SelectItem::kMax: out += "MAX("; break;
          default: break;
        }
        if (item.distinct_agg) out += "DISTINCT ";
        if (item.source_var.empty()) {
          out += '*';
        } else {
          out += '?';
          out += item.source_var;
        }
        out += ") AS ?";
        out += item.var;
        out += ") ";
      }
    }
    out += "WHERE ";
  }
  RenderGroup(q.where, &out);
  if (!q.group_by.empty()) {
    out += " GROUP BY";
    for (const std::string& v : q.group_by) {
      out += " ?";
      out += v;
    }
  }
  if (!q.order_by.empty()) {
    out += " ORDER BY";
    for (const OrderKey& key : q.order_by) {
      if (key.descending) {
        out += " DESC(?";
        out += key.var;
        out += ')';
      } else {
        out += " ?";
        out += key.var;
      }
    }
  }
  if (q.has_limit) {
    out += " LIMIT ";
    out += std::to_string(q.limit);
  }
  if (q.offset > 0) {
    out += " OFFSET ";
    out += std::to_string(q.offset);
  }
  return out;
}

}  // namespace sp2b::sparql
