#include "sp2b/sparql/query_cache.h"

#include <map>

namespace sp2b::sparql {

namespace {

// Canonical renderer: one deterministic serialization of the AST.
// Field and node boundaries use '\x1f'/'\x1e' so no lexical form can
// collide with the structure markers.
constexpr char kSep = '\x1f';
constexpr char kEnd = '\x1e';

class Renderer {
 public:
  std::string Render(const AstQuery& q) {
    out_ += q.form == AstQuery::kAsk ? "ASK" : "SELECT";
    if (q.distinct) out_ += " DISTINCT";
    out_ += kSep;
    if (q.select_all) {
      out_ += '*';
    } else {
      for (const SelectItem& item : q.select) {
        static const char* kAggNames[] = {"",    "COUNT", "SUM",
                                          "AVG", "MIN",   "MAX"};
        out_ += kAggNames[item.agg];
        if (item.distinct_agg) out_ += "D";
        out_ += '(';
        if (item.agg != SelectItem::kNone) {
          if (item.source_var.empty()) {
            out_ += '*';
          } else {
            Var(item.source_var);
          }
          out_ += "->";
        }
        Var(item.var);
        out_ += ')';
      }
    }
    out_ += kEnd;
    Group(q.where);
    out_ += "GROUP";
    for (const std::string& v : q.group_by) Var(v);
    out_ += kSep;
    out_ += "ORDER";
    for (const OrderKey& k : q.order_by) {
      Var(k.var);
      if (k.descending) out_ += "DESC";
    }
    out_ += kSep;
    out_ += "LIMIT ";
    Const(q.has_limit ? std::to_string(q.limit) : std::string("-"));
    out_ += " OFFSET ";
    Const(std::to_string(q.offset));
    return std::move(out_);
  }

 private:
  void Var(const std::string& name) {
    out_ += '?';
    out_ += name;
    out_ += kSep;
  }

  void Const(const std::string& rendered) {
    out_ += rendered;
    out_ += kSep;
  }

  void Term(const TermRef& t) {
    switch (t.kind) {
      case TermRef::kVar:
        Var(t.value);
        return;
      case TermRef::kIri:
        out_ += 'I';
        Const(t.value);
        return;
      case TermRef::kLiteral:
        out_ += 'L';
        out_ += t.value;
        out_ += kSep;
        Const(t.datatype);
        return;
      case TermRef::kBlank:
        // Blank nodes act as non-projectable variables; keep the label.
        out_ += '_';
        out_ += t.value;
        out_ += kSep;
        return;
    }
  }

  void Render(const Expr& e) {
    static const char* kOpNames[] = {"AND", "OR", "NOT", "=",  "!=",   "<",
                                     "<=",  ">",  ">=",  "BD", "VAR", "K"};
    out_ += kOpNames[e.op];
    out_ += '(';
    for (const Expr& kid : e.kids) Render(kid);
    if (e.op == Expr::kVar || e.op == Expr::kBound) {
      Var(e.var);
    } else if (e.op == Expr::kConst) {
      Term(e.constant);
    }
    out_ += ')';
  }

  void Group(const GroupPattern& g) {
    out_ += '{';
    for (const TriplePatternAst& t : g.triples) {
      Term(t.s);
      Term(t.p);
      // The path operator is part of the key: `p+`, `p*` and `p` mean
      // different results.
      switch (t.path) {
        case PathOp::kNone:
          break;
        case PathOp::kOneOrMore:
          out_ += "P+";
          break;
        case PathOp::kZeroOrMore:
          out_ += "P*";
          break;
        case PathOp::kSequence:
          for (const TermRef& step : t.path_seq) {
            out_ += "P/";
            Term(step);
          }
          break;
      }
      Term(t.o);
      out_ += kEnd;
    }
    for (const Expr& f : g.filters) {
      out_ += 'F';
      Render(f);
      out_ += kEnd;
    }
    for (const auto& alternatives : g.unions) {
      out_ += 'U';
      for (const GroupPattern& alt : alternatives) Group(alt);
      out_ += kEnd;
    }
    for (const GroupPattern& opt : g.optionals) {
      out_ += 'O';
      Group(opt);
      out_ += kEnd;
    }
    out_ += '}';
  }

  std::string out_;
};

}  // namespace

CanonicalQuery Canonicalize(const AstQuery& query) {
  return {Renderer().Render(query)};
}

// ---------------------------------------------------------------------------
// Selectivity profile
// ---------------------------------------------------------------------------

namespace {

rdf::TermId ResolveConst(const TermRef& t, const rdf::Dictionary& dict) {
  switch (t.kind) {
    case TermRef::kIri:
      return dict.FindIri(t.value);
    case TermRef::kLiteral:
      return dict.FindLiteral(t.value, t.datatype);
    case TermRef::kBlank:
    case TermRef::kVar:
      return rdf::kNoTerm;
  }
  return rdf::kNoTerm;
}

void CountGroup(const GroupPattern& g,
                std::map<std::string, TermRef> bound,
                const rdf::Store& store, const rdf::Dictionary& dict,
                std::vector<uint64_t>* out) {
  // Equality filters bind a constant to a variable (the semantic
  // rewrite); fold them in so FILTER(?p = swrc:month) vs. swrc:isbn
  // changes the counted pattern, not just the filter text.
  for (const Expr& f : g.filters) {
    if (f.op != Expr::kEq || f.kids.size() != 2) continue;
    const Expr& l = f.kids[0];
    const Expr& r = f.kids[1];
    if (l.op == Expr::kVar && r.op == Expr::kConst) {
      bound.emplace(l.var, r.constant);
    } else if (r.op == Expr::kVar && l.op == Expr::kConst) {
      bound.emplace(r.var, l.constant);
    }
  }
  for (const TriplePatternAst& t : g.triples) {
    rdf::TriplePattern pattern;
    const TermRef* refs[3] = {&t.s, &t.p, &t.o};
    rdf::TermId* slots[3] = {&pattern.s, &pattern.p, &pattern.o};
    bool impossible = false;
    for (int i = 0; i < 3; ++i) {
      const TermRef* ref = refs[i];
      if (ref->kind == TermRef::kVar) {
        auto it = bound.find(ref->value);
        if (it == bound.end()) continue;
        ref = &it->second;
      }
      if (ref->kind == TermRef::kBlank) continue;  // joins like a var
      rdf::TermId id = ResolveConst(*ref, dict);
      if (id == rdf::kNoTerm) {
        impossible = true;  // constant absent from the dictionary
        break;
      }
      *slots[i] = id;
    }
    out->push_back(impossible ? 0 : store.Count(pattern));
  }
  for (const auto& alternatives : g.unions) {
    for (const GroupPattern& alt : alternatives) {
      CountGroup(alt, bound, store, dict, out);
    }
  }
  for (const GroupPattern& opt : g.optionals) {
    CountGroup(opt, bound, store, dict, out);
  }
}

}  // namespace

std::vector<uint64_t> PatternCounts(const AstQuery& query,
                                    const rdf::Store& store,
                                    const rdf::Dictionary& dict) {
  std::vector<uint64_t> out;
  CountGroup(query.where, {}, store, dict, &out);
  return out;
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

ResultCache::ResultCache(size_t max_bytes)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

std::shared_ptr<const std::string> ResultCache::Get(const std::string& key,
                                                    uint64_t data_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->data_generation != data_generation) {
    // A generation mismatch is a plain miss: the entry was computed
    // against different store content (stale leftover of a pre-commit
    // Put), never servable to this reader.
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->body;
}

std::shared_ptr<const std::string> ResultCache::Put(const std::string& key,
                                                    std::string body,
                                                    uint64_t data_generation) {
  auto shared = std::make_shared<const std::string>(std::move(body));
  if (shared->size() > max_entry_bytes()) return shared;  // never admitted
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->body->size();
    bytes_ += shared->size();
    it->second->body = shared;
    it->second->data_generation = data_generation;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += shared->size();
    lru_.push_front(Entry{key, shared, data_generation});
    index_.emplace(key, lru_.begin());
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    bytes_ -= lru_.back().body->size();
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  return shared;
}

void ResultCache::BumpGeneration() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  ++generation_;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.generation = generation_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

// ---------------------------------------------------------------------------
// QueryTextMemo
// ---------------------------------------------------------------------------

QueryTextMemo::QueryTextMemo(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::optional<std::string> QueryTextMemo::Get(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void QueryTextMemo::Put(const std::string& text, std::string result_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it != index_.end()) {
    it->second->second = std::move(result_key);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(text, std::move(result_key));
  index_.emplace(text, lru_.begin());
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void QueryTextMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace sp2b::sparql
