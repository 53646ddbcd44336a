// Query canonicalization and the endpoint's result cache built on it.
//
// Real endpoint logs are dominated by a handful of hot query
// templates instantiated with varying constants (Bonifati et al.;
// Arias et al.), so the same query text arrives again and again. The
// server keys its result cache off one canonical rendering of the
// parsed AST: whitespace/prefix differences are erased by rendering
// the AST, while variable names and constants stay inline, so two
// queries share a result key exactly when they mean byte-identical
// results.
//
// The result cache is a bounded byte-budget LRU over serialized
// response bodies (per wire format), invalidated wholesale when the
// store generation bumps. A small text memo in front of it maps raw
// query text to its result key, so a hot hit skips the parser too.
#ifndef SP2B_SPARQL_QUERY_CACHE_H_
#define SP2B_SPARQL_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sp2b/sparql/ast.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/store.h"

namespace sp2b::sparql {

/// A struct, not a bare string, only because the endpoint benchmark
/// (benchmark/endpoint.cc) names the type.
struct CanonicalQuery {
  /// Result identity: original variables, constants inline.
  std::string result_key;
};

/// Deterministic canonical rendering of a parsed query; two ASTs that
/// differ only in whitespace/prefix spelling of the source text render
/// identically by construction (the AST never saw the whitespace).
CanonicalQuery Canonicalize(const AstQuery& query);

/// Store cardinality of every triple pattern of `query`, in a
/// deterministic walk order (group triples, then union alternatives,
/// then optionals, recursively). Equality filters (?v = const) are
/// substituted into the patterns first, mirroring the semantic
/// rewrite, so a constant bound through FILTER still shows up in the
/// counts. Kept only for the endpoint benchmark's per-layer replay
/// (`query_cache.pattern_counts_us`); the server no longer calls it.
std::vector<uint64_t> PatternCounts(const AstQuery& query,
                                    const rdf::Store& store,
                                    const rdf::Dictionary& dict);

/// Thread-safe LRU of serialized response bodies keyed by
/// result key + wire format + row cap, bounded by a byte budget.
/// BumpGeneration() (store changed) drops every entry; an entry
/// larger than 1/8 of the budget is never admitted (one giant result
/// must not evict the whole hot set).
///
/// Against a live store every entry additionally carries the *data
/// generation* it was computed at, and Get() only hits when the
/// caller's pinned generation matches. The tag — not the wholesale
/// clear — is what makes stale hits impossible: a slow request that
/// computed its body against epoch G and Put() it after a commit
/// already cleared the cache leaves behind an entry tagged G, which a
/// post-commit reader (pinned at G+1) can never hit. Static-store
/// callers pass the default 0 everywhere and behave as before.
class ResultCache {
 public:
  explicit ResultCache(size_t max_bytes);

  /// nullptr = miss; an entry whose tag differs from
  /// `data_generation` is a miss. Hits and misses are counted here,
  /// so call at most once per request.
  std::shared_ptr<const std::string> Get(const std::string& key,
                                         uint64_t data_generation = 0);

  /// Admits `body` tagged with `data_generation` (when within the
  /// per-entry cap) and returns the shared copy — the caller serves
  /// the response from it either way.
  std::shared_ptr<const std::string> Put(const std::string& key,
                                         std::string body,
                                         uint64_t data_generation = 0);

  /// Store content changed: every cached body is stale. Clears the
  /// cache and bumps the generation counter exposed in /stats.
  void BumpGeneration();

  size_t max_entry_bytes() const { return max_bytes_ / 8; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t generation = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> body;
    uint64_t data_generation = 0;
  };
  using Slot = Entry;
  mutable std::mutex mu_;
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, generation_ = 0;
};

/// Tiny thread-safe LRU memo from raw query text to its canonical
/// result key: on a hot result-cache hit the server skips the parse +
/// canonicalization entirely. Strictly an accelerator — a miss just
/// means parsing as usual.
class QueryTextMemo {
 public:
  explicit QueryTextMemo(size_t max_entries);

  std::optional<std::string> Get(const std::string& text);
  void Put(const std::string& text, std::string result_key);

 private:
  using Slot = std::pair<std::string, std::string>;
  mutable std::mutex mu_;
  size_t max_entries_;
  std::list<Slot> lru_;
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
};

}  // namespace sp2b::sparql

#endif  // SP2B_SPARQL_QUERY_CACHE_H_
