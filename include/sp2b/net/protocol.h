// The SPARQL-protocol result layer: streams a QueryResult as SPARQL
// 1.1 JSON results or as the compact length-prefixed sp2b binary
// format, and decodes either wire format back into terms. Decoding
// lives here (not just in tests) so the differential harness and the
// bench client share one codec with the server — over-the-wire grids
// are comparable byte-for-byte against the in-process engine.
//
// Binary format (all integers little-endian):
//   "SPB1"                        magic
//   u8 flags                      bit0 is_ask, bit1 ask_value
//   u32 nvars, then per var       u32 len + name bytes
//   u64 nrows, then per row       per var: u8 kind (0 unbound, 1 IRI,
//                                 2 blank, 3 literal); kind != 0 adds
//                                 u32 len + lexical; kind == 3 adds
//                                 u32 len + datatype ("@tag" for
//                                 language tags, as in the store)
#ifndef SP2B_NET_PROTOCOL_H_
#define SP2B_NET_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sp2b/sparql/engine.h"
#include "sp2b/store/dictionary.h"

namespace sp2b::net {

inline constexpr char kContentTypeSparqlJson[] =
    "application/sparql-results+json";
inline constexpr char kContentTypeSparqlQuery[] = "application/sparql-query";
inline constexpr char kContentTypeForm[] = "application/x-www-form-urlencoded";
inline constexpr char kContentTypeBinary[] = "application/x-sp2b-results";
inline constexpr char kContentTypeJson[] = "application/json";

enum class ResultFormat { kJson, kBinary };

const char* ContentTypeFor(ResultFormat format);

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// JSON string escaping: '"', '\\', and every control character below
/// 0x20 (short forms for \b \f \n \r \t); other bytes pass through as
/// UTF-8.
std::string JsonEscape(std::string_view s);

/// Ordered sink for serialized result bytes; the server, tests and the
/// bench client point it at a string.
using WireSink = std::function<void(std::string_view)>;

/// Serializes `result`'s projected columns (and nothing else) in row
/// order through `sink`, batching rows so large results stream
/// instead of materializing a second copy.
void SerializeResults(const sparql::QueryResult& result,
                      const rdf::Dictionary& dict, ResultFormat format,
                      const WireSink& sink);

struct WireTerm {
  enum Kind : uint8_t { kUnbound = 0, kIri = 1, kBlank = 2, kLiteral = 3 };
  uint8_t kind = kUnbound;
  std::string lexical;
  std::string datatype;  // "@tag" marks a language tag, as in rdf::Term
};

struct WireResults {
  bool is_ask = false;
  bool ask_value = false;
  std::vector<std::string> vars;
  std::vector<std::vector<WireTerm>> rows;  // row-major, one slot per var
};

/// Decodes either wire format; throws ProtocolError on malformed
/// input (including non-results JSON).
WireResults DecodeResults(std::string_view body, ResultFormat format);

/// Rows rendered exactly like QueryResult::RowToString ("a=<iri>
/// b="lit"  c=-", two-space separated) and sorted; ASK results reduce
/// to {"yes"} / {"no"}. Directly comparable with the in-process
/// engine grids of the differential tests.
std::vector<std::string> SortedWireGrid(const WireResults& results);

}  // namespace sp2b::net

#endif  // SP2B_NET_PROTOCOL_H_
