// Minimal HTTP/1.1 plumbing shared by the SPARQL endpoint server and
// the HTTP client of the tests and benchmark: request/response head parsing,
// percent and form-urlencoded codecs, a buffered keep-alive
// connection over a POSIX socket (Content-Length and chunked bodies),
// and a small blocking client. Everything above the socket layer is
// pure string-in/string-out so it unit-tests without a network.
#ifndef SP2B_NET_HTTP_H_
#define SP2B_NET_HTTP_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sp2b::net {

/// Malformed wire data (oversized heads, bad chunk framing, truncated
/// bodies) or a socket error; the server answers 400, the client
/// fails the request.
class HttpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A response write blew through its per-response send deadline — the
/// peer is reading too slowly (or not at all). The server reaps the
/// connection and counts it separately from hard write errors.
class SendTimeout : public HttpError {
 public:
  using HttpError::HttpError;
};

/// TCP connect (or name resolution) failed before any bytes moved —
/// distinguishable from mid-request errors so clients can account
/// connect failures in their retry taxonomy.
class ConnectError : public HttpError {
 public:
  using HttpError::HttpError;
};

/// Ignores SIGPIPE process-wide, once. On platforms with MSG_NOSIGNAL
/// every send already suppresses the signal, so this is a no-op there;
/// elsewhere it keeps in-process servers in tests/benches from dying
/// when a peer disconnects mid-write. Called from server startup and
/// ConnectTcp, so no binary has to remember it.
void EnsureSigpipeSuppressed();

/// %XX decoding; `plus_as_space` additionally maps '+' to ' ' (the
/// form-urlencoded convention used in query strings). Malformed %
/// sequences throw HttpError.
std::string PercentDecode(std::string_view s, bool plus_as_space);

/// Encodes everything outside the URL-safe unreserved set, suitable
/// for query-string parameter values.
std::string PercentEncode(std::string_view s);

/// "a=1&b=x%20y" -> {{"a","1"},{"b","x y"}}, percent-decoded with '+'
/// as space. Keys without '=' decode to empty values.
std::vector<std::pair<std::string, std::string>> ParseFormEncoded(
    std::string_view s);

struct HttpRequest {
  std::string method;   // "GET", "POST"
  std::string target;   // raw request target: path + optional ?query
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  // lower-case names
  std::string body;

  /// nullptr when absent; `name` must be given lower-case.
  const std::string* FindHeader(std::string_view name) const;
  std::string_view Path() const;         // target up to '?'
  std::string_view QueryString() const;  // raw text after '?', or ""
};

struct HttpResponse {
  int status = 0;
  std::string status_text;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(std::string_view name) const;
};

/// Parses "METHOD target HTTP/x.y" + header lines (CRLF separated,
/// terminated by the blank line or end of input). Returns false on
/// malformed input. Body bytes are not part of `head`.
bool ParseRequestHead(std::string_view head, HttpRequest* out);
bool ParseResponseHead(std::string_view head, HttpResponse* out);

/// Standard reason phrase of the status codes the endpoint emits.
const char* StatusText(int status);

/// Serialized response head: status line + headers + blank line.
std::string FormatResponseHead(
    int status, const std::vector<std::pair<std::string, std::string>>& headers);

/// Connects to host:port (numeric IPv4 or a resolvable name); returns
/// the fd. Throws ConnectError on failure.
int ConnectTcp(const std::string& host, int port);

/// A buffered HTTP connection owning its socket fd. Reading keeps
/// leftover bytes across calls, so pipelined/keep-alive traffic works.
class HttpConnection {
 public:
  enum class ReadStatus {
    kOk,       // one complete message parsed
    kEof,      // peer closed before any byte of the next message
    kTimeout,  // recv timed out (SO_RCVTIMEO) mid-wait; state kept
  };

  explicit HttpConnection(int fd) : fd_(fd) {}
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  int fd() const { return fd_; }
  void Close();

  /// Reads one request (head + Content-Length body). Throws HttpError
  /// on malformed or oversized input.
  ReadStatus ReadRequest(HttpRequest* out);

  /// Reads one response; supports Content-Length, chunked transfer
  /// encoding, and close-delimited bodies.
  ReadStatus ReadResponse(HttpResponse* out);

  /// Writes everything or throws HttpError (SIGPIPE suppressed).
  /// With an armed send deadline, a write that cannot complete in time
  /// throws SendTimeout instead of spinning: EAGAIN waits on
  /// poll(POLLOUT) bounded by the remaining budget.
  void WriteAll(std::string_view data);

  /// Per-response send budget in ms (0 disables — writes block
  /// indefinitely, the pre-hardening behavior).
  void SetSendTimeout(int ms) { send_timeout_ms_ = ms; }

  /// Starts the send-deadline clock for the next response; every
  /// WriteAll until the next ArmSendDeadline shares the budget, so a
  /// slow reader cannot stretch a large body forever.
  void ArmSendDeadline();

 private:
  /// Appends more bytes from the socket: 1 progress, 0 EOF, -1 timeout.
  int Fill();
  /// Scans for the end of the next message head from `pos_`; npos when
  /// more bytes are needed.
  size_t FindHeadEnd() const;
  std::string ReadChunkedBody();
  std::string TakeBytes(size_t n);
  /// Blocks until fd_ is writable or the armed deadline passes
  /// (throws SendTimeout); with no deadline, waits indefinitely.
  void WaitWritable();

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  int send_timeout_ms_ = 0;
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point send_deadline_{};
};

/// Blocking keep-alive client: reconnects transparently when the
/// server closed the previous connection.
class HttpClient {
 public:
  HttpClient(std::string host, int port)
      : host_(std::move(host)), port_(port) {}

  HttpResponse Get(const std::string& target,
                   const std::vector<std::pair<std::string, std::string>>&
                       extra_headers = {});
  HttpResponse Post(const std::string& target, const std::string& content_type,
                    const std::string& body,
                    const std::vector<std::pair<std::string, std::string>>&
                        extra_headers = {});
  void Close() { conn_.reset(); }

 private:
  HttpResponse Request(const char* method, const std::string& target,
                       const std::string& content_type,
                       const std::string& body,
                       const std::vector<std::pair<std::string, std::string>>&
                           extra_headers);

  std::string host_;
  int port_;
  std::unique_ptr<HttpConnection> conn_;
};

}  // namespace sp2b::net

#endif  // SP2B_NET_HTTP_H_
