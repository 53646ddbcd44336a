#include "sp2b/net/http.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>

#include "sp2b/fault.h"
#include "sp2b/strict_parse.h"

namespace sp2b::net {

namespace {

// Heads and bodies are bounded so a misbehaving peer cannot grow the
// connection buffer without limit.
constexpr size_t kMaxHeadBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
  }
  return out;
}

const std::string* FindIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

/// Splits head text into lines and fills `headers`; returns false on
/// a malformed header line.
bool ParseHeaderLines(std::string_view head, size_t start,
                      std::vector<std::pair<std::string, std::string>>* out) {
  size_t i = start;
  while (i < head.size()) {
    size_t eol = head.find("\r\n", i);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(i, eol - i);
    i = eol + (eol < head.size() ? 2 : 0);
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    out->emplace_back(ToLower(line.substr(0, colon)), std::string(value));
  }
  return true;
}

}  // namespace

void EnsureSigpipeSuppressed() {
#ifndef MSG_NOSIGNAL
  // Without per-send suppression a peer disconnect mid-write raises
  // SIGPIPE and kills the whole process (including in-process servers
  // inside tests); ignore it once, process-wide.
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
#endif
}

std::string PercentDecode(std::string_view s, bool plus_as_space) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+' && plus_as_space) {
      out += ' ';
    } else if (c == '%') {
      int hi = i + 1 < s.size() ? HexDigit(s[i + 1]) : -1;
      int lo = i + 2 < s.size() ? HexDigit(s[i + 2]) : -1;
      if (hi < 0 || lo < 0) throw HttpError("malformed % escape");
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

std::string PercentEncode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
                c == '~';
    if (safe) {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParseFormEncoded(
    std::string_view s) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t i = 0;
  while (i <= s.size()) {
    size_t amp = s.find('&', i);
    if (amp == std::string_view::npos) amp = s.size();
    std::string_view item = s.substr(i, amp - i);
    if (!item.empty()) {
      size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        out.emplace_back(PercentDecode(item, true), "");
      } else {
        out.emplace_back(PercentDecode(item.substr(0, eq), true),
                         PercentDecode(item.substr(eq + 1), true));
      }
    }
    if (amp == s.size()) break;
    i = amp + 1;
  }
  return out;
}

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

std::string_view HttpRequest::Path() const {
  size_t q = target.find('?');
  return std::string_view(target).substr(0, q);
}

std::string_view HttpRequest::QueryString() const {
  size_t q = target.find('?');
  if (q == std::string::npos) return {};
  return std::string_view(target).substr(q + 1);
}

const std::string* HttpResponse::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

bool ParseRequestHead(std::string_view head, HttpRequest* out) {
  *out = HttpRequest();
  size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) eol = head.size();
  std::string_view line = head.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  out->method = std::string(line.substr(0, sp1));
  out->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out->version = std::string(line.substr(sp2 + 1));
  if (out->method.empty() || out->target.empty() ||
      out->version.rfind("HTTP/", 0) != 0) {
    return false;
  }
  return ParseHeaderLines(head, eol + (eol < head.size() ? 2 : 0),
                          &out->headers);
}

bool ParseResponseHead(std::string_view head, HttpResponse* out) {
  *out = HttpResponse();
  size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) eol = head.size();
  std::string_view line = head.substr(0, eol);
  if (line.rfind("HTTP/", 0) != 0) return false;
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view code = line.substr(
      sp1 + 1, (sp2 == std::string_view::npos ? line.size() : sp2) - sp1 - 1);
  if (code.size() != 3) return false;
  int status = 0;
  for (char c : code) {
    if (c < '0' || c > '9') return false;
    status = status * 10 + (c - '0');
  }
  out->status = status;
  if (sp2 != std::string_view::npos) {
    out->status_text = std::string(line.substr(sp2 + 1));
  }
  return ParseHeaderLines(head, eol + (eol < head.size() ? 2 : 0),
                          &out->headers);
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string FormatResponseHead(
    int status,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    StatusText(status) + "\r\n";
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

int ConnectTcp(const std::string& host, int port) {
  EnsureSigpipeSuppressed();
  if (fault::Outcome f = fault::Probe(fault::Site::kNetConnect)) {
    if (f.kind == fault::Outcome::Kind::kErrno) {
      throw ConnectError("cannot connect to " + host + " (injected): " +
                         std::strerror(f.err));
    }
    if (f.kind == fault::Outcome::Kind::kFail) {
      throw ConnectError("cannot connect to " + host + " (injected fault)");
    }
  }
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    throw ConnectError("cannot resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw ConnectError("cannot connect to " + host + ":" + service);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void HttpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int HttpConnection::Fill() {
  // Compact once the consumed prefix dominates, so long-lived
  // keep-alive connections don't accrete old messages.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[16 * 1024];
  size_t want = sizeof(chunk);
  if (fault::Outcome f = fault::Probe(fault::Site::kNetRecv)) {
    if (f.kind == fault::Outcome::Kind::kShort && f.cap < want) {
      want = f.cap;
    } else if (f.kind == fault::Outcome::Kind::kErrno) {
      if (f.err == EAGAIN || f.err == EWOULDBLOCK || f.err == EINTR) {
        return -1;  // simulated timeout tick
      }
      throw HttpError(std::string("recv failed (injected): ") +
                      std::strerror(f.err));
    } else if (f.kind == fault::Outcome::Kind::kFail) {
      throw HttpError("recv failed (injected fault)");
    }
  }
  ssize_t n = ::recv(fd_, chunk, want, 0);
  if (n > 0) {
    buf_.append(chunk, static_cast<size_t>(n));
    return 1;
  }
  if (n == 0) return 0;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
  if (errno == EINTR) return -1;  // treated like a timeout tick
  throw HttpError(std::string("recv failed: ") + std::strerror(errno));
}

size_t HttpConnection::FindHeadEnd() const {
  size_t at = buf_.find("\r\n\r\n", pos_);
  return at == std::string::npos ? std::string::npos : at + 4;
}

std::string HttpConnection::TakeBytes(size_t n) {
  while (buf_.size() - pos_ < n) {
    int r = Fill();
    if (r == 0) throw HttpError("connection closed mid-body");
    // Body reads ride through recv timeouts: the message has started,
    // so a slow peer is not "idle".
  }
  std::string out = buf_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::string HttpConnection::ReadChunkedBody() {
  std::string body;
  for (;;) {
    size_t eol;
    while ((eol = buf_.find("\r\n", pos_)) == std::string::npos) {
      if (Fill() == 0) throw HttpError("connection closed mid-chunk");
    }
    std::string size_line = buf_.substr(pos_, eol - pos_);
    pos_ = eol + 2;
    size_t semi = size_line.find(';');  // ignore chunk extensions
    if (semi != std::string::npos) size_line.resize(semi);
    size_t chunk_size = 0;
    if (size_line.empty()) throw HttpError("empty chunk size");
    for (char c : size_line) {
      int d = HexDigit(c);
      if (d < 0) throw HttpError("malformed chunk size");
      chunk_size = chunk_size * 16 + static_cast<size_t>(d);
      if (chunk_size > kMaxBodyBytes) throw HttpError("chunk too large");
    }
    if (chunk_size == 0) {
      // Trailer section: consume lines until the blank one.
      for (;;) {
        size_t teol;
        while ((teol = buf_.find("\r\n", pos_)) == std::string::npos) {
          if (Fill() == 0) throw HttpError("connection closed in trailers");
        }
        bool blank = teol == pos_;
        pos_ = teol + 2;
        if (blank) return body;
      }
    }
    body += TakeBytes(chunk_size);
    if (body.size() > kMaxBodyBytes) throw HttpError("body too large");
    std::string crlf = TakeBytes(2);
    if (crlf != "\r\n") throw HttpError("missing chunk terminator");
  }
}

HttpConnection::ReadStatus HttpConnection::ReadRequest(HttpRequest* out) {
  size_t head_end;
  while ((head_end = FindHeadEnd()) == std::string::npos) {
    if (buf_.size() - pos_ > kMaxHeadBytes) {
      throw HttpError("request head too large");
    }
    int r = Fill();
    if (r == 0) {
      if (buf_.size() > pos_) throw HttpError("truncated request");
      return ReadStatus::kEof;
    }
    if (r < 0) return ReadStatus::kTimeout;
  }
  std::string_view head(buf_.data() + pos_, head_end - pos_ - 4);
  if (!ParseRequestHead(head, out)) throw HttpError("malformed request head");
  pos_ = head_end;
  if (const std::string* cl = out->FindHeader("content-length")) {
    // Digits only: strtoull would skip whitespace and wrap a leading
    // '-' into a huge length, turning "-1" into a 64MB read.
    std::optional<uint64_t> n = ParseDigitsOnly(*cl);
    if (!n || *n > kMaxBodyBytes) throw HttpError("bad content-length");
    out->body = TakeBytes(static_cast<size_t>(*n));
  } else if (const std::string* te = out->FindHeader("transfer-encoding")) {
    if (ToLower(*te).find("chunked") == std::string::npos) {
      throw HttpError("unsupported transfer-encoding");
    }
    out->body = ReadChunkedBody();
  }
  return ReadStatus::kOk;
}

HttpConnection::ReadStatus HttpConnection::ReadResponse(HttpResponse* out) {
  size_t head_end;
  while ((head_end = FindHeadEnd()) == std::string::npos) {
    if (buf_.size() - pos_ > kMaxHeadBytes) {
      throw HttpError("response head too large");
    }
    int r = Fill();
    if (r == 0) {
      if (buf_.size() > pos_) throw HttpError("truncated response");
      return ReadStatus::kEof;
    }
    if (r < 0) return ReadStatus::kTimeout;
  }
  std::string_view head(buf_.data() + pos_, head_end - pos_ - 4);
  if (!ParseResponseHead(head, out)) {
    throw HttpError("malformed response head");
  }
  pos_ = head_end;
  // The server frames every response with Content-Length; anything
  // else did not come from it.
  const std::string* cl = out->FindHeader("content-length");
  if (cl == nullptr) throw HttpError("response without content-length");
  std::optional<uint64_t> n = ParseDigitsOnly(*cl);
  if (!n || *n > kMaxBodyBytes) throw HttpError("bad content-length");
  out->body = TakeBytes(static_cast<size_t>(*n));
  return ReadStatus::kOk;
}

void HttpConnection::ArmSendDeadline() {
  deadline_armed_ = send_timeout_ms_ > 0;
  if (deadline_armed_) {
    send_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(send_timeout_ms_);
  }
}

void HttpConnection::WaitWritable() {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_armed_) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      send_deadline_ - std::chrono::steady_clock::now())
                      .count();
      if (left <= 0) throw SendTimeout("send deadline exceeded");
      timeout_ms = static_cast<int>(left);
    }
    struct pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return;  // writable (or HUP/ERR — let send report it)
    if (rc == 0) throw SendTimeout("send deadline exceeded");
    if (errno == EINTR) continue;
    throw HttpError(std::string("poll failed: ") + std::strerror(errno));
  }
}

void HttpConnection::WriteAll(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    // The deadline check lives at the loop top so even a trickle-
    // reading peer that keeps send() making token progress is reaped.
    if (deadline_armed_ &&
        std::chrono::steady_clock::now() >= send_deadline_) {
      throw SendTimeout("send deadline exceeded");
    }
    size_t want = data.size() - off;
    if (fault::Outcome f = fault::Probe(fault::Site::kNetSend)) {
      if (f.kind == fault::Outcome::Kind::kShort && f.cap < want) {
        want = f.cap;  // partial write; the loop resumes from off
      } else if (f.kind == fault::Outcome::Kind::kErrno) {
        if (f.err == EAGAIN || f.err == EWOULDBLOCK) {
          WaitWritable();
          continue;
        }
        throw HttpError(std::string("send failed (injected): ") +
                        std::strerror(f.err));
      } else if (f.kind == fault::Outcome::Kind::kFail) {
        throw HttpError("send failed (injected fault)");
      }
    }
    ssize_t n = ::send(fd_, data.data() + off, want,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Full socket buffer (nonblocking fd or SO_SNDTIMEO expiry):
        // park on poll(POLLOUT) for the remaining budget instead of
        // hot-spinning a core.
        WaitWritable();
        continue;
      }
      throw HttpError(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

HttpResponse HttpClient::Get(
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  return Request("GET", target, "", "", extra_headers);
}

HttpResponse HttpClient::Post(
    const std::string& target, const std::string& content_type,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  return Request("POST", target, content_type, body, extra_headers);
}

HttpResponse HttpClient::Request(
    const char* method, const std::string& target,
    const std::string& content_type, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string head = std::string(method) + " " + target + " HTTP/1.1\r\n" +
                     "Host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  if (!content_type.empty()) {
    head += "Content-Type: " + content_type + "\r\n";
  }
  if (!body.empty() || std::string_view(method) == "POST") {
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  for (const auto& [k, v] : extra_headers) head += k + ": " + v + "\r\n";
  head += "\r\n";

  // One transparent retry on a fresh connection: the server may have
  // recycled an idle keep-alive connection between requests.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool fresh = conn_ == nullptr;
    if (conn_ == nullptr) {
      conn_ = std::make_unique<HttpConnection>(ConnectTcp(host_, port_));
    }
    try {
      conn_->WriteAll(head);
      if (!body.empty()) conn_->WriteAll(body);
      HttpResponse resp;
      HttpConnection::ReadStatus st = conn_->ReadResponse(&resp);
      if (st != HttpConnection::ReadStatus::kOk) {
        throw HttpError("connection closed before response");
      }
      const std::string* connection = resp.FindHeader("connection");
      if (connection != nullptr && *connection == "close") conn_.reset();
      return resp;
    } catch (const HttpError&) {
      conn_.reset();
      if (fresh || attempt == 1) throw;
    }
  }
  throw HttpError("unreachable");
}

}  // namespace sp2b::net
