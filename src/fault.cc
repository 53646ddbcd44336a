#include "sp2b/fault.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace sp2b::fault {
namespace {

constexpr int kSiteCount = static_cast<int>(Site::kCount);
constexpr uint64_t kDefaultSeed = 4711;

struct Rule {
  enum class Trigger { kProb, kNth };
  Trigger trigger = Trigger::kNth;
  double prob = 0.0;   // kProb
  uint64_t nth = 1;    // kNth: fire on hits nth, 2*nth, ...
  Outcome outcome;     // what to inject (delay applied by CheckSlow)
};

struct Schedule {
  std::vector<Rule> rules[kSiteCount];
  uint64_t seed = kDefaultSeed;
  uint64_t hits[kSiteCount] = {};
  uint64_t injected[kSiteCount] = {};
};

std::mutex g_mu;
Schedule g_schedule;
std::atomic<uint64_t> g_injected_total{0};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic per-hit uniform in [0,1): hash of (seed, site, hit#).
double HitUniform(uint64_t seed, int site, uint64_t hit) {
  uint64_t h = SplitMix64(seed ^ SplitMix64(0x5157ULL * (site + 1)) ^ hit);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct ErrnoName {
  const char* name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"EAGAIN", EAGAIN},           {"EWOULDBLOCK", EWOULDBLOCK},
    {"EINTR", EINTR},             {"EPIPE", EPIPE},
    {"ECONNRESET", ECONNRESET},   {"ECONNABORTED", ECONNABORTED},
    {"ECONNREFUSED", ECONNREFUSED}, {"EMFILE", EMFILE},
    {"ENFILE", ENFILE},           {"ENOBUFS", ENOBUFS},
    {"ENOMEM", ENOMEM},           {"ETIMEDOUT", ETIMEDOUT},
    {"EIO", EIO},                 {"EHOSTUNREACH", EHOSTUNREACH},
};

bool ParseErrno(const std::string& text, int* out) {
  for (const ErrnoName& e : kErrnoNames) {
    if (text == e.name) {
      *out = e.value;
      return true;
    }
  }
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v <= 0) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseSite(const std::string& text, Site* out) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (text == SiteName(static_cast<Site>(i))) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseRule(const std::string& text, Schedule* sched, std::string* error) {
  std::vector<std::string> parts = Split(text, ':');
  if (parts.size() == 1 && parts[0].rfind("seed=", 0) == 0) {
    if (!ParseUint(parts[0].substr(5), &sched->seed)) {
      *error = "bad seed in '" + text + "'";
      return false;
    }
    return true;
  }
  if (parts.size() != 3) {
    *error = "rule '" + text + "' is not site:trigger:action";
    return false;
  }

  Site site;
  if (!ParseSite(parts[0], &site)) {
    *error = "unknown fault site '" + parts[0] + "'";
    return false;
  }

  Rule rule;
  const std::string& trig = parts[1];
  if (trig.rfind("p=", 0) == 0) {
    char* end = nullptr;
    rule.prob = std::strtod(trig.c_str() + 2, &end);
    if (end == trig.c_str() + 2 || *end != '\0' || rule.prob < 0.0 ||
        rule.prob > 1.0) {
      *error = "bad probability in '" + text + "'";
      return false;
    }
    rule.trigger = Rule::Trigger::kProb;
  } else if (trig.rfind("nth=", 0) == 0) {
    if (!ParseUint(trig.substr(4), &rule.nth) || rule.nth == 0) {
      *error = "bad nth in '" + text + "'";
      return false;
    }
    rule.trigger = Rule::Trigger::kNth;
  } else {
    *error = "unknown trigger '" + trig + "' (want p=F or nth=N)";
    return false;
  }

  const std::string& act = parts[2];
  if (act.rfind("errno=", 0) == 0) {
    rule.outcome.kind = Outcome::Kind::kErrno;
    if (!ParseErrno(act.substr(6), &rule.outcome.err)) {
      *error = "unknown errno in '" + text + "'";
      return false;
    }
  } else if (act.rfind("short=", 0) == 0) {
    uint64_t cap = 0;
    if (!ParseUint(act.substr(6), &cap) || cap == 0) {
      *error = "bad short cap in '" + text + "'";
      return false;
    }
    rule.outcome.kind = Outcome::Kind::kShort;
    rule.outcome.cap = static_cast<size_t>(cap);
  } else if (act.rfind("delay=", 0) == 0) {
    uint64_t ms = 0;
    if (!ParseUint(act.substr(6), &ms)) {
      *error = "bad delay in '" + text + "'";
      return false;
    }
    rule.outcome.kind = Outcome::Kind::kDelay;
    rule.outcome.delay_ms = static_cast<int>(ms);
  } else if (act == "fail") {
    rule.outcome.kind = Outcome::Kind::kFail;
  } else {
    *error = "unknown action '" + act + "'";
    return false;
  }

  sched->rules[static_cast<int>(site)].push_back(rule);
  return true;
}

}  // namespace

namespace internal {

std::atomic<bool> g_armed{false};

Outcome CheckSlow(Site site) {
  const int idx = static_cast<int>(site);
  Outcome out;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!g_armed.load(std::memory_order_relaxed)) return {};
    Schedule& s = g_schedule;
    const uint64_t hit = ++s.hits[idx];
    for (const Rule& rule : s.rules[idx]) {
      bool fire = rule.trigger == Rule::Trigger::kNth
                      ? (hit % rule.nth == 0)
                      : (HitUniform(s.seed, idx, hit) < rule.prob);
      if (!fire) continue;
      out = rule.outcome;
      ++s.injected[idx];
      g_injected_total.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  // Latency injection happens here, outside the lock, so concurrent
  // probes at other sites are not serialized behind a sleeping one.
  if (out.kind == Outcome::Kind::kDelay && out.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(out.delay_ms));
  }
  return out;
}

}  // namespace internal

bool Arm(const std::string& spec, std::string* error) {
  Schedule next;
  bool any = false;
  for (const std::string& part : Split(spec, ';')) {
    std::string trimmed = part;
    while (!trimmed.empty() && (trimmed.front() == ' ' || trimmed.front() == '\t'))
      trimmed.erase(trimmed.begin());
    while (!trimmed.empty() && (trimmed.back() == ' ' || trimmed.back() == '\t'))
      trimmed.pop_back();
    if (trimmed.empty()) continue;
    std::string err;
    if (!ParseRule(trimmed, &next, &err)) {
      if (error) *error = err;
      return false;
    }
    any = true;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  if (!any) {
    internal::g_armed.store(false, std::memory_order_relaxed);
    return true;
  }
  g_schedule = std::move(next);
  g_injected_total.store(0, std::memory_order_relaxed);
  internal::g_armed.store(true, std::memory_order_relaxed);
  return true;
}

void Disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  internal::g_armed.store(false, std::memory_order_relaxed);
}

void ArmFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (internal::g_armed.load(std::memory_order_relaxed)) return;
    const char* spec = std::getenv("SP2B_FAULTS");
    if (!spec || !*spec) return;
    std::string error;
    if (!Arm(spec, &error)) {
      std::fprintf(stderr, "warning: ignoring SP2B_FAULTS: %s\n",
                   error.c_str());
    }
  });
}

uint64_t InjectedTotal() {
  return g_injected_total.load(std::memory_order_relaxed);
}

uint64_t InjectedAt(Site site) {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_schedule.injected[static_cast<int>(site)];
}

uint64_t HitsAt(Site site) {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_schedule.hits[static_cast<int>(site)];
}

const char* SiteName(Site site) {
  switch (site) {
    case Site::kNetAccept: return "net.accept";
    case Site::kNetRecv: return "net.recv";
    case Site::kNetSend: return "net.send";
    case Site::kNetConnect: return "net.connect";
    case Site::kEngineMorsel: return "engine.morsel";
    case Site::kPlanTableGrow: return "plan.table_grow";
    case Site::kLiveCompact: return "live.compact";
    case Site::kCount: break;
  }
  return "?";
}

}  // namespace sp2b::fault
