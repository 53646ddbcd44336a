// Deterministic fault-injection framework. Named sites on the serving
// and execution paths consult Probe(); when no schedule is armed the
// check is a single relaxed atomic load, so instrumented hot paths pay
// essentially nothing in production. A schedule is armed
// programmatically (Arm) or from the SP2B_FAULTS environment variable
// (ArmFromEnvOnce; sp2b_serve also accepts --faults).
//
// Schedule grammar (documented in README "Operational limits &
// failure modes"):
//
//   spec    := rule (';' rule)*
//   rule    := site ':' trigger ':' action
//            | "seed=" N                      (global RNG seed, default 4711)
//   site    := net.accept | net.recv | net.send | net.connect
//            | engine.morsel | plan.table_grow | live.compact
//   trigger := "p=" FLOAT                     (seeded Bernoulli per hit)
//            | "nth=" N                       (every Nth hit of the site)
//   action  := "errno=" NAME-or-number        (EPIPE, ECONNRESET, EMFILE, ...)
//            | "short=" BYTES                 (cap one read/write to BYTES)
//            | "delay=" MILLISECONDS          (sleep, then proceed normally)
//            | "fail"                         (site-specific hard failure; at
//                                              plan.table_grow this maps to
//                                              the memory outcome -> 413, at
//                                              live.compact to a bad_alloc
//                                              mid-compaction)
//
// Example:
//   SP2B_FAULTS='net.send:nth=7:short=512;net.send:p=0.01:errno=EPIPE'
//
// Probability triggers hash (seed, site, hit-count), so a schedule is
// reproducible for a fixed request sequence. Multiple rules may name
// the same site; the first rule that triggers on a hit wins. Delay
// outcomes are applied inside Probe itself — call sites only need to
// handle kErrno / kShort / kFail.
#ifndef SP2B_FAULT_H_
#define SP2B_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sp2b::fault {

enum class Site : int {
  kNetAccept = 0,
  kNetRecv,
  kNetSend,
  kNetConnect,
  kEngineMorsel,
  kPlanTableGrow,
  kLiveCompact,
  kCount,
};

struct Outcome {
  enum class Kind { kNone, kErrno, kShort, kDelay, kFail };
  Kind kind = Kind::kNone;
  int err = 0;       // kErrno: the errno value to simulate
  size_t cap = 0;    // kShort: byte cap for the next read/write
  int delay_ms = 0;  // kDelay: latency already applied by Probe

  explicit operator bool() const { return kind != Kind::kNone; }
};

namespace internal {
extern std::atomic<bool> g_armed;
Outcome CheckSlow(Site site);
}  // namespace internal

inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// The per-site check. Near-zero cost while no schedule is armed: one
/// relaxed atomic load, no branch taken.
inline Outcome Probe(Site site) {
  if (!Armed()) return {};
  return internal::CheckSlow(site);
}

/// Parses `spec` (grammar above) and arms it, replacing any previous
/// schedule and resetting all hit/injection counters. Returns false
/// (and fills `error`, if given) on a malformed spec, leaving the
/// previous schedule in place. An empty spec disarms.
bool Arm(const std::string& spec, std::string* error = nullptr);

/// Drops the schedule; Probe returns to the single-load fast path.
/// Injection counters are kept until the next Arm.
void Disarm();

/// Arms the SP2B_FAULTS environment variable once per process (no-op
/// when unset or already armed); a malformed value warns on stderr
/// and leaves faults disarmed rather than aborting startup.
void ArmFromEnvOnce();

/// Total faults injected since the last Arm (all sites / one site).
/// Delay outcomes count as injections.
uint64_t InjectedTotal();
uint64_t InjectedAt(Site site);

/// Times the site was consulted while armed (triggered or not).
uint64_t HitsAt(Site site);

const char* SiteName(Site site);

}  // namespace sp2b::fault

#endif  // SP2B_FAULT_H_
