// Minimal test harness: SP2B_TEST(name) registers a case; the binary
// runs the case named in argv[1] (all cases without arguments) so
// CMake can register each case as its own CTest entry.
#ifndef SP2B_TESTS_TEST_UTIL_H_
#define SP2B_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sp2b::test {

inline std::map<std::string, std::function<void()>>& Registry() {
  static auto* registry = new std::map<std::string, std::function<void()>>();
  return *registry;
}

struct Register {
  Register(const char* name, std::function<void()> fn) {
    Registry()[name] = std::move(fn);
  }
};

class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename A, typename B>
void CheckEqImpl(const A& a, const B& b, const char* ea, const char* eb,
                 const char* file, int line) {
  if (a == b) return;
  std::ostringstream msg;
  msg << file << ":" << line << ": CHECK_EQ(" << ea << ", " << eb
      << ") failed: " << a << " != " << b;
  throw CheckFailure(msg.str());
}

/// Reads one counter out of a /stats JSON body (0 when absent).
inline uint64_t StatsCounter(const std::string& json, const std::string& name) {
  size_t pos = json.find("\"" + name + "\":");
  if (pos == std::string::npos) return 0;
  pos = json.find(':', pos);
  return std::strtoull(json.c_str() + pos + 1, nullptr, 10);
}

inline int RunTests(int argc, char** argv) {
  int failures = 0;
  int executed = 0;
  for (const auto& [name, fn] : Registry()) {
    if (argc > 1 && name != argv[1]) continue;
    ++executed;
    try {
      fn();
      std::printf("[ OK ] %s\n", name.c_str());
    } catch (const std::exception& e) {
      ++failures;
      std::printf("[FAIL] %s: %s\n", name.c_str(), e.what());
    }
  }
  if (executed == 0) {
    std::printf("[FAIL] no test case named '%s'\n", argc > 1 ? argv[1] : "");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace sp2b::test

#define SP2B_TEST(name)                                          \
  static void SP2BTest_##name();                                 \
  static ::sp2b::test::Register sp2b_test_reg_##name(#name,      \
                                                     SP2BTest_##name); \
  static void SP2BTest_##name()

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream msg;                                             \
      msg << __FILE__ << ":" << __LINE__ << ": CHECK(" << #cond          \
          << ") failed";                                                  \
      throw ::sp2b::test::CheckFailure(msg.str());                        \
    }                                                                     \
  } while (0)

#define CHECK_EQ(a, b) \
  ::sp2b::test::CheckEqImpl((a), (b), #a, #b, __FILE__, __LINE__)

#define SP2B_TEST_MAIN()                          \
  int main(int argc, char** argv) {               \
    return ::sp2b::test::RunTests(argc, argv);    \
  }

#endif  // SP2B_TESTS_TEST_UTIL_H_
