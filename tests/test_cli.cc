// CLI outcome classification must reach the exit code, not just the
// report text: 0 success, 2 usage, 3 timeout, 4 memory limit — and
// malformed numeric flags are usage errors everywhere ("2x", "50k",
// "-1" must never silently parse as 2, 50, or 0). Driven as one CTest
// case that receives the sp2b_gen, sp2b_query, and sp2b_serve binary
// paths as arguments and shells out to them.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

int failures = 0;

int ExitCode(const std::string& command) {
  int status = std::system((command + " >/dev/null 2>&1").c_str());
  if (status < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

void Expect(const std::string& command, int expected) {
  int got = ExitCode(command);
  if (got == expected) {
    std::printf("[ OK ] exit %d: %s\n", got, command.c_str());
  } else {
    ++failures;
    std::printf("[FAIL] expected exit %d, got %d: %s\n", expected, got,
                command.c_str());
  }
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::printf(
        "usage: test_cli <sp2b_gen> <sp2b_query> [sp2b_serve]\n");
    return 1;
  }
  std::string gen = Quote(argv[1]);
  std::string query = Quote(argv[2]);
  std::string doc = "test_cli_fixture.nt";

  if (ExitCode(gen + " -t 5000 -s 4711 -o " + doc) != 0) {
    std::printf("[FAIL] could not generate %s\n", doc.c_str());
    return 1;
  }

  Expect(query + " " + doc + " q1 semantic", 0);
  Expect(query + " " + doc + " q1 planned --explain", 0);
  // A microsecond budget trips the deadline check inside evaluation.
  Expect(query + " " + doc + " q4 planned --timeout 0.000001", 3);
  Expect(query + " " + doc + " q4 semantic --timeout 0.000001", 3);
  // The budget covers planning: a 400-pattern star keeps the join-order
  // search busy for about a second.
  std::string star = "test_cli_star.rq";
  {
    std::ofstream out(star);
    out << "SELECT * WHERE {";
    for (int i = 0; i < 400; ++i) {
      out << " ?x <http://e/p" << i << "> ?o" << i << " .";
    }
    out << " }\n";
  }
  Expect(query + " " + doc + " - planned --timeout 0.05 < " + star, 3);
  // q4 materializes thousands of rows; a 10-row cap must abort.
  Expect(query + " " + doc + " q4 planned --max-rows 10", 4);
  Expect(query + " " + doc + " q4 semantic --max-rows 10", 4);
  Expect(query + " " + doc + " q1 no-such-engine", 2);
  Expect(query + " " + doc, 2);
  Expect(query + " no-such-file.nt q1", 1);

  // Strict numeric parsing: trailing junk, units, and negatives are
  // usage errors, never truncated atof/atoi values.
  Expect(query + " " + doc + " q1 --timeout 2x", 2);
  Expect(query + " " + doc + " q1 --timeout 0", 2);
  Expect(query + " " + doc + " q1 --max-rows 10k", 2);
  Expect(query + " " + doc + " q1 planned 5.5", 2);
  Expect(gen + " -t 50k", 2);
  Expect(gen + " -t -1", 2);
  Expect(gen + " -y 1975x", 2);
  Expect(gen + " -s 47x11 -t 100", 2);

  if (argc > 3) {
    std::string serve = Quote(argv[3]);
    Expect(serve + " --doc " + doc + " --port 80a80", 2);
    Expect(serve + " --doc " + doc + " --port 99999", 2);
    Expect(serve + " --doc " + doc + " --workers 4x", 2);
    Expect(serve + " --triples 10q --port 0", 2);
    Expect(serve + " --live --live-base-year 19x5", 2);
    Expect(serve + " --live --live-interval-ms -5", 2);
    Expect(serve + " --doc " + doc + " --result-cache-mb 5x", 2);
    Expect(serve + " --doc " + doc + " --result-cache-mb -1", 2);
  }

  std::remove(doc.c_str());
  std::remove(star.c_str());
  return failures == 0 ? 0 : 1;
}
