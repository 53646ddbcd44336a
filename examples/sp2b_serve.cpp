// sp2b_serve: the SPARQL-protocol HTTP endpoint over one document.
// Generates (or loads) the document, then serves GET/POST /sparql
// plus /stats and /health until SIGINT/SIGTERM. With --live the
// document is mutable: POST /update commits N-Triples batches as
// epoch snapshots, and (when generating) the simulated years beyond
// --live-base-year stream in on a background feeder, so the endpoint
// answers queries while the dataset grows.
//
// Usage:
//   sp2b_serve [--triples N | --doc file.nt] [--port P] [--host H]
//              [--port-file path] [--workers N] [--queue N]
//              [--timeout seconds] [--max-rows N] [--engine level]
//              [--idle-timeout-ms N] [--send-timeout-ms N]
//              [--drain-timeout-ms N] [--send-buffer BYTES]
//              [--faults SPEC] [--result-cache-mb N] [--live]
//              [--live-base-year YEAR] [--live-interval-ms N]
//     --triples    generate the document in-process (seed 4711,
//                  default 50000) instead of loading --doc
//     --live       serve a live store: POST /update accepts N-Triples
//                  batches; with generated data, years after
//                  --live-base-year stream in while serving
//     --live-base-year  bulk-load the generated cut through this year
//                  as the base (default 0 = start empty and stream
//                  every year); ignored with --doc
//     --live-interval-ms  delay between streamed year batches
//                  (default 100, 0 = stream as fast as possible)
//     --port       listen port; 0 (default) picks an ephemeral port
//     --port-file  write the bound port number to this file once
//                  listening — race-free startup for test harnesses
//     --workers    connection-serving lanes, one thread each
//                  (default 4)
//     --queue      admission-control queue depth; connections beyond
//                  it receive 503 (default 64)
//     --timeout    default per-query budget -> 408 (0 = none)
//     --max-rows   default per-query row cap -> 413 (0 = none)
//     --engine     naive|indexed|semantic|planned[-hash][@N]
//     --result-cache-mb N
//                  bound the result cache (default 32 MB, 0 = off)
//     --send-timeout-ms  per-response send budget; a client that
//                  cannot absorb its response in time is reaped
//                  (default 10000, 0 = none)
//     --drain-timeout-ms graceful-drain budget on SIGTERM/SIGINT:
//                  in-flight requests get this long to finish before
//                  force-close (default 5000)
//     --send-buffer      SO_SNDBUF override for accepted sockets
//                  (test knob; 0 = OS default)
//     --faults     arm a fault-injection schedule (see sp2b/fault.h
//                  for the grammar); the SP2B_FAULTS environment
//                  variable is the no-flag equivalent
//
// Exit codes: 0 clean shutdown, 1 error, 2 usage.
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sp2b/fault.h"
#include "sp2b/gen/year_batches.h"
#include "sp2b/net/server.h"
#include "sp2b/report.h"
#include "sp2b/runner.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"

using namespace sp2b;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sp2b_serve [--triples N | --doc file.nt] [--port P]\n"
               "       [--host H] [--port-file path] [--workers N] "
               "[--queue N]\n"
               "       [--timeout seconds] [--max-rows N] [--engine level]\n"
               "       [--idle-timeout-ms N] [--send-timeout-ms N]\n"
               "       [--drain-timeout-ms N] [--send-buffer BYTES]\n"
               "       [--faults SPEC] [--result-cache-mb N] [--live]\n"
               "       [--live-base-year YEAR] [--live-interval-ms N]\n");
  return 2;
}

int Run(int argc, char** argv) {
  uint64_t triples = 50'000;
  std::string doc_path;
  std::string port_file;
  bool live = false;
  int live_base_year = 0;
  int live_interval_ms = 100;
  net::ServerConfig config;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--triples") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n) return Usage();
      triples = *n;
    } else if (arg == "--doc") {
      if (!(value = next())) return Usage();
      doc_path = value;
    } else if (arg == "--port") {
      if (!(value = next())) return Usage();
      auto port = ParseDigitsOnly(value);  // strict: "80x" is an error
      if (!port || *port > 65535) return Usage();
      config.port = static_cast<int>(*port);
    } else if (arg == "--host") {
      if (!(value = next())) return Usage();
      config.host = value;
    } else if (arg == "--port-file") {
      if (!(value = next())) return Usage();
      port_file = value;
    } else if (arg == "--workers") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n || *n > 256) return Usage();
      config.workers = static_cast<int>(*n);
    } else if (arg == "--queue") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n) return Usage();
      config.queue_capacity = static_cast<size_t>(*n);
    } else if (arg == "--timeout") {
      if (!(value = next())) return Usage();
      auto secs = ParsePositiveSeconds(value);
      if (!secs) return Usage();
      config.timeout_seconds = *secs;
    } else if (arg == "--max-rows") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n) return Usage();
      config.max_rows = *n;
    } else if (arg == "--engine") {
      if (!(value = next())) return Usage();
      config.engine = value;
    } else if (arg == "--idle-timeout-ms") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n) return Usage();
      config.idle_timeout_ms = static_cast<int>(*n);
    } else if (arg == "--send-timeout-ms") {
      if (!(value = next())) return Usage();
      if (std::strcmp(value, "0") == 0) {
        config.send_timeout_ms = 0;  // disable the send deadline
      } else {
        auto n = ParsePositiveCount(value);
        if (!n) return Usage();
        config.send_timeout_ms = static_cast<int>(*n);
      }
    } else if (arg == "--drain-timeout-ms") {
      if (!(value = next())) return Usage();
      if (std::strcmp(value, "0") == 0) {
        config.drain_timeout_ms = 0;  // force-close immediately on stop
      } else {
        auto n = ParsePositiveCount(value);
        if (!n) return Usage();
        config.drain_timeout_ms = static_cast<int>(*n);
      }
    } else if (arg == "--send-buffer") {
      if (!(value = next())) return Usage();
      auto n = ParsePositiveCount(value);
      if (!n) return Usage();
      config.send_buffer_bytes = static_cast<int>(*n);
    } else if (arg == "--faults") {
      if (!(value = next())) return Usage();
      std::string error;
      if (!fault::Arm(value, &error)) {
        std::fprintf(stderr, "error: bad --faults spec: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--live") {
      live = true;
    } else if (arg == "--live-base-year") {
      if (!(value = next())) return Usage();
      auto year = ParseDigitsOnly(value);
      if (!year || *year > 9999) return Usage();
      live_base_year = static_cast<int>(*year);
    } else if (arg == "--live-interval-ms") {
      if (!(value = next())) return Usage();
      auto ms = ParseDigitsOnly(value);  // 0 = no pacing
      if (!ms || *ms > 3'600'000) return Usage();
      live_interval_ms = static_cast<int>(*ms);
    } else if (arg == "--result-cache-mb") {
      if (!(value = next())) return Usage();
      auto n = ParseDigitsOnly(value);  // 0 = no result cache
      if (!n || *n > 4096) return Usage();
      config.result_cache_mb = static_cast<size_t>(*n);
    } else {
      return Usage();
    }
  }

  // Block the shutdown signals before any thread starts, so every
  // server thread inherits the mask and only sigwait below sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  // SIGPIPE suppression lives in the net library now (server Start /
  // ConnectTcp call net::EnsureSigpipeSuppressed themselves).

  fault::ArmFromEnvOnce();  // SP2B_FAULTS; --faults above wins

  // The document (and in live mode the store in front of it).
  LoadedDocument doc;
  std::unique_ptr<rdf::LiveStore> live_store;
  std::vector<gen::YearBatch> stream_batches;  // years the feeder plays
  if (!live) {
    doc = doc_path.empty() ? GenerateDocument(triples, StoreKind::kIndex, true)
                           : LoadDocument(doc_path, StoreKind::kIndex, true);
    std::fprintf(stderr, "loaded %s triples in %.2fs (%.1f MB in memory)\n",
                 FormatCount(doc.triples).c_str(), doc.load_seconds,
                 static_cast<double>(doc.memory_bytes) / (1024 * 1024));
  } else if (!doc_path.empty()) {
    // Live over a loaded file: the file is the base, updates arrive
    // only via POST /update (no generator to stream from).
    doc = LoadDocument(doc_path, StoreKind::kIndex, false);
    uint64_t base_triples = doc.triples;
    live_store = std::make_unique<rdf::LiveStore>(std::move(doc.store),
                                                  std::move(doc.dict));
    std::fprintf(stderr, "live: loaded base of %s triples\n",
                 FormatCount(base_triples).c_str());
  } else {
    // Live over generated data: years through --live-base-year are
    // bulk-loaded as the base, the rest stream in while serving.
    gen::GeneratorConfig gen_config;
    gen_config.triple_limit = triples;
    stream_batches = gen::GenerateYearBatches(gen_config);
    auto dict = std::make_unique<rdf::Dictionary>();
    auto base = std::make_unique<rdf::IndexStore>();
    size_t consumed = 0;
    uint64_t base_triples = 0;
    while (consumed < stream_batches.size() &&
           stream_batches[consumed].year <= live_base_year) {
      std::istringstream in(stream_batches[consumed].ntriples);
      base_triples += rdf::ParseNTriples(in, *dict, *base);
      ++consumed;
    }
    base->Finalize();
    stream_batches.erase(stream_batches.begin(),
                         stream_batches.begin() +
                             static_cast<ptrdiff_t>(consumed));
    live_store = std::make_unique<rdf::LiveStore>(std::move(base),
                                                  std::move(dict));
    std::fprintf(stderr,
                 "live: base %s triples (through year %d), %zu year "
                 "batches to stream\n",
                 FormatCount(base_triples).c_str(), live_base_year,
                 stream_batches.size());
  }

  std::unique_ptr<net::SparqlServer> server =
      live_store != nullptr
          ? std::make_unique<net::SparqlServer>(*live_store, config)
          : std::make_unique<net::SparqlServer>(*doc.store, *doc.dict,
                                                doc.stats.get(), config);
  server->Start();
  std::fprintf(stderr,
               "listening on %s:%d (engine=%s, workers=%d, queue=%zu%s)\n",
               config.host.c_str(), server->port(), config.engine.c_str(),
               config.workers, config.queue_capacity,
               live ? ", live" : "");

  if (!port_file.empty()) {
    std::string tmp = port_file + ".tmp";
    if (FILE* f = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(f, "%d\n", server->port());
      std::fclose(f);
      std::rename(tmp.c_str(), port_file.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  // The live feeder: one generated year per tick, committed through
  // the same ingest path POST /update uses.
  std::mutex feeder_mu;
  std::condition_variable feeder_cv;
  bool feeder_stop = false;
  std::thread feeder;
  if (!stream_batches.empty()) {
    feeder = std::thread([&] {
      for (const gen::YearBatch& batch : stream_batches) {
        {
          std::unique_lock<std::mutex> lock(feeder_mu);
          if (feeder_cv.wait_for(lock,
                                 std::chrono::milliseconds(live_interval_ms),
                                 [&] { return feeder_stop; })) {
            return;
          }
        }
        rdf::LiveStore::CommitResult committed =
            live_store->IngestNTriples(batch.ntriples);
        std::fprintf(stderr, "live: year %d -> epoch %llu (+%llu triples)\n",
                     batch.year,
                     static_cast<unsigned long long>(committed.epoch),
                     static_cast<unsigned long long>(committed.added));
      }
      std::fprintf(stderr, "live: stream complete\n");
    });
  }

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: shutting down\n", sig);
  if (feeder.joinable()) {
    {
      std::lock_guard<std::mutex> lock(feeder_mu);
      feeder_stop = true;
    }
    feeder_cv.notify_all();
    feeder.join();
  }
  server->Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
