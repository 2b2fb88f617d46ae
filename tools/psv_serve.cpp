// psv_serve — the verification daemon: one shared core::Verifier behind
// the wire protocol (net/wire.h, net/server.h).
//
//   psv_serve [--host HOST] [--port N] [--cache-dir DIR] [options]
//
// Clients (psv_verify --connect HOST:PORT, or any net::Client) negotiate a
// protocol version, then pipeline verify requests — and, from protocol v3,
// scheme-synthesis jobs — on one connection; the daemon answers them
// concurrently, bounded by --max-inflight (excess requests are rejected
// with a typed BUSY error clients may retry). All
// connections share the session pool and the artifact cache, so a request
// the daemon has answered before — from any client — is served from memo
// without exploring a single state.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops accepting,
// finishes every in-flight request, writes the responses, and exits 0.
//
// The line "psv_serve: listening on HOST:PORT" on stdout marks readiness
// (with --port 0 it reports the actual ephemeral port); diagnostics go to
// stderr.
#include <csignal>
#include <iostream>
#include <string>

#include "net/server.h"
#include "util/cli.h"
#include "util/error.h"

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint64_t port = 7515;
  std::string cache_dir;
  bool no_cache = false;
  std::uint64_t max_sessions = 32;
  std::uint64_t max_inflight = 64;
  std::string prewarm;
  bool quiet = false;

  psv::cli::Parser parser(
      "psv_serve",
      "usage: psv_serve [options]\n"
      "\n"
      "Serves the batched Verifier over the PSV wire protocol. Clients connect\n"
      "with psv_verify --connect HOST:PORT; requests pipelined on one connection\n"
      "run concurrently and all connections share the warm session pool and the\n"
      "artifact cache.");
  parser.flag("--host", &host, "HOST", "address to bind (default 127.0.0.1)");
  parser.flag("--port", &port, "N",
              "TCP port to listen on (default 7515; 0 picks an\n"
              "ephemeral port, reported on the 'listening on' line)");
  parser.flag("--cache-dir", &cache_dir, "DIR",
              "persistent verification-artifact cache shared by all\n"
              "served requests (and the --prewarm pass)");
  parser.env_fallback("--cache-dir", "PSV_CACHE_DIR");
  parser.flag("--no-cache", &no_cache, "ignore $PSV_CACHE_DIR and serve without the cache");
  parser.flag("--max-sessions", &max_sessions, "N",
              "LRU cap on pooled warm verification sessions (default 32;\n"
              "0 disables pooling)");
  parser.flag("--max-inflight", &max_inflight, "N",
              "maximum concurrently executing requests across all\n"
              "connections; excess requests get a typed BUSY error\n"
              "(default 64; 0 removes the cap)");
  parser.flag("--prewarm", &prewarm, "FILE",
              "run every job of the .psvb manifest FILE through the\n"
              "Verifier in the background at startup, populating the\n"
              "session pool (paths resolve relative to the manifest)");
  parser.flag("--quiet", &quiet, "suppress per-event diagnostics on stderr");
  parser.epilog(
      "Readiness: the line 'psv_serve: listening on HOST:PORT' on stdout.\n"
      "SIGTERM/SIGINT drain gracefully: in-flight requests finish and their\n"
      "responses are written before the daemon exits 0.");

  try {
    const std::vector<std::string> positional = parser.parse(argc - 1, argv + 1);
    if (parser.help_requested()) {
      std::cout << parser.help();
      return 0;
    }
    PSV_REQUIRE_AS(psv::ErrorCode::kParse, positional.empty(),
                   "psv_serve takes no positional arguments");
    PSV_REQUIRE_AS(psv::ErrorCode::kParse, port <= 65535, "--port expects a value in [0, 65535]");
    if (no_cache) cache_dir.clear();

    // Block the termination signals before spawning server threads so every
    // thread inherits the mask and only the sigwait() below receives them.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    psv::net::ServerConfig config;
    config.host = host;
    config.port = static_cast<std::uint16_t>(port);
    config.cache_dir = cache_dir;
    config.max_sessions = max_sessions;
    config.max_inflight = max_inflight;
    config.prewarm_manifest = prewarm;
    if (!quiet)
      config.log = [](const std::string& line) { std::cerr << "psv_serve: " << line << "\n"; };

    psv::net::Server server(config);
    server.start();
    std::cout << "psv_serve: listening on " << host << ":" << server.port() << std::endl;

    int signal = 0;
    sigwait(&signals, &signal);
    if (!quiet)
      std::cerr << "psv_serve: received " << (signal == SIGTERM ? "SIGTERM" : "SIGINT")
                << ", draining\n";
    server.stop();

    const psv::net::ServerStats stats = server.stats();
    if (!quiet) {
      std::cerr << "psv_serve: served " << stats.requests_received << " request(s) ("
                << stats.requests_ok << " ok, " << stats.requests_error << " error, "
                << stats.requests_busy << " busy) on " << stats.connections_accepted
                << " connection(s); " << stats.explorations_total << " exploration(s), "
                << stats.cache_hits_total << " cache hit(s)\n";
      if (stats.synth_requests > 0)
        std::cerr << "psv_serve: synthesis: " << stats.synth_requests << " job(s), "
                  << stats.synth_candidates << " candidate(s), " << stats.synth_explored
                  << " explored, " << stats.synth_pruned << " pruned, "
                  << stats.synth_fresh_states << " state(s) explored\n";
    }
    return 0;
  } catch (const psv::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
