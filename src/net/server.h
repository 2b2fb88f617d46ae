// The psv_serve daemon core: a TCP server answering the wire protocol
// (net/wire.h) with one shared core::Verifier.
//
// Threading model:
//   * one accept thread blocks in Listener::accept();
//   * one reader thread per connection performs the handshake and then
//     decodes frames in order;
//   * each kVerify/kSynth frame is handed to its own worker thread, so
//     requests pipelined on one connection execute concurrently and
//     responses complete out of order — a per-connection write mutex keeps
//     response frames whole (synthesis jobs additionally fan out candidate
//     workers inside the shared Verifier);
//   * admission control bounds the total in-flight verify workers across
//     all connections; excess requests are rejected immediately with a
//     typed kError frame carrying ErrorCode::kBusy (clients may retry).
//
// Graceful drain (stop(), also wired to SIGTERM/SIGINT by psv_serve): the
// listener is interrupted, every connection's read side is shut down (reader
// threads observe clean end-of-stream and exit), in-flight workers run to
// completion and their responses are still written, then sockets close.
//
// Pre-warm: when ServerConfig::prewarm_manifest names a .psvb manifest, a
// background thread runs every job through the Verifier at startup. With a
// warm artifact cache this costs almost nothing and leaves the session pool
// populated, so the first real request is answered from memo instead of
// exploration. Serving starts immediately; pre-warm races real traffic
// safely (the Verifier is thread-safe).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/service.h"
#include "net/socket.h"
#include "net/wire.h"

namespace psv::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() reports it
  /// Verifier configuration (artifact cache + session-pool cap).
  std::string cache_dir;
  std::size_t max_sessions = 32;
  /// Admission control: maximum concurrently executing verify requests
  /// across all connections; further requests get kError/kBusy. 0 = no cap.
  std::size_t max_inflight = 64;
  /// Optional .psvb manifest pre-warmed through the Verifier at startup
  /// (paths resolve relative to the manifest, like psv_verify --batch).
  std::string prewarm_manifest;
  /// Optional log sink (one line per event); null = silent.
  std::function<void(const std::string&)> log;
  /// Test hook: called at the start of every verify worker with the request
  /// id, BEFORE the Verifier runs. Tests use it to hold a request in flight
  /// deterministically (e.g. to exercise kBusy admission rejection).
  std::function<void(std::uint64_t)> test_request_hook;
};

/// One running daemon instance. start() binds and serves; stop() drains.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener and start the accept (and pre-warm) threads.
  /// Throws psv::Error(kIo) when the endpoint cannot be bound.
  void start();

  /// The bound port (actual one when config.port was 0). Valid after start().
  std::uint16_t port() const;

  /// Graceful drain: stop accepting, close connection read sides, wait for
  /// in-flight requests to finish and their responses to be written, join
  /// all threads. Idempotent; also run by the destructor.
  void stop();

  /// Block until stop() is initiated from another thread (psv_serve's main
  /// thread parks here while signal handlers trigger the drain).
  void wait();

  /// Snapshot of the server-side counters (same data as a kStats frame).
  ServerStats stats() const;

 private:
  struct Connection {
    Socket sock;
    /// Negotiated protocol version of this connection (set by the
    /// handshake; only the reader thread writes it, workers read it).
    /// Gates v3-only traffic: kSynth frames from a v2 peer get a typed
    /// kProtocol error, and kStatsReport payloads use the v2 layout.
    std::uint16_t version = 0;
    std::mutex write_mu;  ///< serializes response frames on this socket
    // Guarded by write_mu: whoever last finishes (reader, or the final
    // in-flight worker after the reader left) half-closes the write side so
    // the client sees end-of-responses.
    std::size_t pending = 0;   ///< verify/synth workers not yet completed
    bool reader_done = false;  ///< reader thread has exited its loop
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);
  void handle_verify(const std::shared_ptr<Connection>& conn, Frame frame);
  void handle_synth(const std::shared_ptr<Connection>& conn, Frame frame);
  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                  ErrorCode code, const std::string& message);
  void run_prewarm();
  void log(const std::string& line) const;

  ServerConfig config_;
  core::Verifier verifier_;
  std::unique_ptr<Listener> listener_;  ///< closed (reset) during stop()
  std::uint16_t bound_port_ = 0;

  std::thread accept_thread_;
  std::thread prewarm_thread_;
  std::vector<std::thread> reader_threads_;

  mutable std::mutex mu_;  ///< guards connections_ and reader_threads_
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  /// Worker accounting for drain: stop() waits until active_workers_ == 0.
  mutable std::mutex workers_mu_;
  std::condition_variable workers_cv_;
  std::size_t active_workers_ = 0;

  // Counters behind stats(); atomics so workers never contend on a lock.
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> requests_received_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> requests_busy_{0};
  std::atomic<std::uint64_t> requests_in_flight_{0};
  std::atomic<std::uint64_t> prewarm_jobs_{0};
  std::atomic<std::uint64_t> prewarm_failures_{0};
  std::atomic<std::uint64_t> explorations_total_{0};
  std::atomic<std::uint64_t> cache_hits_total_{0};
  std::atomic<std::uint64_t> cache_misses_total_{0};
  // Scheme synthesis (kSynth, protocol v3).
  std::atomic<std::uint64_t> synth_requests_{0};
  std::atomic<std::uint64_t> synth_candidates_{0};
  std::atomic<std::uint64_t> synth_pruned_{0};
  std::atomic<std::uint64_t> synth_explored_{0};
  std::atomic<std::uint64_t> synth_fresh_states_{0};
};

}  // namespace psv::net
