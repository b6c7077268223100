// The mining daemon: loads basket databases once, keeps them resident
// (horizontal rows + the backend=auto counter, with its vertical index
// wherever that fits), and answers newline-delimited JSON mining queries
// over a Unix-domain or loopback TCP socket. Split in two so the protocol
// logic is testable without sockets:
//
//   MiningService — owns the resident databases, the shared ThreadPool, and
//     the ResultCache; maps one request line to one response line. No I/O.
//   Server — accept loop and per-connection session threads over
//     util/socket.h, feeding lines through a MiningService.
//
// Concurrency model: sessions run concurrently, but mining itself is
// serialized on one mutex — the ThreadPool is single-owner and the resident
// counters must not be shared mid-run, and a mining query saturates the
// pool's workers anyway. Cache hits bypass the mining mutex entirely, so
// repeat queries are never stuck behind a long mine. Request/response
// schemas are documented in docs/serving.md.

#ifndef PINCER_SERVE_SERVER_H_
#define PINCER_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "counting/support_counter.h"
#include "data/database.h"
#include "data/row_policy.h"
#include "mining/checkpoint.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace pincer {

/// One database to load at startup. `name` is the handle queries use.
struct ServeDatabaseSpec {
  std::string name;
  std::string path;
};

struct ServerOptions {
  std::vector<ServeDatabaseSpec> databases;
  /// Width of the shared counting pool (0 = hardware concurrency).
  size_t num_threads = 1;
  /// Result-cache capacity in entries.
  size_t cache_capacity = 64;
  /// Budget applied to queries that do not set budget_ms (0 = unlimited).
  double default_budget_ms = 0;
  /// Hard ceiling on any query's budget; 0 = no ceiling. A query asking for
  /// more (or for unlimited when a ceiling is set) is clamped, not
  /// rejected.
  double max_budget_ms = 0;
  /// Row policy for the startup loads (same knob as mine_cli --malformed).
  MalformedRowPolicy malformed_rows = MalformedRowPolicy::kStrict;
};

/// The socket-free protocol core. Init once, then HandleLine from any
/// number of threads.
class MiningService {
 public:
  MiningService() = default;
  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Loads every database (rejecting duplicate names), builds the resident
  /// counters, and sizes the pool and cache. The per-run setup cost a cold
  /// mine_cli pays (the vertical-index transpose) is paid here, once.
  Status Init(const ServerOptions& options);

  /// Maps one request line to one single-line JSON response. Never throws
  /// and never returns an empty string: protocol errors come back as
  /// {"ok":false,...} responses.
  std::string HandleLine(std::string_view line);

  /// True once a shutdown request has been handled; the socket server
  /// checks this after every response.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  struct ResidentDatabase {
    std::string name;
    TransactionDatabase db;
    DatabaseFingerprint fingerprint;
    /// The fingerprint's part of every cache key for this database.
    std::string cache_key;
    uint64_t rows_skipped = 0;
    /// Every query counts through this counter: the engine backend=auto
    /// builds for this database (counting/counter_factory.h).
    std::unique_ptr<SupportCounter> counter;
  };

  ResidentDatabase* FindDatabase(std::string_view name);
  std::string HandleMine(const Request& request) PINCER_EXCLUDES(mining_mu_);
  std::string HandleList(const Request& request) PINCER_EXCLUDES(cache_mu_);

  // options_, pool_, and databases_ are written only by Init(), which the
  // contract requires to complete before the first HandleLine; after that
  // they are read-only (the resident dbs and pool are MUTATED only while
  // mining, under mining_mu_). The LRU cache, by contrast, is restructured
  // by every lookup, so both the pointer and the pointee are guarded.
  ServerOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<ResidentDatabase>> databases_;
  /// Serializes actual mining (shared pool + resident counters are
  /// single-owner). Cache lookups do not take it. Lock order: mining_mu_
  /// before cache_mu_ (HandleMine re-checks and inserts while mining).
  Mutex mining_mu_;
  Mutex cache_mu_ PINCER_ACQUIRED_AFTER(mining_mu_);
  std::unique_ptr<ResultCache> cache_ PINCER_GUARDED_BY(cache_mu_)
      PINCER_PT_GUARDED_BY(cache_mu_);
  std::atomic<bool> shutdown_{false};
};

/// Blocking accept-loop server over a MiningService. One thread per
/// connection; Shutdown() is async-signal-safe so a SIGTERM handler can
/// call it directly.
class Server {
 public:
  explicit Server(MiningService& service) : service_(service) {}
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener. Exactly one of these before Serve().
  Status ListenUnix(const std::string& path);
  /// Port 0 picks a free port; port() reports it.
  Status ListenTcp(uint16_t port);

  uint16_t port() const { return port_; }

  /// Per-session idle read timeout: a session that sends no line for this
  /// long is disconnected (its resources freed), instead of pinning a
  /// session thread forever. 0 = no timeout. Set before Serve().
  void set_idle_timeout_ms(double timeout_ms) {
    idle_timeout_ms_ = timeout_ms;
  }

  /// Accepts connections until Shutdown(); joins every session thread
  /// before returning. Returns OK on a clean shutdown.
  Status Serve();

  /// Stops the accept loop and wakes idle sessions. Safe to call from a
  /// signal handler (atomics and shutdown(2) only) and from session
  /// threads.
  void Shutdown();

 private:
  void RunSession(UniqueFd fd, size_t slot) PINCER_EXCLUDES(sessions_mu_);
  /// Wakes and joins every session thread (idempotent).
  void JoinSessions() PINCER_EXCLUDES(sessions_mu_);

  MiningService& service_;
  // listener_, port_, and idle_timeout_ms_ are configured before Serve()
  // and immutable while serving (Shutdown() only shutdown(2)s the fd, it
  // never reassigns it), so they carry no lock.
  UniqueFd listener_;
  uint16_t port_ = 0;
  double idle_timeout_ms_ = 0;
  std::atomic<bool> stopping_{false};

  Mutex sessions_mu_;
  std::vector<std::thread> sessions_ PINCER_GUARDED_BY(sessions_mu_);
  /// Raw fds of live sessions, indexed by slot; -1 once a session has
  /// deregistered (before closing, so no entry ever names a reused fd).
  /// Serve()'s shutdown path shuts them down so blocked reads wake up.
  std::vector<int> session_fds_ PINCER_GUARDED_BY(sessions_mu_);
};

}  // namespace pincer

#endif  // PINCER_SERVE_SERVER_H_
