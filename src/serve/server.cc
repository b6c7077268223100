#include "serve/server.h"

#include <sys/socket.h>

#include <sstream>
#include <utility>

#include "counting/counter_factory.h"
#include "data/database_io.h"
#include "mining/miner.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace pincer {

namespace {

/// Accept failures tolerated back-to-back before Serve() gives up. A dead
/// listener (EBADF, ENOTSOCK) fails every retry instantly; transient
/// faults recover well within the allowance.
constexpr size_t kMaxConsecutiveAcceptFailures = 8;

std::string DatabaseKey(const DatabaseFingerprint& fingerprint) {
  std::ostringstream os;
  os << fingerprint.path << '|' << fingerprint.file_bytes << '|'
     << fingerprint.rows << '|' << fingerprint.items;
  return os.str();
}

std::string ErrorResponse(const Status& status, const std::string& id) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.BeginObject();
  json.KeyValue("ok", false);
  if (!id.empty()) json.KeyValue("id", id);
  json.KeyValue("error_code", StatusCodeToString(status.code()));
  json.KeyValue("error", status.message());
  json.EndObject();
  return os.str();
}

std::string AckResponse(std::string_view op, const std::string& id) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.BeginObject();
  json.KeyValue("ok", true);
  json.KeyValue("op", op);
  if (!id.empty()) json.KeyValue("id", id);
  json.EndObject();
  return os.str();
}

}  // namespace

Status MiningService::Init(const ServerOptions& options) {
  options_ = options;
  if (options_.databases.empty()) {
    return Status::InvalidArgument("the daemon needs at least one database");
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  {
    // Init precedes the first HandleLine by contract, but cache_ is a
    // guarded field, and the guard is cheap here: state the protocol once,
    // uniformly, instead of special-casing setup.
    MutexLock lock(cache_mu_);
    cache_ = std::make_unique<ResultCache>(options_.cache_capacity);
  }

  DatabaseReadOptions read_options;
  read_options.malformed_rows = options_.malformed_rows;
  for (const ServeDatabaseSpec& spec : options_.databases) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("database name must be nonempty");
    }
    if (FindDatabase(spec.name) != nullptr) {
      return Status::InvalidArgument("duplicate database name \"" +
                                     spec.name + "\"");
    }
    DatabaseReadReport report;
    StatusOr<TransactionDatabase> db =
        ReadDatabaseFromFile(spec.path, read_options, &report);
    if (!db.ok()) {
      return Status(db.status().code(), "loading \"" + spec.name + "\" from " +
                                            spec.path + ": " +
                                            db.status().message());
    }
    auto resident = std::make_unique<ResidentDatabase>();
    resident->name = spec.name;
    resident->db = std::move(*db);
    resident->rows_skipped = report.rows_skipped;
    PINCER_RETURN_IF_ERROR(FillFileFingerprint(spec.path,
                                               resident->fingerprint));
    resident->fingerprint.rows = resident->db.size();
    resident->fingerprint.items = resident->db.num_items();
    resident->cache_key = DatabaseKey(resident->fingerprint);
    // Build the resident counter, and with it the vertical index transpose,
    // here, once, outside any query's latency. Served queries count only
    // through it (vertical, or the trie where the index exceeds its cap),
    // so the per-transaction bitset cache, which only the linear backend
    // and TransactionDatabase::Supports read, is never built.
    resident->counter =
        CreateCounter(CounterBackend::kAuto, resident->db, pool_.get());
    databases_.push_back(std::move(resident));
  }
  return Status::OK();
}

MiningService::ResidentDatabase* MiningService::FindDatabase(
    std::string_view name) {
  for (const auto& resident : databases_) {
    if (resident->name == name) return resident.get();
  }
  return nullptr;
}

std::string MiningService::HandleLine(std::string_view line) {
  StatusOr<Request> request = ParseRequest(line);
  if (!request.ok()) return ErrorResponse(request.status(), "");
  switch (request->op) {
    case Request::Op::kPing:
      return AckResponse("ping", request->id);
    case Request::Op::kList:
      return HandleList(*request);
    case Request::Op::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      return AckResponse("shutdown", request->id);
    case Request::Op::kMine:
      return HandleMine(*request);
  }
  return ErrorResponse(Status::Internal("unhandled op"), request->id);
}

std::string MiningService::HandleList(const Request& request) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.BeginObject();
  json.KeyValue("ok", true);
  json.KeyValue("op", "list");
  if (!request.id.empty()) json.KeyValue("id", request.id);
  json.Key("databases").BeginArray();
  for (const auto& resident : databases_) {
    json.BeginObject();
    json.KeyValue("name", resident->name);
    json.KeyValue("path", resident->fingerprint.path);
    json.KeyValue("num_transactions",
                  static_cast<uint64_t>(resident->db.size()));
    json.KeyValue("num_items",
                  static_cast<uint64_t>(resident->db.num_items()));
    json.EndObject();
  }
  json.EndArray();
  json.Key("cache").BeginObject();
  {
    MutexLock lock(cache_mu_);
    json.KeyValue("entries", static_cast<uint64_t>(cache_->size()));
    json.KeyValue("capacity", static_cast<uint64_t>(cache_->capacity()));
  }
  json.EndObject();
  json.KeyValue("num_threads",
                static_cast<uint64_t>(pool_->num_threads()));
  json.EndObject();
  return os.str();
}

namespace {

// The compact JSON array a mine response carries as "mfs".
std::string MfsJson(const std::vector<FrequentItemset>& mfs) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.BeginArray();
  for (const FrequentItemset& fi : mfs) {
    json.BeginObject();
    json.KeyValue("support", fi.support);
    json.Key("items").BeginArray();
    for (const ItemId item : fi.itemset) {
      json.Value(static_cast<uint64_t>(item));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  return os.str();
}

// The compact JSON object a mine response carries as "stats".
std::shared_ptr<const std::string> StatsJson(const MiningStats& stats) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  stats.ToJson(json);
  return std::make_shared<const std::string>(os.str());
}

// The full mine response. `answer` holds the MFS and the stats of the
// mining run that produced (or originally produced) it, both already
// serialized, so every response serving it splices the same bytes;
// `query_counting` is the counting work THIS query did — all zeros on a
// cache hit or filter, which is the serving layer's core claim and what
// the integration tests pin.
std::string MineResponse(const Request& request, std::string_view database,
                         size_t num_transactions, size_t num_items,
                         std::string_view cache,
                         const ResultCache::Entry& answer,
                         const CountingMetrics& query_counting,
                         double query_elapsed_ms) {
  std::ostringstream os;
  JsonWriter json(os, /*indent=*/0);
  json.BeginObject();
  json.KeyValue("ok", true);
  json.KeyValue("op", "mine");
  if (!request.id.empty()) json.KeyValue("id", request.id);
  json.KeyValue("schema_version", kStatsJsonSchemaVersion);
  json.KeyValue("schema_minor", kStatsJsonSchemaMinorVersion);
  json.KeyValue("database", database);
  json.KeyValue("algorithm", AlgorithmName(request.algorithm));
  json.KeyValue("min_support", request.min_support);
  json.KeyValue("min_count", answer.min_count);
  json.KeyValue("cache", cache);
  json.KeyValue("num_transactions", static_cast<uint64_t>(num_transactions));
  json.KeyValue("num_items", static_cast<uint64_t>(num_items));
  json.KeyValue("mfs_size", static_cast<uint64_t>(answer.mfs.size()));
  json.Key("mfs").RawValue(answer.mfs_json);
  json.Key("query").BeginObject();
  json.KeyValue("elapsed_ms", query_elapsed_ms);
  json.Key("counting");
  query_counting.ToJson(json);
  json.EndObject();
  json.Key("stats").RawValue(*answer.stats_json);
  json.EndObject();
  return os.str();
}

}  // namespace

std::string MiningService::HandleMine(const Request& request) {
  Timer query_timer;
  ResidentDatabase* resident = FindDatabase(request.database);
  if (resident == nullptr) {
    return ErrorResponse(
        Status::NotFound("no resident database named \"" + request.database +
                         "\" (see op:\"list\")"),
        request.id);
  }

  MiningOptions options;
  options.min_support = request.min_support;
  options.backend = CounterBackend::kAuto;
  options.use_array_fast_path = request.use_array_fast_path;
  options.max_passes = request.max_passes;
  options.mfcs_cardinality_limit = request.mfcs_cardinality_limit;
  options.mfcs_work_limit = request.mfcs_work_limit;
  options.collect_counter_metrics = true;
  double budget_ms =
      request.budget_ms > 0 ? request.budget_ms : options_.default_budget_ms;
  if (options_.max_budget_ms > 0 &&
      (budget_ms <= 0 || budget_ms > options_.max_budget_ms)) {
    budget_ms = options_.max_budget_ms;
  }
  options.time_budget_ms = budget_ms;

  // Cache keys are fingerprints of the EFFECTIVE options — result-invariant
  // knobs (backend, threads, budget) are excluded by the checkpoint layer,
  // so queries differing only in budget share an entry. A pincer-adaptive
  // query with explicit limits equal to the defaults must hit the same
  // entry as one that left them 0, hence the MineMaximal rewrites.
  const MiningOptions effective =
      EffectiveMiningOptions(options, request.algorithm);
  const std::string_view algorithm_id =
      CheckpointAlgorithmId(request.algorithm);
  const size_t combine_threshold =
      CheckpointCombineThreshold(request.algorithm);
  const std::string key =
      resident->cache_key + "|" +
      OptionsFingerprint(effective, algorithm_id, combine_threshold);
  MiningOptions family_options = effective;
  family_options.min_support = 0;
  const std::string family =
      resident->cache_key + "|" +
      OptionsFingerprint(family_options, algorithm_id, combine_threshold);
  const uint64_t min_count =
      resident->db.MinSupportCount(request.min_support);

  const CountingMetrics kNoCounting{};
  if (!request.no_cache) {
    std::shared_ptr<const ResultCache::Entry> exact;
    std::shared_ptr<const ResultCache::Entry> base;
    {
      MutexLock lock(cache_mu_);
      exact = cache_->Lookup(key);
      if (exact == nullptr) base = cache_->LookupFilterBase(family, min_count);
    }
    if (exact != nullptr) {
      return MineResponse(request, resident->name, resident->db.size(),
                          resident->db.num_items(), "hit", *exact,
                          kNoCounting, query_timer.ElapsedMillis());
    }
    if (base != nullptr) {
      // A run at a lower threshold is cached: try answering by filtering
      // its MFS downward (no counting at all). Falls through to a full
      // mine when a needed support was never counted by that run.
      std::optional<std::vector<FrequentItemset>> filtered =
          FilterMfsAtHigherMinCount(base->mfs, *base->supports, min_count);
      if (filtered.has_value()) {
        auto derived = std::make_shared<ResultCache::Entry>();
        derived->key = key;
        derived->family = family;
        derived->min_support = request.min_support;
        derived->min_count = min_count;
        derived->mfs = std::move(*filtered);
        derived->mfs_json = MfsJson(derived->mfs);
        derived->stats_json = base->stats_json;
        derived->supports = base->supports;
        {
          MutexLock lock(cache_mu_);
          cache_->Insert(derived);
        }
        return MineResponse(request, resident->name, resident->db.size(),
                            resident->db.num_items(), "filter", *derived,
                            kNoCounting, query_timer.ElapsedMillis());
      }
    }
  }

  // Full mine. Serialized: the shared pool and the resident counter are
  // single-owner. Cache hits for other sessions proceed concurrently.
  MutexLock mining_lock(mining_mu_);
  if (!request.no_cache) {
    // An identical query may have finished while this one waited its turn.
    std::shared_ptr<const ResultCache::Entry> exact;
    {
      MutexLock lock(cache_mu_);
      exact = cache_->Lookup(key);
    }
    if (exact != nullptr) {
      return MineResponse(request, resident->name, resident->db.size(),
                          resident->db.num_items(), "hit", *exact,
                          kNoCounting, query_timer.ElapsedMillis());
    }
  }

  options.resident_counter = resident->counter.get();
  options.shared_pool = pool_.get();
  MaximalSetResult result =
      MineMaximal(resident->db, options, request.algorithm);
  // Same accounting as mine_cli: load-time row drops ride on every run's
  // stats so served stats match a cold CLI run on the same file.
  result.stats.rows_skipped += resident->rows_skipped;
  result.stats.rows_dropped_items += resident->db.num_dropped_items();

  // The run is serialized once. A cacheable answer becomes the entry that
  // later hits and filters serve; either way the response is built from it.
  auto answer = std::make_shared<ResultCache::Entry>();
  answer->key = key;
  answer->family = family;
  answer->min_support = request.min_support;
  answer->min_count = min_count;
  answer->mfs = std::move(result.mfs);
  answer->mfs_json = MfsJson(answer->mfs);
  answer->stats_json = StatsJson(result.stats);
  if (!request.no_cache && !result.stats.aborted) {
    // The filter path's supports: one copy of the run's table, made once.
    // Moving it instead keeps the run's nodes alive scattered among its
    // freed temporaries, which fragments the heap the session serves its
    // next answers from: on an idle daemon, the slowest tenth of hits ran
    // 10-20% slower.
    answer->supports = std::make_shared<const SupportTable>(result.supports);
    MutexLock lock(cache_mu_);
    cache_->Insert(answer);
  }
  return MineResponse(request, resident->name, resident->db.size(),
                      resident->db.num_items(), "miss", *answer,
                      result.stats.counting, query_timer.ElapsedMillis());
}

Status Server::ListenUnix(const std::string& path) {
  StatusOr<UniqueFd> fd = ::pincer::ListenUnix(path);
  if (!fd.ok()) return fd.status();
  listener_ = std::move(*fd);
  return Status::OK();
}

Status Server::ListenTcp(uint16_t port) {
  StatusOr<UniqueFd> fd = ::pincer::ListenTcp(port);
  if (!fd.ok()) return fd.status();
  StatusOr<uint16_t> bound = BoundTcpPort(*fd);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(*fd);
  port_ = *bound;
  return Status::OK();
}

Status Server::Serve() {
  if (!listener_.valid()) {
    return Status::FailedPrecondition("Serve() needs a bound listener");
  }
  Status exit_status = Status::OK();
  size_t consecutive_accept_failures = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    StatusOr<UniqueFd> conn = AcceptConnection(listener_);
    if (!conn.ok()) {
      // Shutdown() half-closes the listener; accept failing then is the
      // normal exit, not an error.
      if (stopping_.load(std::memory_order_acquire)) break;
      // A transient accept failure (resource pressure, an aborted
      // handshake, an armed socket.accept failpoint) must not kill the
      // daemon: keep serving. Only a persistently failing listener —
      // every retry failing with no success in between — is fatal.
      if (++consecutive_accept_failures < kMaxConsecutiveAcceptFailures) {
        continue;
      }
      exit_status = conn.status();
      break;
    }
    consecutive_accept_failures = 0;
    MutexLock lock(sessions_mu_);
    const size_t slot = session_fds_.size();
    session_fds_.push_back(conn->get());
    sessions_.emplace_back(&Server::RunSession, this, std::move(*conn), slot);
  }
  JoinSessions();
  return exit_status;
}

void Server::JoinSessions() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(sessions_mu_);
    to_join.swap(sessions_);
    // Wake sessions blocked in recv so they observe the hangup and exit.
    for (const int fd : session_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& session : to_join) session.join();
}

void Server::RunSession(UniqueFd fd, size_t slot) {
  if (idle_timeout_ms_ > 0) {
    // (void): best-effort by design — a session we cannot arm still gets
    // served, it just never idles out.
    (void)SetRecvTimeout(fd, idle_timeout_ms_);
  }
  LineReader reader(fd);
  std::string line;
  for (;;) {
    const StatusOr<bool> got = reader.ReadLine(line);
    if (!got.ok() || !*got) break;
    if (line.empty()) continue;
    const std::string response = service_.HandleLine(line);
    if (!WriteLine(fd, response).ok()) break;
    if (service_.shutdown_requested()) {
      Shutdown();
      break;
    }
  }
  // Deregister before the fd closes so JoinSessions can never shut down a
  // reused descriptor.
  MutexLock lock(sessions_mu_);
  session_fds_[slot] = -1;
}

void Server::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  // shutdown(2), not close: async-signal-safe, wakes the blocked accept,
  // and cannot race a concurrent accept on a recycled descriptor.
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
}

}  // namespace pincer
