#include "mining/mining_run.h"

#include <algorithm>
#include <limits>

#include "counting/counter_factory.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pincer {

MiningRun::MiningRun(const TransactionDatabase& db,
                     const MiningOptions& options, std::string_view algorithm)
    : db_(db), options_(options), algorithm_(algorithm) {
  // One pool per run, shared by the counter and the array fast paths and
  // reused across passes — or, in resident mode, the caller's pool and
  // pre-built counter.
  pool_ = options.shared_pool;
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(options.num_threads);
    pool_ = owned_pool_.get();
  }
  counter_ = options.resident_counter;
  if (counter_ == nullptr) {
    owned_counter_ = CreateCounter(options.backend, db, pool_);
    counter_ = owned_counter_.get();
  }
  // The budget's deadline starts once the counter is built, so setup never
  // eats into it.
  if (options.time_budget_ms > 0) budget_.emplace(options.time_budget_ms);
  // Unconditional: a resident counter may carry a previous run's sinks.
  counter_->set_metrics(options.collect_counter_metrics ? &stats_.counting
                                                        : nullptr);
  counter_->set_scan_budget(scan_budget());
  stats_.num_threads = pool_->num_threads();
}

MiningRun::~MiningRun() {
  if (options_.resident_counter != nullptr) {
    counter_->set_metrics(nullptr);
    counter_->set_scan_budget(nullptr);
  }
}

Status MiningRun::Resume(const Checkpoint& checkpoint) {
  PINCER_RETURN_IF_ERROR(
      ValidateCheckpointForResume(checkpoint, algorithm_, Fingerprint(), db_));
  stats_ = checkpoint.stats;
  stats_.num_threads = pool_->num_threads();
  // Checkpointed wall-clock covers completed work; this run adds its own.
  elapsed_base_ = stats_.elapsed_millis;
  return Status::OK();
}

bool MiningRun::PassCapReached() {
  const size_t cap =
      options_.max_passes > 0 ? options_.max_passes : db_.num_items() + 2;
  if (stats_.passes < cap) return false;
  stats_.aborted = true;
  if (options_.verbose) {
    PINCER_LOG(kInfo) << algorithm_ << ": pass cap " << cap
                      << " reached with work left; result truncated";
  }
  return true;
}

bool MiningRun::BudgetExpired() {
  if (!budget_.has_value() || !budget_->Check()) return false;
  stats_.aborted = true;
  return true;
}

bool MiningRun::ScanStopped() {
  if (!budget_.has_value() || !budget_->exceeded()) return false;
  stats_.aborted = true;
  return true;
}

std::optional<std::vector<uint64_t>> MiningRun::Count(
    const std::vector<Itemset>& batch, PassStats& pass) {
  std::vector<uint64_t> counts;
  {
    ScopedMsTimer timer(pass.counting_ms);
    counts = counter_->CountSupports(batch);
  }
  if (named_pass_ != pass.pass) {
    named_pass_ = pass.pass;
    pass.backend_used =
        std::string(CounterBackendName(counter_->backend_used()));
  }
  if (ScanStopped()) return std::nullopt;
  return counts;
}

std::optional<std::vector<uint64_t>> MiningRun::CountItems(
    PassStats& pass) {
  named_pass_ = pass.pass;
  // The counter's vertical index already holds every item's support.
  const VerticalIndex* index = counter_->vertical_index();
  std::vector<uint64_t> counts;
  {
    ScopedMsTimer timer(pass.counting_ms);
    counts = index != nullptr ? index->item_supports()
                              : CountSingletons(db_, pool_, scan_budget());
  }
  if (index != nullptr) {
    pass.backend_used =
        std::string(CounterBackendName(CounterBackend::kVertical));
  }
  if (ScanStopped()) return std::nullopt;
  return counts;
}

bool MiningRun::CountPairs(PairCountMatrix& matrix,
                           const std::vector<uint64_t>& supports,
                           PassStats& pass) {
  named_pass_ = pass.pass;
  const VerticalIndex* index = counter_->vertical_index();
  const bool from_index =
      index != nullptr && PairFillPrefersIndex(db_.size(), supports);
  PairTable* const table = options_.resident_pairs;
  bool scanned = false;
  {
    ScopedMsTimer timer(pass.counting_ms);
    if (from_index) {
      matrix.CountIndex(*index, pool_, scan_budget());
    } else if (table == nullptr || !table->Fill(matrix)) {
      matrix.CountDatabase(db_, pool_, scan_budget());
      scanned = true;
    }
  }
  if (from_index) {
    pass.backend_used =
        std::string(CounterBackendName(CounterBackend::kVertical));
  }
  if (ScanStopped()) return false;
  if (scanned && table != nullptr) table->Offer(matrix);
  return true;
}

void MiningRun::RecordPass(PassStats pass) {
  ++stats_.passes;
  stats_.total_candidates += pass.num_candidates + pass.num_mfcs_candidates;
  stats_.mfcs_candidates += pass.num_mfcs_candidates;
  stats_.reported_candidates += pass.num_mfcs_candidates;
  if (pass.pass >= 3) stats_.reported_candidates += pass.num_candidates;
  stats_.per_pass.push_back(std::move(pass));
}

MiningOptions MiningRun::NestedOptions() const {
  MiningOptions nested = options_;
  nested.shared_pool = pool_;
  nested.resident_counter = nullptr;
  nested.resident_pairs = nullptr;
  nested.checkpoint_sink = nullptr;
  if (budget_.has_value()) {
    nested.time_budget_ms = std::max(budget_->RemainingMillis(),
                                     std::numeric_limits<double>::min());
  }
  return nested;
}

void MiningRun::Absorb(const MiningStats& nested) {
  stats_.counting += nested.counting;
  if (nested.aborted) stats_.aborted = true;
  if (nested.budget_exceeded && budget_.has_value()) budget_->Expire();
}

std::string MiningRun::Fingerprint() const {
  return OptionsFingerprint(options_, algorithm_);
}

Checkpoint MiningRun::CheckpointHeader(size_t next_pass) const {
  Checkpoint checkpoint;
  checkpoint.algorithm = algorithm_;
  checkpoint.next_pass = next_pass;
  checkpoint.options_fingerprint = Fingerprint();
  checkpoint.database.rows = db_.size();
  checkpoint.database.items = db_.num_items();
  checkpoint.stats = stats_;
  checkpoint.stats.elapsed_millis = ElapsedMillis();
  return checkpoint;
}

void MiningRun::Deliver(Checkpoint checkpoint) {
  const Status status = options_.checkpoint_sink(std::move(checkpoint));
  if (!status.ok() && !sink_error_logged_) {
    sink_error_logged_ = true;
    PINCER_LOG(kWarning) << "checkpoint sink failed (mining continues, "
                         << "further sink errors suppressed): "
                         << status.ToString();
  }
}

MiningStats MiningRun::Finish() {
  stats_.elapsed_millis = ElapsedMillis();
  stats_.budget_exceeded = budget_.has_value() && budget_->exceeded();
  return std::move(stats_);
}

}  // namespace pincer
