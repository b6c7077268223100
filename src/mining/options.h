// Mining configuration shared by the Apriori baseline and Pincer-Search.

#ifndef PINCER_MINING_OPTIONS_H_
#define PINCER_MINING_OPTIONS_H_

#include <cstddef>
#include <functional>

#include "counting/support_counter.h"
#include "util/status.h"

namespace pincer {

struct Checkpoint;
class ThreadPool;

/// Options accepted by both miners. Pincer-specific fields are ignored by
/// Apriori.
struct MiningOptions {
  /// Minimum support as a fraction of |D| (e.g. 0.01 = 1%). An itemset is
  /// frequent iff its absolute count >= ceil(min_support * |D|), at least 1.
  double min_support = 0.01;

  /// Counting backend for passes >= 3 (and for MFCS elements in all passes).
  /// kAuto counts through the vertical bitmaps wherever their index fits a
  /// fixed memory cap and through the trie otherwise, picked once per
  /// database from its shape (counting/counter_factory.h); every pass
  /// records the engine as PassStats::backend_used. Result-invariant: every
  /// backend computes identical counts, so this knob (like num_threads) is
  /// excluded from the checkpoint options fingerprint.
  CounterBackend backend = CounterBackend::kTrie;

  /// Use the Özden et al. array fast paths for passes 1 and 2 (§4.1.1).
  /// When false, passes 1-2 run through the generic backend too; results are
  /// identical either way.
  bool use_array_fast_path = true;

  /// Worker threads for support counting: every database scan (the generic
  /// backends and the pass-1/2 array fast paths) is split into per-worker
  /// transaction chunks whose partial counts are merged in worker order, so
  /// counts and the mined result are bit-identical for every value.
  /// 1 (default) = serial; 0 = hardware concurrency; N = exactly N threads.
  /// The pool is created once per mining run and reused across passes.
  size_t num_threads = 1;

  /// Cap on the number of database passes, stats.passes (0 = automatic:
  /// |items| + 2, a bound the algorithms cannot exceed on well-formed
  /// inputs). Every paper driver checks it before each database pass that
  /// has work left, pass 2 included; a run truncated by the cap reports
  /// stats.aborted = true (and, unlike a time budget, never
  /// stats.budget_exceeded). An apriori-combined level served entirely from
  /// the optimistic precounts reads no database and consumes no pass.
  size_t max_passes = 0;

  /// Pincer only: adaptive MFCS cap (§3.5). If an MFCS update would grow the
  /// set beyond this many elements, MFCS maintenance is abandoned for the
  /// rest of the run (the adaptive variant the paper evaluates). 0 means
  /// unlimited — the pure Pincer-Search algorithm.
  size_t mfcs_cardinality_limit = 0;

  /// Pincer only: adaptive MFCS-gen work cap, in element-scan steps per
  /// update (0 = unlimited). Captures §3.5's "many 2-itemsets but only a
  /// few of them frequent" case, where the batch of infrequent itemsets is
  /// so large that maintaining the MFCS cannot pay for itself regardless of
  /// its cardinality. Exceeding it abandons MFCS maintenance like the
  /// cardinality cap does.
  size_t mfcs_work_limit = 0;

  /// Attach a CountingMetrics sink to the counting backend so
  /// MiningStats::counting reports backend work (calls, candidates,
  /// transactions scanned, structure nodes). Off by default: the figure
  /// harnesses and mine_cli enable it together with their JSON output.
  bool collect_counter_metrics = false;

  /// Emit per-pass progress via PINCER_LOG(kInfo).
  bool verbose = false;

  /// Cooperative wall-clock budget in milliseconds (0 = unlimited). Checked
  /// between passes and — via ScanBudget — every kScanAbortCheckRows rows
  /// inside each counting scan, so a single huge pass honors the budget
  /// too: when exceeded, the in-flight pass's partial counts are discarded,
  /// the run stops, and the result carries stats.aborted = true with
  /// whatever was mined by the last completed pass. Used by the benchmark
  /// harnesses to bound Apriori's exponential blow-ups at the paper's
  /// hardest settings.
  double time_budget_ms = 0;

  /// Resident mode (the serving daemon): a non-owning, pre-built counter
  /// bound to the same database this run mines. When set, the driver counts
  /// through it instead of constructing its own backend (skipping, e.g.,
  /// the vertical index's per-run transpose) and `backend` is ignored. The
  /// driver attaches its per-run metrics sink and scan budget to the
  /// counter for the duration of the run and detaches both before
  /// returning, so the counter can be reused by the next run. Like
  /// `backend`, this is result-invariant (all backends count identically)
  /// and therefore excluded from the checkpoint options fingerprint. The
  /// counter must outlive the run; concurrent runs must not share one.
  SupportCounter* resident_counter = nullptr;

  /// Resident mode: a non-owning worker pool to run counting scans on
  /// instead of creating a per-run pool. `num_threads` is then ignored
  /// (stats.num_threads echoes the shared pool's width). Result-invariant,
  /// excluded from the options fingerprint. The pool must outlive the run;
  /// ThreadPool is single-owner, so concurrent runs must not share one.
  ThreadPool* shared_pool = nullptr;

  /// Pass-level checkpoint sink: when set, every miner invokes it after
  /// each completed pass with a Checkpoint snapshot (see
  /// mining/checkpoint.h), its own to stamp and write, that ResumeMaximal
  /// can later restart from; a run's supports come back in its result. A
  /// failing sink is reported once via PINCER_LOG and mining continues —
  /// checkpointing is best-effort by design (a full disk must not kill the
  /// run it exists to protect).
  std::function<Status(Checkpoint)> checkpoint_sink;
};

}  // namespace pincer

#endif  // PINCER_MINING_OPTIONS_H_
