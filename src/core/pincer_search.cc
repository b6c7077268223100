#include "core/pincer_search.h"

#include <algorithm>
#include <optional>

#include "apriori/apriori_gen.h"
#include "core/candidate_gen.h"
#include "core/mfcs.h"
#include "core/mfs.h"
#include "itemset/itemset_ops.h"
#include "itemset/itemset_set.h"
#include "mining/mining_run.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pincer {

bool MaximalSetResult::IsFrequent(const Itemset& itemset) const {
  for (const FrequentItemset& element : mfs) {
    if (itemset.IsSubsetOf(element.itemset)) return true;
  }
  return false;
}

namespace {

// Driver state for one mining run. The pass structure follows the paper's
// main loop (§3.5) with the deviations documented in DESIGN.md: support
// caching, cache-driven MFCS classification, and the generalized
// termination condition.
class PincerDriver {
 public:
  PincerDriver(const TransactionDatabase& db, const MiningOptions& options)
      : db_(db),
        options_(options),
        min_count_(db.MinSupportCount(options.min_support)),
        run_(db, options, "pincer"),
        stats_(run_.stats()),
        mfcs_(db.num_items()) {
    mfcs_.set_thread_pool(run_.pool());
  }

  MaximalSetResult Run();

  // Restores mid-run state from a (validated) checkpoint; Run() then starts
  // at its next_pass. InvalidArgument on any staleness mismatch.
  Status Restore(const Checkpoint& checkpoint);

 private:
  // Pass 1: counts all 1-itemsets (the §4.1.1 item array) plus the initial
  // MFCS element. Produces L_1.
  std::vector<Itemset> PassOne();

  // Pass 2: counts all pairs of frequent items not covered by the MFS (the
  // §4.1.1 triangular pair array) plus unclassified MFCS elements. Produces
  // L_2.
  std::vector<Itemset> PassTwo(const std::vector<ItemId>& frequent_items);

  // Pass k >= 3 over an explicit candidate list. Produces L_k. `gen_ms` is
  // the wall time Run() spent generating `candidates` (phase-timer
  // attribution; generation happens before the pass record exists).
  std::vector<Itemset> PassK(size_t k, const std::vector<Itemset>& candidates,
                             double gen_ms);

  // Counts the unclassified MFCS elements with the generic backend (their
  // lengths vary, so the array fast paths never apply) and classifies them:
  // frequent ones migrate to the MFS, infrequent ones stay for MFCS-gen to
  // split and are returned. `pass` gets the accounting. nullopt when there
  // was nothing to count or the budget stopped the scan.
  std::optional<std::vector<Itemset>> CountMfcs(PassStats& pass);

  // CountMfcs, then MFCS-gen over the infrequent elements.
  void CountAndClassifyMfcs(PassStats& pass);

  // Pass 1's MFCS-gen in closed form, for a run with both frequent and
  // infrequent items: splitting the full itemset by itself and then by the
  // infrequent singletons ends at the one element {frequent items}, so it
  // is set directly. The §3.5 batch check and the cache resolution run as
  // UpdateMfcs runs them.
  void SetPassOneMfcs(const std::vector<Itemset>& frequent,
                      size_t num_infrequent);

  // Classifies MFCS elements whose supports are already cached: frequent
  // elements migrate to the MFS, infrequent ones are split further. Repeats
  // until no unclassified element has a cached support.
  void ResolveMfcsFromCache();

  // Applies MFCS-gen and re-resolves; then enforces the adaptive caps.
  // `pass_frequent_count` is how many candidates this pass found frequent —
  // the signal of §3.5's adaptive rule: an infrequent batch that dwarfs the
  // frequent set fragments the MFCS without yielding early maximal
  // itemsets, so maintenance is abandoned before paying for the update.
  void UpdateMfcs(const std::vector<Itemset>& infrequent, size_t pass_number,
                  size_t pass_frequent_count = SIZE_MAX);

  // Moves the index time the MFCS accumulated during the enclosing
  // mfcs_update_ms timer scope into the pass's mfcs_index_ms, keeping the
  // two phases disjoint. Called right after each such scope closes; the
  // clamp absorbs sub-tick skew between the two clocks.
  void DrainMfcsIndexTime(PassStats& pass) {
    const double index_ms = mfcs_.ConsumeIndexMillis();
    pass.mfcs_index_ms += index_ms;
    pass.mfcs_update_ms = std::max(0.0, pass.mfcs_update_ms - index_ms);
  }

  // Adaptive policy trigger (§3.5): abandon MFCS maintenance for the rest
  // of the run. Maximality is recovered at the end from the bottom-up log.
  void DisableMfcs(size_t pass_number);

  // §3.5 adaptive pre-check ("many 2-itemsets but only a few of them
  // frequent"): a huge infrequent batch relative to the frequent yield
  // cannot pay for itself. Only active in adaptive mode. Callers may
  // consult it *before* materializing the infrequent batch.
  bool ShouldDisableForBatch(size_t num_infrequent,
                             size_t num_frequent) const {
    return options_.mfcs_cardinality_limit > 0 && num_infrequent > 20000 &&
           num_frequent != SIZE_MAX &&
           num_infrequent / 20 > std::max<size_t>(num_frequent, 1);
  }

  // After the adaptive switch-off the loop degenerates to plain Apriori,
  // which needs the *complete* L_k — including the known-frequent k-itemsets
  // that earlier passes removed as subsets of MFS elements (without the
  // MFCS, an itemset all of whose k-subsets are covered could otherwise
  // never be generated again). Restores every k-subset of every MFS element
  // into `lk`. Called once, at the switch-off pass.
  std::vector<Itemset> AugmentWithMfsSubsets(std::vector<Itemset> lk,
                                             size_t k) const;

  // True if the adaptive switch-off happened while processing pass
  // `pass_number`.
  bool JustDisabled(size_t pass_number) const {
    return stats_.mfcs_disabled &&
           stats_.mfcs_disabled_at_pass == pass_number;
  }

  bool IsFrequentCount(uint64_t count) const { return count >= min_count_; }

  // Hands the sink a snapshot for resuming at `next_pass` with live
  // candidates `lk`.
  void EmitCheckpoint(size_t next_pass, const std::vector<Itemset>& lk);

  const TransactionDatabase& db_;
  const MiningOptions& options_;
  const uint64_t min_count_;
  // The pool, counter, budget, pass cap and checkpoint plumbing; the
  // pass-stop checks and the counting calls below all go through it.
  MiningRun run_;
  MiningStats& stats_;

  Mfcs mfcs_;
  Mfs mfs_;
  bool maintain_mfcs_ = true;
  // Pass currently being processed (for DisableMfcs attribution from the
  // cache-resolution path).
  size_t current_pass_ = 1;
  // Every support counted so far; the result's `supports` when the run
  // ends.
  SupportTable supports_;
  // Frequent itemsets discovered bottom-up (not covered by the MFS at the
  // time of discovery). Used for the final maximality merge, which is what
  // makes the adaptive variant correct after MFCS maintenance stops.
  std::vector<FrequentItemset> bottom_up_frequent_;

  // Resume state (0 = fresh run). Set by Restore, consumed by Run.
  size_t resume_next_pass_ = 0;
  std::vector<Itemset> resume_live_candidates_;
};

void PincerDriver::ResolveMfcsFromCache() {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::pair<Itemset, uint64_t>> known_frequent;
    std::vector<Itemset> known_infrequent;
    for (const Itemset& element : mfcs_.elements()) {
      const std::optional<uint64_t> count = supports_.Lookup(element);
      if (!count.has_value()) continue;
      if (IsFrequentCount(*count)) {
        known_frequent.emplace_back(element, *count);
      } else {
        known_infrequent.push_back(element);
      }
    }
    for (const auto& [element, count] : known_frequent) {
      mfcs_.Remove(element);
      mfs_.Add(element, count);
    }
    if (!known_infrequent.empty()) {
      // Update removes each infrequent element itself (it is its own
      // superset) and replaces it with its one-item-removed subsets — the
      // top-down descent.
      if (!mfcs_.Update(known_infrequent, mfs_,
                        options_.mfcs_cardinality_limit,
                        options_.mfcs_work_limit)) {
        DisableMfcs(current_pass_);
        return;
      }
      changed = true;  // splitting may have produced cache-known elements
    }
  }
}

void PincerDriver::DisableMfcs(size_t pass_number) {
  maintain_mfcs_ = false;
  stats_.mfcs_disabled = true;
  stats_.mfcs_disabled_at_pass = pass_number;
  mfcs_.Clear();
  if (options_.verbose) {
    PINCER_LOG(kInfo) << "pincer: MFCS cap exceeded at pass " << pass_number
                      << "; switching to bottom-up only";
  }
}

std::vector<Itemset> PincerDriver::AugmentWithMfsSubsets(
    std::vector<Itemset> lk, size_t k) const {
  ItemsetSet seen(lk);
  for (const FrequentItemset& element : mfs_.elements()) {
    if (element.itemset.size() < k) continue;
    for (Itemset& subset : element.itemset.SubsetsOfSize(k)) {
      if (seen.Insert(subset)) lk.push_back(std::move(subset));
    }
  }
  SortLexicographically(lk);
  return lk;
}

void PincerDriver::UpdateMfcs(const std::vector<Itemset>& infrequent,
                              size_t pass_number,
                              size_t pass_frequent_count) {
  if (!maintain_mfcs_) return;
  current_pass_ = pass_number;
  if (ShouldDisableForBatch(infrequent.size(), pass_frequent_count)) {
    DisableMfcs(pass_number);
    return;
  }
  if (!infrequent.empty()) {
    // The bound is enforced *inside* MFCS-gen: a single pathological update
    // can otherwise fragment the set arbitrarily before any outside check
    // runs.
    if (!mfcs_.Update(infrequent, mfs_, options_.mfcs_cardinality_limit,
                      options_.mfcs_work_limit)) {
      DisableMfcs(pass_number);
      return;
    }
    ResolveMfcsFromCache();
    if (!maintain_mfcs_) return;
  }
  if (options_.mfcs_cardinality_limit > 0 &&
      mfcs_.size() > options_.mfcs_cardinality_limit) {
    DisableMfcs(pass_number);
  }
}

std::optional<std::vector<Itemset>> PincerDriver::CountMfcs(
    PassStats& pass) {
  if (!maintain_mfcs_) return std::nullopt;
  // Everything cache-known was classified by ResolveMfcsFromCache, so all
  // remaining elements genuinely need counting.
  std::vector<Itemset> elements = mfcs_.elements();
  if (elements.empty()) return std::nullopt;

  // Classification only after a completed scan: an aborted scan's partial
  // counts must leave no trace.
  const std::optional<std::vector<uint64_t>> counts =
      run_.Count(elements, pass);
  if (!counts.has_value()) return std::nullopt;
  pass.num_mfcs_candidates = elements.size();

  std::vector<Itemset> infrequent;
  for (size_t i = 0; i < elements.size(); ++i) {
    supports_.Record(elements[i], (*counts)[i]);
    if (IsFrequentCount((*counts)[i])) {
      mfcs_.Remove(elements[i]);
      if (mfs_.Add(elements[i], (*counts)[i])) ++pass.num_mfs_found;
    } else {
      infrequent.push_back(elements[i]);
    }
  }
  return infrequent;
}

void PincerDriver::CountAndClassifyMfcs(PassStats& pass) {
  const std::optional<std::vector<Itemset>> infrequent = CountMfcs(pass);
  if (!infrequent.has_value()) return;
  // Infrequent elements stay in the set: MFCS-gen matches each as its own
  // superset and replaces it with its one-item-removed subsets.
  {
    ScopedMsTimer timer(pass.mfcs_update_ms);
    UpdateMfcs(*infrequent, pass.pass);
  }
  DrainMfcsIndexTime(pass);
}

void PincerDriver::SetPassOneMfcs(const std::vector<Itemset>& frequent,
                                  size_t num_infrequent) {
  if (ShouldDisableForBatch(num_infrequent, frequent.size())) {
    DisableMfcs(1);
    return;
  }
  std::vector<ItemId> items;
  items.reserve(frequent.size());
  for (const Itemset& single : frequent) items.push_back(single[0]);
  // The MFS is still empty, so nothing covers the element.
  mfcs_ = Mfcs(db_.num_items(), {Itemset(std::move(items))});
  mfcs_.set_thread_pool(run_.pool());
  // One element never trips the cardinality cap; a single frequent item is
  // cache-known and moves to the MFS here.
  ResolveMfcsFromCache();
}

std::vector<Itemset> PincerDriver::PassOne() {
  PassStats pass;
  pass.pass = 1;
  pass.num_candidates = db_.num_items();
  std::optional<std::vector<uint64_t>> counts = run_.CountItems(pass);
  if (!counts.has_value()) return {};

  std::vector<Itemset> infrequent;
  std::vector<Itemset> frequent;
  for (ItemId item = 0; item < db_.num_items(); ++item) {
    const Itemset single{item};
    if (IsFrequentCount((*counts)[item])) {
      frequent.push_back(single);
      bottom_up_frequent_.push_back({single, (*counts)[item]});
    } else {
      infrequent.push_back(single);
    }
  }
  supports_.SetSingletonCounts(std::move(*counts));
  pass.num_frequent = frequent.size();
  const size_t num_frequent_items = frequent.size();

  // Count the MFCS (initially the full itemset) in the same pass, as the
  // paper's line 6 does, then fold the infrequent singletons into MFCS-gen.
  // With an item on each side, an infrequent item makes the full itemset
  // infrequent too, and MFCS-gen has a closed form.
  if (frequent.empty() || infrequent.empty()) {
    CountAndClassifyMfcs(pass);
    if (run_.aborted()) return {};
    ScopedMsTimer timer(pass.mfcs_update_ms);
    UpdateMfcs(infrequent, 1, pass.num_frequent);
  } else {
    CountMfcs(pass);
    if (run_.aborted()) return {};
    ScopedMsTimer timer(pass.mfcs_update_ms);
    SetPassOneMfcs(frequent, infrequent.size());
  }
  DrainMfcsIndexTime(pass);

  // L_1 := frequent 1-itemsets minus subsets of MFS elements (line 8) — or,
  // after an adaptive switch-off, the complete frequent 1-set.
  std::vector<Itemset> l1;
  if (maintain_mfcs_) {
    for (const Itemset& single : frequent) {
      if (!mfs_.CoveredBy(single)) l1.push_back(single);
    }
  } else {
    l1 = AugmentWithMfsSubsets(std::move(frequent), 1);
  }
  pass.mfcs_size_after = mfcs_.size();
  run_.RecordPass(pass);
  if (options_.verbose) {
    PINCER_LOG(kInfo) << "pincer pass 1: " << num_frequent_items << "/"
                      << db_.num_items() << " items frequent, |MFCS|="
                      << mfcs_.size() << ", |MFS|=" << mfs_.size();
  }
  return l1;
}

std::vector<Itemset> PincerDriver::PassTwo(
    const std::vector<ItemId>& frequent_items) {
  PassStats pass;
  pass.pass = 2;

  // C_2 is conceptually every pair of frequent items not already covered by
  // an MFS element (§4.1.1: the 2-D array makes explicit generation
  // unnecessary). In practice the MFS is empty here unless the run already
  // terminated in pass 1, but covered pairs are skipped for correctness
  // with unusual inputs.
  std::vector<Itemset> infrequent;
  std::vector<Itemset> l2;
  auto classify_pair = [&](const ItemId a, const ItemId b, uint64_t count) {
    const bool frequent = IsFrequentCount(count);
    // Once maintenance is off, an infrequent pair feeds neither L_2 nor the
    // MFCS update: build no itemset for it.
    if (!frequent && !maintain_mfcs_) return;
    const Itemset pair{a, b};
    // After an adaptive switch-off the loop is plain Apriori: covered pairs
    // are ordinary frequent itemsets again.
    if (maintain_mfcs_ && mfs_.CoveredBy(pair)) return;
    if (frequent) {
      bottom_up_frequent_.push_back({pair, count});
      l2.push_back(pair);
      ++pass.num_frequent;
    } else if (maintain_mfcs_) {
      // Only the MFCS update consumes infrequent pairs; skip materializing
      // them once maintenance is off.
      infrequent.push_back(pair);
    }
  };

  if (frequent_items.size() >= 2) {
    std::vector<uint64_t> item_supports;
    item_supports.reserve(frequent_items.size());
    for (ItemId item : frequent_items) {
      item_supports.push_back(supports_.Lookup(Itemset{item}).value_or(0));
    }
    PairCountMatrix matrix(frequent_items);
    if (!run_.CountPairs(matrix, item_supports, pass)) return {};
    const std::vector<uint32_t>& pair_counts = matrix.raw_counts();
    // Apply the §3.5 batch pre-check to the raw counts of every pair, so a
    // huge infrequent batch disables MFCS maintenance *before*
    // classify_pair materializes one Itemset per infrequent pair.
    const size_t num_frequent_pairs = static_cast<size_t>(std::count_if(
        pair_counts.begin(), pair_counts.end(),
        [this](uint64_t count) { return IsFrequentCount(count); }));
    if (maintain_mfcs_ &&
        ShouldDisableForBatch(pair_counts.size() - num_frequent_pairs,
                              num_frequent_pairs)) {
      DisableMfcs(2);
    }
    // raw_counts() is row-major by rank, so cell follows (i, j) in order.
    size_t cell = 0;
    for (size_t i = 0; i < frequent_items.size(); ++i) {
      for (size_t j = i + 1; j < frequent_items.size(); ++j, ++cell) {
        // Counts of size-2 itemsets stay in the matrix; no map entry.
        classify_pair(frequent_items[i], frequent_items[j], pair_counts[cell]);
      }
    }
    supports_.SetPairCounts(std::move(matrix));
  }
  const size_t num_pairs =
      frequent_items.size() < 2
          ? 0
          : frequent_items.size() * (frequent_items.size() - 1) / 2;
  pass.num_candidates = num_pairs;

  CountAndClassifyMfcs(pass);
  if (run_.aborted()) return {};
  {
    ScopedMsTimer timer(pass.mfcs_update_ms);
    UpdateMfcs(infrequent, 2, pass.num_frequent);
  }
  DrainMfcsIndexTime(pass);

  // Re-apply line 8 with the MFS as updated this pass — or rebuild the
  // complete L_2 if the adaptive policy switched off during this pass.

  if (maintain_mfcs_) {
    l2.erase(std::remove_if(l2.begin(), l2.end(),
                            [this](const Itemset& pair) {
                              return mfs_.CoveredBy(pair);
                            }),
             l2.end());
  } else if (JustDisabled(2)) {
    l2 = AugmentWithMfsSubsets(std::move(l2), 2);
  }

  pass.mfcs_size_after = mfcs_.size();
  run_.RecordPass(pass);
  if (options_.verbose) {
    PINCER_LOG(kInfo) << "pincer pass 2: " << l2.size() << "/"
                      << num_pairs << " pairs frequent, |MFCS|="
                      << mfcs_.size() << ", |MFS|=" << mfs_.size();
  }
  return l2;
}

std::vector<Itemset> PincerDriver::PassK(size_t k,
                                         const std::vector<Itemset>& candidates,
                                         double gen_ms) {
  PassStats pass;
  pass.pass = k;
  pass.num_candidates = candidates.size();
  pass.candidate_gen_ms = gen_ms;

  std::vector<Itemset> lk;
  std::vector<Itemset> infrequent;
  if (!candidates.empty()) {
    const std::optional<std::vector<uint64_t>> counts =
        run_.Count(candidates, pass);
    if (!counts.has_value()) return {};
    for (size_t i = 0; i < candidates.size(); ++i) {
      supports_.Record(candidates[i], (*counts)[i]);
      if (IsFrequentCount((*counts)[i])) {
        bottom_up_frequent_.push_back({candidates[i], (*counts)[i]});
        lk.push_back(candidates[i]);
        ++pass.num_frequent;
      } else {
        infrequent.push_back(candidates[i]);
      }
    }
  }

  CountAndClassifyMfcs(pass);
  if (run_.aborted()) return {};
  {
    ScopedMsTimer timer(pass.mfcs_update_ms);
    UpdateMfcs(infrequent, k, pass.num_frequent);
  }
  DrainMfcsIndexTime(pass);

  // Line 8: remove subsets of MFS elements found this pass — or rebuild the
  // complete L_k if the adaptive policy switched off during this pass.
  if (maintain_mfcs_) {
    lk.erase(std::remove_if(
                 lk.begin(), lk.end(),
                 [this](const Itemset& c) { return mfs_.CoveredBy(c); }),
             lk.end());
  } else if (JustDisabled(k)) {
    lk = AugmentWithMfsSubsets(std::move(lk), k);
  }

  pass.mfcs_size_after = mfcs_.size();
  run_.RecordPass(pass);
  if (options_.verbose) {
    PINCER_LOG(kInfo) << "pincer pass " << k << ": " << pass.num_frequent
                      << "/" << candidates.size() << " candidates frequent, "
                      << "|MFCS|=" << mfcs_.size() << ", |MFS|="
                      << mfs_.size();
  }
  return lk;
}

void PincerDriver::EmitCheckpoint(size_t next_pass,
                                  const std::vector<Itemset>& lk) {
  run_.EmitCheckpoint(next_pass, [&](Checkpoint& checkpoint) {
    checkpoint.frequent = bottom_up_frequent_;
    checkpoint.live_candidates = lk;
    checkpoint.mfs = mfs_.elements();
    checkpoint.mfcs = mfcs_.elements();
    supports_.WriteCheckpoint(checkpoint);
  });
}

Status PincerDriver::Restore(const Checkpoint& checkpoint) {
  // Mfs::Add appends without evicting, so the restored MFS must already be
  // an antichain.
  if (MaximalOf(checkpoint.mfs).size() != checkpoint.mfs.size()) {
    return Status::InvalidArgument("checkpoint mfs is not an antichain");
  }
  PINCER_RETURN_IF_ERROR(run_.Resume(checkpoint));
  maintain_mfcs_ = !stats_.mfcs_disabled;
  current_pass_ = static_cast<size_t>(checkpoint.next_pass);
  bottom_up_frequent_ = checkpoint.frequent;
  for (const FrequentItemset& fi : checkpoint.mfs) {
    mfs_.Add(fi.itemset, fi.support);
  }
  // Elements are restored in serialized (insertion) order, keeping the
  // resumed run's MFCS-gen behaviour identical to the uninterrupted run's.
  mfcs_ = Mfcs(db_.num_items(), checkpoint.mfcs);
  mfcs_.set_thread_pool(run_.pool());
  StatusOr<SupportTable> supports = SupportTable::FromCheckpoint(checkpoint);
  if (!supports.ok()) return supports.status();
  supports_ = std::move(*supports);
  resume_next_pass_ = static_cast<size_t>(checkpoint.next_pass);
  resume_live_candidates_ = checkpoint.live_candidates;
  return Status::OK();
}

MaximalSetResult PincerDriver::Run() {
  std::vector<Itemset> lk;
  size_t k = 3;
  bool run_pass_two = false;
  if (resume_next_pass_ == 0) {
    std::vector<Itemset> l1 = PassOne();
    if (!run_.aborted()) {
      EmitCheckpoint(2, l1);
      lk = std::move(l1);
      run_pass_two = true;
    }
  } else if (resume_next_pass_ == 2) {
    lk = std::move(resume_live_candidates_);
    run_pass_two = true;
  } else {
    lk = std::move(resume_live_candidates_);
    k = resume_next_pass_;
  }

  if (run_pass_two) {
    // `lk` currently holds L_1.
    std::vector<ItemId> frequent_items;
    frequent_items.reserve(lk.size());
    for (const Itemset& single : lk) frequent_items.push_back(single[0]);
    if (frequent_items.size() >= 2 || (maintain_mfcs_ && !mfcs_.empty())) {
      if (!run_.PassCapReached()) {
        std::vector<Itemset> l2 = PassTwo(frequent_items);
        if (!run_.aborted()) {
          lk = std::move(l2);
          EmitCheckpoint(3, lk);
        }
      }
    } else {
      lk.clear();
    }
  }

  // Generalized termination (DESIGN.md item 3): continue while there are
  // bottom-up candidates or live MFCS elements to classify.
  while (!run_.aborted()) {
    // With a live MFCS, generation is join + recovery + new prune; after
    // the adaptive switch-off it is plain Apriori-gen over the complete L_k.
    double gen_ms = 0;
    std::vector<Itemset> candidates;
    {
      ScopedMsTimer gen_timer(gen_ms);
      candidates = maintain_mfcs_ ? PincerCandidateGen(lk, mfs_)
                                  : AprioriGen(lk);
    }
    if (candidates.empty() && (!maintain_mfcs_ || mfcs_.empty())) break;
    // Ordered after the termination test so a completed run is never
    // reported aborted.
    if (run_.StopBeforePass()) break;
    lk = PassK(k, candidates, gen_ms);
    if (run_.aborted()) break;
    ++k;
    EmitCheckpoint(k, lk);
  }

  // Final maximality merge: in the pure algorithm this adds nothing (the
  // MFS is already complete — property-tested); after an adaptive
  // switch-off it recovers maximal itemsets that only the bottom-up
  // direction saw.
  std::vector<FrequentItemset> merged = std::move(bottom_up_frequent_);
  merged.insert(merged.end(), mfs_.elements().begin(), mfs_.elements().end());

  MaximalSetResult result;
  result.mfs = MaximalOf(std::move(merged));
  result.stats = run_.Finish();
  result.supports = std::move(supports_);
  return result;
}

}  // namespace

MaximalSetResult PincerSearch(const TransactionDatabase& db,
                              const MiningOptions& options) {
  PincerDriver driver(db, options);
  return driver.Run();
}

StatusOr<MaximalSetResult> PincerResume(const TransactionDatabase& db,
                                        const MiningOptions& options,
                                        const Checkpoint& checkpoint) {
  PincerDriver driver(db, options);
  PINCER_RETURN_IF_ERROR(driver.Restore(checkpoint));
  return driver.Run();
}

}  // namespace pincer
