#include "counting/hash_tree.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "counting/chunked_scan.h"
#include "util/contracts.h"

namespace pincer {

HashTree::HashTree(size_t candidate_size, size_t fanout, size_t leaf_capacity)
    : candidate_size_(candidate_size),
      fanout_(fanout),
      leaf_capacity_(leaf_capacity) {
  assert(candidate_size_ > 0);
  assert(fanout_ > 1);
  assert(leaf_capacity_ > 0);
  root_ = NewLeaf();
}

std::unique_ptr<HashTree::Node> HashTree::NewLeaf() {
  auto node = std::make_unique<Node>();
  node->leaf_id = num_leaf_ids_++;
  return node;
}

void HashTree::Insert(const Itemset& candidate, size_t external_index) {
  assert(candidate.size() == candidate_size_);
  InsertInto(root_.get(), 0, candidate, external_index);
}

void HashTree::InsertInto(Node* node, size_t depth, const Itemset& candidate,
                          size_t external_index) {
  while (!node->is_leaf) {
    const size_t slot = Hash(candidate[depth]);
    if (!node->children[slot]) {
      node->children[slot] = NewLeaf();
    }
    node = node->children[slot].get();
    ++depth;
  }
  node->entries.emplace_back(candidate, external_index);
  // Split when over capacity, unless we have exhausted hashable positions
  // (depth == candidate_size_ means every item already routed; further
  // splitting is impossible and entries simply accumulate).
  if (node->entries.size() > leaf_capacity_ && depth < candidate_size_) {
    SplitLeaf(node, depth);
  }
}

void HashTree::SplitLeaf(Node* node, size_t depth) {
  std::vector<std::pair<Itemset, size_t>> entries = std::move(node->entries);
  node->entries.clear();
  node->is_leaf = false;
  node->children.resize(fanout_);
  for (auto& [candidate, index] : entries) {
    const size_t slot = Hash(candidate[depth]);
    if (!node->children[slot]) {
      node->children[slot] = NewLeaf();
    }
    // Children start as leaves; recursive splitting happens via InsertInto's
    // capacity check when re-inserting.
    InsertInto(node->children[slot].get(), depth + 1, candidate, index);
  }
}

void HashTree::CountTransaction(const Transaction& transaction,
                                std::vector<uint64_t>& counts,
                                VisitState& state) const {
  if (transaction.size() < candidate_size_) return;
  if (state.stamps.size() < num_leaf_ids_) {
    state.stamps.resize(num_leaf_ids_, 0);
  }
  ++state.current_visit;
  CountNode(root_.get(), transaction, 0, 0, counts, state);
}

void HashTree::CountNode(const Node* node, const Transaction& transaction,
                         size_t start, size_t depth,
                         std::vector<uint64_t>& counts,
                         VisitState& state) const {
  if (node->is_leaf) {
    // Several hash paths can reach the same leaf for one transaction;
    // evaluate it only once (containment is checked against the whole
    // transaction, so the first visit already counts everything).
    if (state.stamps[node->leaf_id] == state.current_visit) return;
    state.stamps[node->leaf_id] = state.current_visit;
    for (const auto& [candidate, index] : node->entries) {
      // The first `depth` items are implied by the path; verify full
      // containment with a two-pointer walk (both sequences sorted).
      size_t t = 0;
      bool contained = true;
      for (ItemId item : candidate) {
        while (t < transaction.size() && transaction[t] < item) ++t;
        if (t == transaction.size() || transaction[t] != item) {
          contained = false;
          break;
        }
        ++t;
      }
      if (contained) ++counts[index];
    }
    return;
  }
  // Interior: the candidate's item at `depth` can be any remaining
  // transaction item that still leaves enough items to finish the candidate.
  const size_t remaining_needed = candidate_size_ - depth;
  if (transaction.size() < start + remaining_needed) return;
  const size_t last = transaction.size() - remaining_needed;
  for (size_t i = start; i <= last; ++i) {
    const Node* child = node->children[Hash(transaction[i])].get();
    if (child != nullptr) {
      CountNode(child, transaction, i + 1, depth + 1, counts, state);
    }
  }
}

size_t HashTree::NumNodes() const {
  auto count = [](auto&& self, const Node& node) -> size_t {
    size_t total = 1;
    for (const std::unique_ptr<Node>& child : node.children) {
      if (child) total += self(self, *child);
    }
    return total;
  };
  return count(count, *root_);
}

HashTreeCounter::HashTreeCounter(const TransactionDatabase& db) : db_(db) {}

std::vector<uint64_t> HashTreeCounter::CountSupports(
    const std::vector<Itemset>& candidates) {
  std::vector<uint64_t> counts(candidates.size(), 0);

  // Group candidates by length; one tree per length. The empty itemset (if
  // ever passed) is supported by every transaction.
  std::map<size_t, HashTree> trees;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t size = candidates[i].size();
    if (size == 0) {
      counts[i] = db_.size();
      continue;
    }
    auto [it, inserted] = trees.try_emplace(size, size);
    it->second.Insert(candidates[i], i);
  }

  size_t num_nonempty = 0;
  for (const Itemset& candidate : candidates) {
    if (!candidate.empty()) ++num_nonempty;
  }
  if (metrics_ != nullptr) {
    ++metrics_->count_calls;
    metrics_->candidates_counted += num_nonempty;
    if (!trees.empty()) metrics_->transactions_scanned += db_.size();
    for (const auto& [size, tree] : trees) {
      metrics_->structure_nodes += tree.NumNodes();
    }
  }
  if (trees.empty()) return counts;

  // One immutable tree per length, shared by all workers; the per-leaf
  // visit stamps live in per-(chunk, tree) VisitStates, so the chunked walk
  // is read-only on the trees.
  std::vector<const HashTree*> tree_list;
  tree_list.reserve(trees.size());
  for (const auto& [size, tree] : trees) tree_list.push_back(&tree);
  ChunkedCountScan(
      pool_, db_.size(), counts,
      [&](size_t /*chunk*/, size_t begin, size_t end,
          std::vector<uint64_t>& partial) {
        std::vector<HashTree::VisitState> states(tree_list.size());
        for (size_t tid = begin; tid < end; ++tid) {
          const Transaction& transaction = db_.transaction(tid);
          for (size_t t = 0; t < tree_list.size(); ++t) {
            tree_list[t]->CountTransaction(transaction, partial, states[t]);
          }
        }
      },
      budget_);
  PINCER_CHECK(counts.size() == candidates.size(),
              "count vector out of step with candidate vector: ",
              counts.size(), " vs ", candidates.size());
  return counts;
}

}  // namespace pincer
