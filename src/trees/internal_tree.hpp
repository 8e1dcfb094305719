// Shared core of the PathCAS internal trees: the internal BST of Algorithms
// 3-6 (§4) and the relaxed AVL tree built on it (§4.2, appendix D). The AVL
// is the BST plus parent pointers and rebalancing, so everything that does
// not touch those lives here once: the sentinels, the validated searches
// (contains/get, Algorithms 3 and 5), range scans, the batched-commit
// scaffolding, and quiescent inspection.
//
// Structure: two sentinels — maxRoot (key +inf) whose left child is minRoot
// (key -inf); all real keys live in minRoot's right subtree. Every node
// carries a PathCAS version word; nodes are unlinked and marked in the same
// atomic PathCAS (so reachability == unmarked), and retired through EBR.
//
// The core is a static-dispatch (CRTP) base: InternalTree<Derived, Node,
// K, V> calls into Derived for the tree-specific algorithm steps (insert,
// erase, stageInsertChild, stageEraseNode, checkInvariants) and for two
// post-commit hooks whose default here is empty (afterInsertCommit,
// afterEraseCommit). Node must have the casword fields ver/key/val/left/
// right and a (K, V) constructor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

/// Aggregate structural statistics (quiescent-state only), used by the
/// benchmark harness for keysum validation and the Fig. 5 factor analysis.
struct TreeStats {
  std::uint64_t size = 0;          // keys logically present
  std::uint64_t nodeCount = 0;     // allocated reachable nodes
  std::uint64_t height = 0;
  double avgKeyDepth = 0.0;
  std::int64_t keySum = 0;
  std::uint64_t footprintBytes = 0;  // nodeCount * sizeof(Node)
};

/// Configuration knobs (the §4.1 ablation).
struct IntBstOptions {
  /// Skip validation when contains/insert finds the key (§4.1) and use exec
  /// instead of vexec for leaf/one-child deletions.
  bool reduceValidation = true;
  /// Route updates through the HTM fast path (the paper's int-bst-pathcas+).
  bool useHtmFastPath = false;
  /// Max logical ops staged into one wide KCAS by insertBatch/eraseBatch/
  /// updateBatch before the sorted run is chunked into separate commits.
  /// Values <= 1 degrade batches to per-op commits; small values force
  /// deterministic splits (tests). 32 amortizes the per-commit fixed costs
  /// further than 16 while still fitting the staging budget for trees up to
  /// ~12 levels; deeper trees overflow the budget and split gracefully.
  int batchOpsPerCommit = 32;
};

template <typename Derived, typename Node, typename K, typename V>
class InternalTree {
 public:
  static_assert(std::is_integral_v<K> && std::is_integral_v<V>);
  /// Exposed for generic frontends (service/sharded_map.hpp).
  using KeyType = K;
  using ValueType = V;
  using OptionsType = IntBstOptions;
  /// Sentinel keys; user keys must lie strictly between them.
  static constexpr K kNegInf = std::numeric_limits<K>::min() / 4;
  static constexpr K kPosInf = std::numeric_limits<K>::max() / 4;

  InternalTree(const InternalTree&) = delete;
  InternalTree& operator=(const InternalTree&) = delete;

  /// True iff key is in the set. Validation is skipped on found keys when
  /// reduceValidation is on (§4.1: a reachable node was unmarked, hence in
  /// the set at some time during the operation).
  bool contains(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found && (opt_.reduceValidation || validate())) return true;
      if (!s.found && validate()) return false;
    }
  }

  /// Returns the value associated with key, if present (linearized at the
  /// value read).
  std::optional<V> get(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (!s.found) {
        if (validate()) return std::nullopt;
        continue;
      }
      if (!opt_.reduceValidation && !validate()) continue;
      // §4.1 covers membership, but not the value: a concurrent two-child
      // erase replaces this node's key AND value in place (successor swap),
      // so a bare val load here could return the successor's value under
      // the searched key. The swap always bumps curr's version, so
      // re-reading the version AFTER the value load (acquire loads — the
      // re-read cannot move before the val load) proves ⟨key, val⟩ was
      // read as one intact pair; a mismatch re-traverses. A marked version
      // re-traverses too: the node is being unlinked, or (HTM emulation) an
      // emulated transaction is still writing its fields.
      const V val = s.curr->val.load();
      if (s.curr->ver.load() == s.currVer && !isMarked(s.currVer)) return val;
    }
  }

  /// Range query: append every (key, value) pair with lo <= key <= hi to
  /// `out`, in ascending key order; returns the number of pairs appended.
  /// The traversal visits every node it examines (the same ⟨node, version⟩
  /// recording a vexec path uses), then revalidates the whole visited set:
  /// optimistic with bounded retries, escalating to the §3.5 strong path, so
  /// scans cannot starve on spurious conflicts. A scan examining more nodes
  /// than one op's visited set holds (pathcas::kMaxVisited) runs in chunks:
  /// each chunk stops after the last key it emitted, is validated, and the
  /// next chunk resumes just above that key in a fresh PathCAS op. Each
  /// chunk is an atomic snapshot of its sub-range; the whole scan is not —
  /// a wide scan racing updates sees each sub-range at its own instant.
  /// Scans that fit one chunk are linearizable as a whole.
  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return 0;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    for (;;) {
      start();
      visit(minRoot_);  // pins the root pointer (minRoot_->right)
      const std::size_t chunkBase = out.size();
      int budget = kScanBudget;
      const bool done = collectRange(minRoot_->right.load(), lo, hi, out,
                                     budget);
      if (!vval()) {
        out.resize(chunkBase);  // torn chunk: discard and re-traverse it
        continue;
      }
      if (done) return out.size() - base;
      // Budget spent: the validated chunk covers [lo, last emitted key].
      // An in-order walk emits before it can exhaust a budget this size
      // unless one search path alone exceeds it (out of contract, as for
      // every search — footnote 2).
      PATHCAS_CHECK(out.size() > chunkBase);
      const K last = out.back().first;
      if (last >= hi) return out.size() - base;
      lo = last + 1;
    }
  }

  /// One validated scan ATTEMPT that additionally hands every visited
  /// ⟨version-word, observed-encoding⟩ pair to `cap(k::AtomicWord*,
  /// k::word_t)` — the raw material for the sharded map's cross-shard
  /// linearization protocol (phase-2 revalidation of all shards' scans
  /// together). The capture necessarily runs BEFORE validation, because
  /// validateVisited may consume the staging area through the §3.5 strong
  /// path; a true return retroactively blesses the captured pairs (they
  /// formed an atomic snapshot), a false return obliges the caller to
  /// discard them (out's tail is already discarded here). Unlike
  /// rangeQuery, this does not retry internally: a multi-shard caller must
  /// redo all shards together, so it owns the retry loop. It is one
  /// snapshot, so it does not chunk: the scan must fit pathcas::kMaxVisited
  /// examined nodes (footnote 2).
  template <typename Cap>
  bool rangeQueryCapture(K lo, K hi, std::vector<std::pair<K, V>>& out,
                         Cap&& cap) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return true;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    start();
    visit(minRoot_);  // pins the root pointer (minRoot_->right)
    int budget = kScanBudget;
    PATHCAS_CHECK(collectRange(minRoot_->right.load(), lo, hi, out, budget));
    domain().forEachStagedPath(cap);
    if (vval()) return true;
    out.resize(base);
    return false;
  }

  // ------------------------------------------------------------------
  // Batched updates (group commit). One shared traversal stages every op
  // of a sorted key run into a single wide KCAS, amortizing descriptor
  // publication and re-validation of the common path prefix across the
  // run. Chunks wider than batchOpsPerCommit — and chunks that overflow
  // the staging budget or keep losing their commit — are split in half
  // and retried, degrading to per-op insert()/erase() at width 1, so a
  // conflicted batch can never livelock the per-op fast paths.
  // ------------------------------------------------------------------

  /// insertIfAbsent over a strictly-ascending key run. outcomes[i] is set
  /// true iff keys[i] was inserted (false: already present); returns the
  /// number of insertions. All ops of one committed chunk linearize at its
  /// single KCAS; separate chunks linearize independently, in key order.
  std::size_t insertBatch(const K* keys, const V* vals, std::size_t n,
                          bool* outcomes) {
    checkBatchKeys(keys, n);
    for (std::size_t i = 0; i < n; ++i) outcomes[i] = false;
    const std::size_t chunk = batchChunkWidth();
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; i += chunk)
      inserted += insertRun(keys + i, vals + i, std::min(chunk, n - i),
                            outcomes + i);
    return inserted;
  }

  /// delete over a strictly-ascending key run. outcomes[i] is set true iff
  /// keys[i] was removed (false: absent); returns the number of removals.
  /// Which removal shapes are staged into the chunk's wide KCAS is the
  /// derived tree's stageEraseNode policy; the rest fall back to per-op
  /// erase() immediately after the chunk commits.
  std::size_t eraseBatch(const K* keys, std::size_t n, bool* outcomes) {
    checkBatchKeys(keys, n);
    for (std::size_t i = 0; i < n; ++i) outcomes[i] = false;
    const std::size_t chunk = batchChunkWidth();
    std::size_t erased = 0;
    for (std::size_t i = 0; i < n; i += chunk)
      erased += eraseRun(keys + i, std::min(chunk, n - i), outcomes + i);
    return erased;
  }

  // ------------------------------------------------------------------
  // Quiescent-state inspection (tests and the benchmark harness only).
  // ------------------------------------------------------------------

  std::uint64_t size() const { return derived().checkInvariants().size; }
  std::int64_t keySum() const { return derived().checkInvariants().keySum; }

  /// In-order traversal (quiescent), for oracle comparison in tests.
  void forEach(const std::function<void(K, V)>& f) const {
    forEachRec(minRoot_->right.load(), f);
  }

 protected:
  InternalTree(IntBstOptions options, recl::EbrDomain& ebr,
               recl::NodePool<Node>* pool)
      : opt_(options), ebr_(ebr), pool_(pool ? *pool : recl::defaultPool<Node>()) {
    maxRoot_ = pool_.alloc(kPosInf, V{});
    minRoot_ = pool_.alloc(kNegInf, V{});
    maxRoot_->left.setInitial(minRoot_);
  }

  ~InternalTree() {
    // Quiescent-teardown exception: no thread can be pinned on this tree
    // anymore, so reachable nodes go straight back to the pool (no EBR).
    freeSubtree(minRoot_->right.load());
    pool_.destroy(minRoot_);
    pool_.destroy(maxRoot_);
  }

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  struct SearchResult {
    bool found;
    Node* curr;
    Version currVer;
    Node* parent;
    Version parentVer;
  };
  struct Successor {
    Node* succ;
    Version succVer;
    Node* succP;
    Version succPVer;
  };

  /// Algorithm 3: traditional BST search, visiting every node traversed.
  SearchResult search(K key) {
    Node* parent = maxRoot_;
    Version parentVer = visit(parent);
    Node* curr = minRoot_;
    Version currVer = visit(curr);
    while (curr != nullptr) {
      const K currKey = curr->key;
      if (key == currKey) return {true, curr, currVer, parent, parentVer};
      Node* next = (key > currKey) ? curr->right.load() : curr->left.load();
      parent = curr;
      parentVer = currVer;
      curr = next;
      if (curr != nullptr) {
        // Warm the likely-next level while visit() pays this node's
        // validation cost (PATHCAS_PREFETCH: hint only, re-read after).
        prefetch(curr->left);
        prefetch(curr->right);
        currVer = visit(curr);
      }
    }
    return {false, nullptr, 0, parent, parentVer};
  }

  /// Algorithm 5: locate curr's successor, visiting the traversed nodes.
  Successor getSuccessor(Node* start, Version startVer) {
    Node* succP = start;
    Version succPVer = startVer;
    Node* succ = start->right;
    if (succ == nullptr) return {nullptr, 0, nullptr, 0};
    Version succVer = visit(succ);
    for (;;) {
      Node* next = succ->left;
      if (next == nullptr) return {succ, succVer, succP, succPVer};
      succP = succ;
      succPVer = succVer;
      succ = next;
      prefetch(succ->left);
      succVer = visit(next);
    }
  }

  // --- batched-commit machinery -------------------------------------

  /// Attempts per chunk before splitting; conflicts under contention are
  /// expected, and halving converges to the per-op paths quickly.
  static constexpr int kBatchRetries = 3;
  /// Combined path+entries budget for one chunk. vexec's strong path merges
  /// the visited set into the entry array (cap k::DefaultDomain::kMaxEntries),
  /// so a batch must leave headroom below that cap or the escalation would
  /// overflow.
  static constexpr int kBatchStageBudget =
      static_cast<int>(k::DefaultDomain::kMaxEntries) - 16;

  enum class StageStatus {
    kOk,
    kRetry,    // transient (marked node seen): same width, fresh traversal
    kOverflow  // staging budget: deterministic, split without retrying
  };

  /// `dom` is the run's cached domain reference: the probe runs once per
  /// visited node, and re-resolving the thread-local domain each time costs
  /// more than the comparison itself.
  static bool stageBudgetLeft(k::DefaultDomain& dom, int need = 1) {
    return dom.stagedFootprint() + need <= kBatchStageBudget;
  }

  std::size_t batchChunkWidth() const {
    return opt_.batchOpsPerCommit > 1
               ? static_cast<std::size_t>(opt_.batchOpsPerCommit)
               : 1;
  }

  static void checkBatchKeys(const K* keys, std::size_t n) {
    (void)keys;
    (void)n;
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i) {
      PATHCAS_DCHECK(keys[i] > kNegInf && keys[i] < kPosInf);
      PATHCAS_DCHECK(i == 0 || keys[i - 1] < keys[i]);
    }
#endif
  }

  struct InsertScratch {
    k::DefaultDomain* dom = nullptr;  // cached once per run (budget probes)
    std::vector<Node*> built;  // unpublished subtree roots (freed on abort)
    std::vector<std::pair<std::size_t, std::size_t>> staged;  // outcome ranges
  };

  void discardInsertAttempt(InsertScratch& sc) {
    for (Node* n : sc.built) freeSubtree(n);
    sc.built.clear();
    sc.staged.clear();
  }

  /// Stage the inserts of keys[lo..hi) under `node` (already visited at
  /// nodeVer by the caller). Each key run partitions around node->key; the
  /// derived stageInsertChild descends into a child or, at a null child
  /// slot, stages one link to a prebuilt subtree. Every node whose child
  /// slot changes gets exactly one version bump, so no address is staged
  /// twice.
  StageStatus stageInsertNode(Node* node, Version nodeVer, const K* keys,
                              const V* vals, std::size_t lo, std::size_t hi,
                              InsertScratch& sc) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    std::size_t rlo = mid;
    if (rlo < hi && keys[rlo] == nodeKey) ++rlo;  // present: outcome stays false
    bool childStaged = false;
    if (lo < mid) {
      const StageStatus s = derived().stageInsertChild(
          node, node->left, keys, vals, lo, mid, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi) {
      const StageStatus s = derived().stageInsertChild(
          node, node->right, keys, vals, rlo, hi, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (childStaged) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  std::size_t insertRun(const K* keys, const V* vals, std::size_t n,
                        bool* out) {
    if (n == 0) return 0;
    if (n == 1) {  // degraded to the per-op commit (k=1 fast path)
      out[0] = derived().insert(keys[0], vals[0]);
      return out[0] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    InsertScratch sc;
    sc.dom = &domain();
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      const Version rootVer = visit(minRoot_);
      const StageStatus s =
          stageInsertNode(minRoot_, rootVer, keys, vals, 0, n, sc);
      if (s == StageStatus::kOverflow) {
        discardInsertAttempt(sc);
        break;  // deterministic: retrying the same width cannot help
      }
      if (s == StageStatus::kRetry) {
        discardInsertAttempt(sc);
        continue;
      }
      if (sc.staged.empty()) {
        // Every key already present; same witness rule as insert().
        if (opt_.reduceValidation || validate()) return 0;
        continue;
      }
      if (vex()) {
        std::size_t inserted = 0;
        for (const auto& range : sc.staged) {
          for (std::size_t i = range.first; i < range.second; ++i) {
            out[i] = true;
            ++inserted;
          }
        }
        derived().afterInsertCommit(sc);
        return inserted;
      }
      discardInsertAttempt(sc);
    }
    const std::size_t half = n / 2;  // split-and-retry
    return insertRun(keys, vals, half, out) +
           insertRun(keys + half, vals + half, n - half, out + half);
  }

  struct EraseScratch {
    k::DefaultDomain* dom = nullptr;       // cached once per run (budget probes)
    std::vector<Node*> unlink;             // staged-out nodes (retired on commit)
    std::vector<std::size_t> stagedIdx;    // outcome indices of staged removals
    std::vector<std::size_t> deferredIdx;  // per-op erase() after the commit
  };

  struct EraseFrame {
    bool removed = false;
    Node* repl = nullptr;  // what the parent should swing its slot to
  };

  std::size_t eraseRun(const K* keys, std::size_t n, bool* out) {
    if (n == 0) return 0;
    if (n == 1) {  // degraded to the per-op commit
      out[0] = derived().erase(keys[0]);
      return out[0] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    EraseScratch sc;
    sc.dom = &domain();
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      sc.unlink.clear();
      sc.stagedIdx.clear();
      sc.deferredIdx.clear();
      const Version rootVer = visit(minRoot_);
      EraseFrame rootFrame;
      const StageStatus s = derived().stageEraseNode(minRoot_, rootVer, keys,
                                                     0, n, sc, rootFrame);
      if (s == StageStatus::kOverflow) break;
      if (s == StageStatus::kRetry) continue;
      PATHCAS_DCHECK(!rootFrame.removed);  // minRoot's key is a sentinel
      if (sc.unlink.empty()) {
        // Nothing staged: absent keys still need a validated traversal as
        // their witness (same rule as erase()); deferred ones run per-op.
        if (!validate()) continue;
        return finishEraseRun(keys, out, sc);
      }
      if (vex()) {
        derived().afterEraseCommit(sc);
        for (Node* dead : sc.unlink) ebr_.retire(dead, pool_);
        return finishEraseRun(keys, out, sc);
      }
    }
    const std::size_t half = n / 2;  // split-and-retry
    return eraseRun(keys, half, out) +
           eraseRun(keys + half, n - half, out + half);
  }

  std::size_t finishEraseRun(const K* keys, bool* out, EraseScratch& sc) {
    std::size_t erased = sc.stagedIdx.size();
    for (std::size_t idx : sc.stagedIdx) out[idx] = true;
    for (std::size_t idx : sc.deferredIdx) {
      out[idx] = derived().erase(keys[idx]);
      if (out[idx]) ++erased;
    }
    return erased;
  }

  /// Post-commit hooks of a batched run (the AVL repairs balance there).
  void afterInsertCommit(const InsertScratch&) {}
  void afterEraseCommit(const EraseScratch&) {}

  bool vex() { return opt_.useHtmFastPath ? vexecFast() : vexec(); }
  bool vval() {
    return opt_.useHtmFastPath ? validateVisitedFast() : validateVisited();
  }
  /// §4.1: leaf/one-child deletions need no path validation — the entries
  /// themselves pin parent and curr.
  bool execOrVex() {
    if (opt_.reduceValidation)
      return opt_.useHtmFastPath ? execFast() : pathcas::exec();
    return vex();
  }

  /// Nodes one scan op may visit below minRoot_ (which rangeQuery visits
  /// first to pin the root pointer).
  static constexpr int kScanBudget = pathcas::kMaxVisited - 1;

  /// In-order walk of the subtrees overlapping [lo, hi], visiting every node
  /// examined; collected pairs are only meaningful if validation succeeds.
  /// Each visit spends one unit of `budget` (a plain counter: no per-node
  /// thread-local lookup); returns false, without visiting, once it is
  /// spent, so every in-range key below the last emitted one was emitted.
  bool collectRange(Node* n, K lo, K hi, std::vector<std::pair<K, V>>& out,
                    int& budget) {
    if (n == nullptr) return true;
    if (budget == 0) return false;
    --budget;
    visit(n);
    const K k = n->key.load();
    if (k > lo && !collectRange(n->left.load(), lo, hi, out, budget))
      return false;
    if (k >= lo && k <= hi) out.emplace_back(k, n->val.load());
    return k >= hi || collectRange(n->right.load(), lo, hi, out, budget);
  }

  /// Walk the tree checking BST order, sentinel structure and that no
  /// reachable node is marked; `checkNode(n)` adds the derived tree's
  /// per-node invariants. Aborts (PATHCAS_CHECK) on violations. Returns
  /// statistics.
  template <typename CheckNode>
  TreeStats walkTree(CheckNode&& checkNode) const {
    PATHCAS_CHECK(maxRoot_->left.load() == minRoot_);
    PATHCAS_CHECK(maxRoot_->right.load() == nullptr);
    PATHCAS_CHECK(minRoot_->left.load() == nullptr);
    TreeStats stats;
    std::uint64_t depthSum = 0;
    walk(minRoot_->right.load(), kNegInf, kPosInf, 1, stats, depthSum,
         checkNode);
    stats.avgKeyDepth =
        stats.size ? static_cast<double>(depthSum) / stats.size : 0.0;
    stats.footprintBytes = (stats.nodeCount + 2) * sizeof(Node);
    return stats;
  }

  template <typename CheckNode>
  void walk(Node* n, K lo, K hi, std::uint64_t depth, TreeStats& stats,
            std::uint64_t& depthSum, CheckNode& checkNode) const {
    if (n == nullptr) return;
    const K k = n->key.load();
    PATHCAS_CHECK(k > lo && k < hi);
    PATHCAS_CHECK(!isMarked(n->ver.load()));
    checkNode(n);
    ++stats.size;
    ++stats.nodeCount;
    stats.keySum += static_cast<std::int64_t>(k);
    depthSum += depth;
    stats.height = std::max(stats.height, depth);
    walk(n->left.load(), lo, k, depth + 1, stats, depthSum, checkNode);
    walk(n->right.load(), k, hi, depth + 1, stats, depthSum, checkNode);
  }

  void forEachRec(Node* n, const std::function<void(K, V)>& f) const {
    if (n == nullptr) return;
    forEachRec(n->left.load(), f);
    f(n->key.load(), n->val.load());
    forEachRec(n->right.load(), f);
  }

  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    freeSubtree(n->left.load());
    freeSubtree(n->right.load());
    pool_.destroy(n);
  }

  IntBstOptions opt_;
  recl::EbrDomain& ebr_;
  recl::NodePool<Node>& pool_;
  Node* maxRoot_;
  Node* minRoot_;
};

}  // namespace pathcas::ds
