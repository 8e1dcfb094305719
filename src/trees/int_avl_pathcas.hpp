// Lock-free *internal relaxed AVL tree* built with PathCAS (§4.2 and
// appendix D of the paper): the internal BST of Algorithms 3-6 plus parent
// pointers, logical heights and Bougé-style relaxed rebalancing. The
// sentinels, searches, range scans, batching scaffolding and inspection are
// the internal-tree core shared with the BST (trees/internal_tree.hpp);
// this file holds the AVL delta: the parent-pointer entries of insert and
// erase, height-annotated batch subtrees, and rebalancing — fixHeight and
// the single/double rotations (Algorithms 8-11, each mirror pair one
// direction-templated function), applied while walking parent pointers
// toward the root until a violation-free node is reached.
//
// Deviations from the paper's pseudocode (which contains typos) are
// normalized to one rule: ANY node whose fields change in a vexec — including
// pure parent-pointer retargeting — has its version incremented in the same
// vexec. This is strictly safer (concurrent validations always observe
// subtree movements) at the cost of a slightly wider KCAS. It is also why a
// validated range scan is an atomic snapshot even while rebalancing runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/internal_tree.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

namespace detail {
template <typename K, typename V>
struct AvlNode {
  casword<Version> ver;
  casword<K> key;
  casword<V> val;
  casword<AvlNode*> left;
  casword<AvlNode*> right;
  casword<AvlNode*> parent;
  casword<std::int64_t> height;  // logical height (relaxed)

  AvlNode(K k, V v, AvlNode* p = nullptr) {
    key.setInitial(k);
    val.setInitial(v);
    parent.setInitial(p);
    height.setInitial(1);
  }
};
}  // namespace detail

template <typename K = std::int64_t, typename V = std::int64_t>
class IntAvlPathCas
    : public InternalTree<IntAvlPathCas<K, V>, detail::AvlNode<K, V>, K, V> {
  using Base = InternalTree<IntAvlPathCas<K, V>, detail::AvlNode<K, V>, K, V>;
  friend Base;

 public:
  using Node = detail::AvlNode<K, V>;
  using Base::kNegInf, Base::kPosInf;

  explicit IntAvlPathCas(IntBstOptions options = {},
                         recl::EbrDomain& ebr = recl::EbrDomain::instance(),
                         recl::NodePool<Node>* pool = nullptr)
      : Base(options, ebr, pool) {
    minRoot_->parent.setInitial(maxRoot_);
  }

  bool insert(K key, V val) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    Node* leaf = nullptr;
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found) {
        if (opt_.reduceValidation || validate()) {
          // Never published (no add() committed it): direct recycle is safe.
          if (leaf != nullptr) pool_.destroy(leaf);
          return false;
        }
        continue;
      }
      if (leaf == nullptr) {
        leaf = pool_.alloc(key, val, s.parent);
      } else {
        leaf->parent.setInitial(s.parent);
      }
      const K parentKey = s.parent->key;
      auto& ptrToChange =
          (key < parentKey) ? s.parent->left : s.parent->right;
      add(ptrToChange, static_cast<Node*>(nullptr), leaf);
      addVer(s.parent->ver, s.parentVer, verBump(s.parentVer));
      if (vex()) {
        rebalance(s.parent);
        return true;
      }
    }
  }

  bool erase(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (!s.found) {
        if (validate()) return false;
        continue;
      }
      if (isMarked(s.currVer) || isMarked(s.parentVer)) continue;
      Node* curr = s.curr;
      Node* parent = s.parent;
      Node* const currLeft = curr->left;
      Node* const currRight = curr->right;

      if (currLeft == nullptr && currRight == nullptr) {
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        add(ptrToChange, curr, static_cast<Node*>(nullptr));
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          rebalance(parent);
          return true;
        }
      } else if (currLeft == nullptr || currRight == nullptr) {
        Node* childToKeep = (currLeft == nullptr) ? currRight : currLeft;
        const Version childVer = visit(childToKeep);
        if (isMarked(childVer)) continue;
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        add(ptrToChange, curr, childToKeep);
        add(childToKeep->parent, curr, parent);
        addVer(childToKeep->ver, childVer, verBump(childVer));
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          rebalance(parent);
          return true;
        }
      } else {
        const Successor su = getSuccessor(curr, s.currVer);
        if (su.succ == nullptr || isMarked(su.succVer) ||
            isMarked(su.succPVer)) {
          continue;
        }
        Node* const succR = su.succ->right;
        Version succRVer = 0;
        if (succR != nullptr) {
          succRVer = visit(succR);
          if (isMarked(succRVer)) continue;
        }
        auto& ptrToChange = (su.succP->right.load() == su.succ)
                                ? su.succP->right
                                : su.succP->left;
        add(ptrToChange, su.succ, succR);
        if (succR != nullptr) {
          add(succR->parent, su.succ, su.succP);
          addVer(succR->ver, succRVer, verBump(succRVer));
        }
        const V currVal = curr->val;
        const V succVal = su.succ->val;
        add(curr->val, currVal, succVal);
        add(curr->key, key, su.succ->key.load());
        addVer(su.succ->ver, su.succVer, verMark(su.succVer));
        addVer(su.succP->ver, su.succPVer, verBump(su.succPVer));
        if (su.succP != curr)
          addVer(curr->ver, s.currVer, verBump(s.currVer));
        if (vex()) {
          ebr_.retire(su.succ, pool_);
          rebalance(su.succP);
          return true;
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Quiescent-state inspection.
  // ------------------------------------------------------------------

  /// Checks BST order, that no reachable node is marked, parent-pointer
  /// consistency, and that logical heights are self-consistent
  /// (height == 1 + max(child heights)) — the state Bougé's rebalancing
  /// converges to. `requireStrictBalance` additionally asserts every node's
  /// children differ in height by <= 1 (holds after quiescent convergence).
  TreeStats checkInvariants(bool requireStrictBalance = false) const {
    Node* const root = minRoot_->right.load();
    if (root != nullptr) PATHCAS_CHECK(root->parent.load() == minRoot_);
    return this->walkTree(
        [&](const Node* n) { checkLinks(n, requireStrictBalance); });
  }

  /// Quiescent helper for tests: repeatedly apply rebalancing at every node
  /// until the tree is a strict AVL tree (Bougé's convergence theorem).
  void rebalanceToConvergence() {
    bool changed = true;
    while (changed) {
      changed = false;
      fixAll(minRoot_->right.load(), changed);
    }
  }

  static constexpr const char* name() { return "int-avl-pathcas"; }

 private:
  using typename Base::SearchResult, typename Base::Successor,
      typename Base::StageStatus, typename Base::InsertScratch,
      typename Base::EraseScratch, typename Base::EraseFrame;
  using Base::opt_, Base::ebr_, Base::pool_, Base::search,
      Base::getSuccessor, Base::vex, Base::execOrVex, Base::stageBudgetLeft,
      Base::minRoot_, Base::maxRoot_;

  enum class FixResult { kSuccess, kFailure, kUnnecessary };

  // ------------------------------------------------------------------
  // Batched updates: InternalTree::insertBatch/eraseBatch. AVL-specific
  // deltas: inserted runs become height-annotated balanced subtrees whose
  // attach points are rebalanced after the commit, and only LEAF removals
  // are staged in the wide KCAS — a one-child splice retargets the kept
  // child's parent word, which may already carry a staged version bump from
  // the child's own subtree in the same batch (an address staged twice is
  // undefined), so one-child and two-child removals defer to per-op erase().
  // ------------------------------------------------------------------

  /// Balanced, height-annotated subtree of keys[lo..hi), built privately
  /// under `parent` (setInitial): only shared if the staged link commits.
  Node* buildSubtree(const K* keys, const V* vals, std::size_t lo,
                     std::size_t hi, Node* parent) {
    const std::size_t mid = lo + (hi - lo) / 2;
    Node* const n = pool_.alloc(keys[mid], vals[mid], parent);
    std::int64_t lh = 0, rh = 0;
    if (lo < mid) {
      Node* const l = buildSubtree(keys, vals, lo, mid, n);
      n->left.setInitial(l);
      lh = l->height.load();
    }
    if (mid + 1 < hi) {
      Node* const r = buildSubtree(keys, vals, mid + 1, hi, n);
      n->right.setInitial(r);
      rh = r->height.load();
    }
    if (lh != 0 || rh != 0) n->height.setInitial(1 + std::max(lh, rh));
    return n;
  }

  /// InternalTree::stageInsertNode's step into one child partition: recurse
  /// into a child, or link a prebuilt subtree hanging under `node` into a
  /// null slot.
  StageStatus stageInsertChild(Node* node, casword<Node*>& slot,
                               const K* keys, const V* vals, std::size_t lo,
                               std::size_t hi, InsertScratch& sc,
                               bool& childStaged) {
    Node* const child = slot.load();
    if (child != nullptr) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      const Version childVer = visit(child);
      return this->stageInsertNode(child, childVer, keys, vals, lo, hi, sc);
    }
    if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
    Node* const sub = buildSubtree(keys, vals, lo, hi, node);
    sc.built.push_back(sub);
    sc.staged.emplace_back(lo, hi);
    add(slot, static_cast<Node*>(nullptr), sub);
    childStaged = true;
    return StageStatus::kOk;
  }

  /// An attached subtree is internally balanced but may unbalance the path
  /// above its attach point; repair from there (Bougé walk-up). A built
  /// root's parent word names that point — or, if a concurrent rotation
  /// has since moved the subtree, its current parent; the walk is safe from
  /// any node, and the run's EBR pin keeps every node it reads alive.
  void afterInsertCommit(const InsertScratch& sc) {
    for (Node* sub : sc.built) rebalance(sub->parent.load());
  }

  /// Stage the removals of keys[lo..hi) under `node` (already visited at
  /// nodeVer), bottom-up as in the BST: a removed child is reported through
  /// `fr` and the parent stages the slot swing plus its own single version
  /// bump. Only untouched leaves are removed in-batch (see above).
  StageStatus stageEraseNode(Node* node, Version nodeVer, const K* keys,
                             std::size_t lo, std::size_t hi, EraseScratch& sc,
                             EraseFrame& fr) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    const bool matched = mid < hi && keys[mid] == nodeKey;
    const std::size_t rlo = matched ? mid + 1 : mid;
    Node* const left = node->left.load();
    Node* const right = node->right.load();
    bool childStaged = false;
    if (lo < mid && left != nullptr) {
      const StageStatus s = stageEraseEdge(node->left, left, keys, lo, mid,
                                           sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi && right != nullptr) {
      const StageStatus s = stageEraseEdge(node->right, right, keys, rlo, hi,
                                           sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (matched) {
      if (!childStaged && left == nullptr && right == nullptr) {
        if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
        // Leaf: mark node; the parent frame swings its slot and bumps its
        // own version. Matches the per-op leaf-deletion entry set exactly.
        addVer(node->ver, nodeVer, verMark(nodeVer));
        fr.removed = true;
        sc.unlink.push_back(node);
        sc.stagedIdx.push_back(mid);
        return StageStatus::kOk;
      }
      // One-child / two-child / touched-by-this-batch: per-op fallback.
      sc.deferredIdx.push_back(mid);
    }
    if (childStaged) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  StageStatus stageEraseEdge(casword<Node*>& slot, Node* child, const K* keys,
                             std::size_t lo, std::size_t hi, EraseScratch& sc,
                             bool& childStaged) {
    if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
    const Version childVer = visit(child);
    EraseFrame cf;
    const StageStatus s =
        stageEraseNode(child, childVer, keys, lo, hi, sc, cf);
    if (s != StageStatus::kOk) return s;
    if (cf.removed) {
      add(slot, child, static_cast<Node*>(nullptr));
      childStaged = true;
    }
    return StageStatus::kOk;
  }

  /// Repair upward from each removed leaf's parent. A marked node's parent
  /// word is frozen (changing it would bump the marked version), so it still
  /// names the parent the commit unlinked the leaf from.
  void afterEraseCommit(const EraseScratch& sc) {
    for (Node* dead : sc.unlink) rebalance(dead->parent.load());
  }

  static std::int64_t heightOf(Node* n) {
    return n == nullptr ? 0 : n->height.load();
  }

  /// n's child slot on side kLeft (false: the right side). Each mirror pair
  /// of rebalancing steps below is one function instantiated per side.
  template <bool kLeft>
  static casword<Node*>& side(Node* n) {
    if constexpr (kLeft) {
      return n->left;
    } else {
      return n->right;
    }
  }

  // ------------------------------------------------------------------
  // Rebalancing (appendix D, Algorithms 8-11 + mirrors).
  // ------------------------------------------------------------------

  /// Walk from n toward the root repairing violations (Algorithm 10). A
  /// thread that created a violation owns it — and any violation its own
  /// repairs create — until it reaches a violation-free or deleted node.
  void rebalance(Node* n) {
    // Bounded retries guard against pathological contention livelock; an
    // abandoned repair leaves a (correct) temporarily-unbalanced tree whose
    // violation the next updater through this region repairs.
    int attempts = 0;
    while (n != nullptr && n != minRoot_ && n != maxRoot_) {
      if (++attempts > kMaxRebalanceAttempts) return;
      start();
      const Version nV = n->ver.load();
      if (isMarked(nV)) return;  // deleted: someone else owns the path up
      Node* p = n->parent;
      if (p == nullptr) return;
      const Version pV = visit(p);
      if (isMarked(pV)) continue;
      Node* const l = n->left;
      Node* const r = n->right;
      Version lV = 0, rV = 0;
      if (l != nullptr) lV = visit(l);
      if (r != nullptr) rV = visit(r);
      if (isMarked(lV) || isMarked(rV)) continue;
      const std::int64_t balance = heightOf(l) - heightOf(r);
      if (balance >= 2) {
        n = repairHeavy<true>(p, pV, n, nV, l, lV);
      } else if (balance <= -2) {
        n = repairHeavy<false>(p, pV, n, nV, r, rV);
      } else {
        const FixResult res = fixHeight(n, nV, l, lV, r, rV);
        if (res == FixResult::kFailure) continue;
        if (res == FixResult::kSuccess) {
          n = p;
          continue;
        }
        return;  // kUnnecessary: no violation here; the walk ends (Alg. 10)
      }
    }
  }

  /// rebalance's branch for n heavy on side kLeft, whose child there is c:
  /// examine c's children to pick a single rotation, or a double rotation
  /// when c's inner subtree is the taller. Returns where the walk goes on:
  /// p after a rotation (whose moved nodes were repaired recursively), or n
  /// to retry after a race.
  template <bool kLeft>
  Node* repairHeavy(Node* p, Version pV, Node* n, Version nV, Node* c,
                    Version cV) {
    if (c == nullptr) return n;  // height raced; retry
    Node* const outer = side<kLeft>(c);
    Node* const inner = side<!kLeft>(c);
    Version outerV = 0, innerV = 0;
    if (outer != nullptr) outerV = visit(outer);
    if (inner != nullptr) innerV = visit(inner);
    if (isMarked(outerV) || isMarked(innerV)) return n;
    if (heightOf(inner) > heightOf(outer)) {
      if (!rotateDouble<kLeft>(p, pV, n, nV, c, cV, inner, innerV)) return n;
      rebalance(n);
      rebalance(c);
      rebalance(inner);
      return p;
    }
    if (!rotate<kLeft>(p, pV, n, nV, c, cV)) return n;
    rebalance(n);
    rebalance(c);
    return p;
  }

  /// Algorithm 8: set n.height = 1 + max(child heights), locking the
  /// children's versions (add old==new) so the computed height is consistent.
  FixResult fixHeight(Node* n, Version nV, Node* l, Version lV, Node* r,
                      Version rV) {
    // l/r/versions were visited by the caller in this same PathCAS op.
    if (l != nullptr) addVer(l->ver, lV, lV);
    if (r != nullptr) addVer(r->ver, rV, rV);
    const std::int64_t oldHeight = n->height;
    const std::int64_t newHeight = 1 + std::max(heightOf(l), heightOf(r));
    if (oldHeight == newHeight) {
      if (n->ver.load() == nV && (l == nullptr || l->ver.load() == lV) &&
          (r == nullptr || r->ver.load() == rV)) {
        return FixResult::kUnnecessary;
      }
      return FixResult::kFailure;
    }
    add(n->height, oldHeight, newHeight);
    addVer(n->ver, nV, verBump(nV));
    if (vex()) return FixResult::kSuccess;
    return FixResult::kFailure;
  }

  /// Attach l in n's place under p. Returns false if n is not p's child.
  bool addParentSwing(Node* p, Node* n, Node* replacement) {
    if (p->right.load() == n) {
      add(p->right, n, replacement);
    } else if (p->left.load() == n) {
      add(p->left, n, replacement);
    } else {
      return false;
    }
    return true;
  }

  /// Algorithm 11: single rotation lifting n's child c on side kLeft (the
  /// right rotation for kLeft, its mirror otherwise). Shown for kLeft:
  ///        p                p
  ///        n       =>       c
  ///       / \              / \ .
  ///      c   o            co  n
  ///     / \                  / \ .
  ///    co  ci               ci  o
  template <bool kLeft>
  bool rotate(Node* p, Version pV, Node* n, Version nV, Node* c, Version cV) {
    if (!addParentSwing(p, n, c)) return false;
    Node* const ci = side<!kLeft>(c);
    std::int64_t ciH = 0;
    if (ci != nullptr) {
      const Version ciV = visit(ci);
      if (isMarked(ciV)) return false;
      ciH = ci->height;
      add(ci->parent, c, n);
      addVer(ci->ver, ciV, verBump(ciV));
    }
    Node* const co = side<kLeft>(c);
    std::int64_t coH = 0;
    if (co != nullptr) {
      const Version coV = visit(co);
      if (isMarked(coV)) return false;
      coH = co->height;
    }
    Node* const o = side<!kLeft>(n);
    std::int64_t oH = 0;
    if (o != nullptr) {
      const Version oV = visit(o);
      if (isMarked(oV)) return false;
      oH = o->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldCH = c->height;
    const std::int64_t newNH = 1 + std::max(ciH, oH);
    const std::int64_t newCH = 1 + std::max(coH, newNH);
    add(c->parent, n, p);
    add(side<kLeft>(n), c, ci);
    add(side<!kLeft>(c), ci, n);
    add(n->parent, p, c);
    add(n->height, oldNH, newNH);
    add(c->height, oldCH, newCH);
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(c->ver, cV, verBump(cV));
    return vex();
  }

  /// Algorithm 9: double rotation, fused into one PathCAS, lifting g — the
  /// inner child of n's child c on side kLeft — into n's place (left-right
  /// for kLeft, right-left otherwise). Shown for kLeft:
  ///        p                 p
  ///        n                 g
  ///      /   \             /   \ .
  ///     c     o    =>     c     n
  ///    / \               / \   / \ .
  ///   co  g             co gi go  o
  ///      /  \ .
  ///    gi    go
  template <bool kLeft>
  bool rotateDouble(Node* p, Version pV, Node* n, Version nV, Node* c,
                    Version cV, Node* g, Version gV) {
    if (!addParentSwing(p, n, g)) return false;
    Node* const gi = side<kLeft>(g);
    std::int64_t giH = 0;
    if (gi != nullptr) {
      const Version giV = visit(gi);
      if (isMarked(giV)) return false;
      giH = gi->height;
      add(gi->parent, g, c);
      addVer(gi->ver, giV, verBump(giV));
    }
    Node* const go = side<!kLeft>(g);
    std::int64_t goH = 0;
    if (go != nullptr) {
      const Version goV = visit(go);
      if (isMarked(goV)) return false;
      goH = go->height;
      add(go->parent, g, n);
      addVer(go->ver, goV, verBump(goV));
    }
    Node* const o = side<!kLeft>(n);
    std::int64_t oH = 0;
    if (o != nullptr) {
      const Version oV = visit(o);
      if (isMarked(oV)) return false;
      oH = o->height;
    }
    Node* const co = side<kLeft>(c);
    std::int64_t coH = 0;
    if (co != nullptr) {
      const Version coV = visit(co);
      if (isMarked(coV)) return false;
      coH = co->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldCH = c->height;
    const std::int64_t oldGH = g->height;
    const std::int64_t newNH = 1 + std::max(goH, oH);
    const std::int64_t newCH = 1 + std::max(coH, giH);
    const std::int64_t newGH = 1 + std::max(newNH, newCH);
    add(g->parent, c, p);
    add(side<kLeft>(g), gi, c);
    add(c->parent, n, g);
    add(side<!kLeft>(g), go, n);
    add(n->parent, p, g);
    add(side<!kLeft>(c), g, gi);
    add(side<kLeft>(n), c, go);
    add(n->height, oldNH, newNH);
    add(c->height, oldCH, newCH);
    add(g->height, oldGH, newGH);
    addVer(g->ver, gV, verBump(gV));
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(c->ver, cV, verBump(cV));
    return vex();
  }

  // ------------------------------------------------------------------

  /// checkInvariants' per-node AVL checks: both children point back at n,
  /// and (strict) n's height is exact and its children's differ by <= 1.
  static void checkLinks(const Node* n, bool strict) {
    Node* const l = n->left.load();
    Node* const r = n->right.load();
    if (l != nullptr) PATHCAS_CHECK(l->parent.load() == n);
    if (r != nullptr) PATHCAS_CHECK(r->parent.load() == n);
    if (strict) {
      PATHCAS_CHECK(n->height.load() ==
                    1 + std::max(heightOf(l), heightOf(r)));
      const std::int64_t bal = heightOf(l) - heightOf(r);
      PATHCAS_CHECK(bal >= -1 && bal <= 1);
    }
  }

  void fixAll(Node* n, bool& changed) {
    if (n == nullptr) return;
    fixAll(n->left.load(), changed);
    fixAll(n->right.load(), changed);
    // Re-read children: a rotation below may have restructured.
    Node* const l = n->left.load();
    Node* const r = n->right.load();
    const std::int64_t want = 1 + std::max(heightOf(l), heightOf(r));
    const std::int64_t bal = heightOf(l) - heightOf(r);
    if (n->height.load() != want || bal >= 2 || bal <= -2) {
      rebalance(n);
      changed = true;
    }
  }

  static constexpr int kMaxRebalanceAttempts = 10000;
};

}  // namespace pathcas::ds
