// Internal BST over MCMS — the §5.1 comparison tree. Mirrors the paper's
// setup: the data structure validates the *entire search path* by passing it
// as compare entries to MCMS (versus PathCAS, which only re-reads version
// numbers). Includes the optimizations the paper grants MCMS: searches that
// return true and inserts that return false perform no MCMS at all, and
// successful deletes use small MCMS operations that exclude the search path.
//
// Each traversed node contributes two compare entries (its key word and the
// child pointer followed), so on the software path an update descriptor-
// locks ~2·depth words including the root — the contention bottleneck the
// paper's Fig. 6 demonstrates.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "mcms/mcms.hpp"
#include "recl/ebr.hpp"
#include "util/defs.hpp"

namespace pathcas::mcms {

template <typename K = std::int64_t, typename V = std::int64_t>
class McmsBst {
 public:
  static constexpr K kNegInf = std::numeric_limits<K>::min() / 4;
  static constexpr K kPosInf = std::numeric_limits<K>::max() / 4;

  struct Node {
    casword<Version> ver;  // bit 0: mark (deleted); compared, never visited
    casword<K> key;
    casword<V> val;
    casword<Node*> left;
    casword<Node*> right;
    Node(K k, V v) {
      key.setInitial(k);
      val.setInitial(v);
    }
  };

  explicit McmsBst(bool useHtm = false,
                   recl::EbrDomain& ebr = recl::EbrDomain::instance())
      : useHtm_(useHtm), ebr_(ebr) {
    maxRoot_ = new Node(kPosInf, V{});
    minRoot_ = new Node(kNegInf, V{});
    maxRoot_->left.setInitial(minRoot_);
  }

  McmsBst(const McmsBst&) = delete;
  McmsBst& operator=(const McmsBst&) = delete;

  ~McmsBst() {
    // Quiescent-teardown exception: no thread pinned on this tree anymore,
    // so reachable nodes are deleted directly (this baseline stays on the
    // heap; the eleven PathCAS/hand-crafted structures use recl::NodePool).
    freeSubtree(minRoot_->right.load());
    delete minRoot_;
    delete maxRoot_;
  }

  bool contains(K key) {
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found) return true;  // granted optimization: no MCMS
      cmp(*s.lastEdge, static_cast<Node*>(nullptr));
      if (execute(useHtm_)) return false;  // path compares only
    }
  }

  bool insert(K key, V val) {
    auto guard = ebr_.pin();
    Node* leaf = nullptr;
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found) {
        delete leaf;  // audit: never published (no swap committed it)
        return false;  // granted optimization: no MCMS
      }
      if (leaf == nullptr) leaf = new Node(key, val);
      swap(*s.lastEdge, static_cast<Node*>(nullptr), leaf);
      if (execute(useHtm_)) return true;
    }
  }

  bool erase(K key) {
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (!s.found) {
        cmp(*s.lastEdge, static_cast<Node*>(nullptr));
        if (execute(useHtm_)) return false;  // validated absence
        continue;
      }
      // Successful deletes use small MCMS ops excluding the search path —
      // restart staging with only the local neighbourhood.
      start();
      Node* curr = s.curr;
      Node* parent = s.parent;
      const Version currVer = curr->ver.load();
      const Version parentVer = parent->ver.load();
      if ((currVer & 1) || (parentVer & 1)) continue;
      Node* const currLeft = curr->left;
      Node* const currRight = curr->right;
      if (currLeft == nullptr || currRight == nullptr) {
        Node* const childToKeep =
            (currLeft == nullptr) ? currRight : currLeft;
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        cmp(parent->ver, parentVer);
        if (childToKeep == nullptr) {
          cmp(curr->left, static_cast<Node*>(nullptr));
          cmp(curr->right, static_cast<Node*>(nullptr));
        } else {
          cmp((currLeft == nullptr) ? curr->right : curr->left, childToKeep);
          cmp((currLeft == nullptr) ? curr->left : curr->right,
              static_cast<Node*>(nullptr));
        }
        swap(ptrToChange, curr, childToKeep);
        swap(curr->ver, currVer, currVer + 1);  // mark
        if (execute(useHtm_)) {
          ebr_.retire(curr);
          return true;
        }
      } else {
        // Two children: promote the successor (its own small search).
        Node* succP = curr;
        Version succPVer = currVer;
        Node* succ = currRight;
        Version succVer = succ->ver.load();
        for (;;) {
          Node* next = succ->left;
          if (next == nullptr) break;
          succP = succ;
          succPVer = succVer;
          succ = next;
          succVer = succ->ver.load();
        }
        if ((succVer & 1) || (succPVer & 1)) continue;
        Node* const succR = succ->right;
        auto& ptrToChange = (succP->right.load() == succ) ? succP->right
                                                          : succP->left;
        cmp(succ->left, static_cast<Node*>(nullptr));
        // succ's right child moves up into ptrToChange: pin it, or an insert
        // committed into succ->right after the read above is unlinked with
        // succ (inserts swap only the NIL edge, never a version).
        cmp(succ->right, succR);
        swap(ptrToChange, succ, succR);
        const V currVal = curr->val;
        const V succVal = succ->val;
        swap(curr->val, currVal, succVal);
        swap(curr->key, key, succ->key.load());
        swap(succ->ver, succVer, succVer + 1);  // mark succ
        swap(succP->ver, succPVer, succPVer + 2);
        if (succP != curr) swap(curr->ver, currVer, currVer + 2);
        if (execute(useHtm_)) {
          ebr_.retire(succ);
          return true;
        }
      }
    }
  }

  std::uint64_t size() const {
    std::uint64_t n = 0;
    countRec(minRoot_->right.load(), n);
    return n;
  }
  std::int64_t keySum() const { return sumRec(minRoot_->right.load()); }

  std::string name() const {
    return useHtm_ ? "int-bst-mcms+" : "int-bst-mcms-";
  }

 private:
  struct SearchResult {
    bool found;
    Node* curr;
    Node* parent;
    casword<Node*>* lastEdge;  // the NIL edge a not-found search ended at
  };

  /// BST search that stages 2 compare entries per traversed node: the key
  /// word (keys mutate under successor promotion) and the child pointer
  /// followed. On the software path these become descriptor writes to the
  /// whole path — the defining MCMS cost. The final NIL edge is returned
  /// *un-compared* so the caller can either cmp it (validated absence) or
  /// swap it (insert) without a conflicting duplicate entry.
  SearchResult search(K key) {
    Node* parent = minRoot_;
    casword<Node*>* edge = &minRoot_->right;
    Node* curr = edge->load();
    while (curr != nullptr) {
      cmp(*edge, curr);  // the edge we followed into curr
      const K currKey = curr->key;
      cmp(curr->key, currKey);
      if (key == currKey) return {true, curr, parent, nullptr};
      parent = curr;
      edge = (key > currKey) ? &curr->right : &curr->left;
      curr = edge->load();
    }
    return {false, nullptr, parent, edge};
  }

  void countRec(Node* n, std::uint64_t& acc) const {
    if (n == nullptr) return;
    ++acc;
    countRec(n->left.load(), acc);
    countRec(n->right.load(), acc);
  }
  std::int64_t sumRec(Node* n) const {
    if (n == nullptr) return 0;
    return static_cast<std::int64_t>(n->key.load()) +
           sumRec(n->left.load()) + sumRec(n->right.load());
  }
  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    freeSubtree(n->left.load());
    freeSubtree(n->right.load());
    delete n;
  }

  bool useHtm_;
  recl::EbrDomain& ebr_;
  Node* maxRoot_;
  Node* minRoot_;
};

}  // namespace pathcas::mcms
