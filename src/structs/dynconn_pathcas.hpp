// Lock-free dynamic connectivity on undirected acyclic graphs (forests) via
// PathCAS — appendix H of the paper.
//
// Representation: each connected component is an Euler tour stored in a
// doubly-linked "tour list" bracketed by a min and a max sentinel. Each
// graph vertex owns a permanent self-edge list node; each graph edge (v,w)
// contributes two list nodes (VW and WV, one per direction). Every vertex
// also keeps a singly-linked adjacency list of its incident edges, updated
// in the SAME vexec as the tour splice — PathCAS is structure-agnostic, so
// one atomic operation can span both structures.
//
// Serialization: every update increments the version of the component's
// minimum sentinel (appendix H: "a single version number protects the entire
// tour list"), so at most one update commits per component at a time, while
// connected() queries remain read-only validated searches.
//
// Simplification vs the paper: the paper stores tours in skip lists so the
// walk to the minimum sentinel is O(log n); we use the doubly-linked list
// the appendix describes first, making the walk linear in the component
// size. This preserves every concurrency property (what the appendix-H
// proofs argue about) and only changes the traversal complexity — acceptable
// because the PathCAS read-set bound caps component sizes anyway (components
// must fit the visit path; see kcas::KcasDomain::kMaxPath).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

class DynConnPathCas {
 public:
  // Node types are public so callers can hand the constructor dedicated
  // pools.
  struct ListNode {
    casword<Version> ver;
    casword<std::int64_t> tag;  // packed edge id, vertex id, or kSentinel
    casword<ListNode*> prev;
    casword<ListNode*> next;
    ListNode(std::int64_t t, int /*owner*/) { tag.setInitial(t); }
  };
  struct AdjNode {
    casword<Version> ver;
    casword<std::int64_t> nbr;
    casword<ListNode*> out;  // list node for v->w
    casword<ListNode*> in;   // list node for w->v
    casword<AdjNode*> next;
    AdjNode(std::int64_t neighbor, ListNode* outNode, ListNode* inNode) {
      nbr.setInitial(neighbor);
      out.setInitial(outNode);
      in.setInitial(inNode);
    }
  };

  /// Fixed vertex set 0..n-1; edges are fully dynamic.
  explicit DynConnPathCas(int numVertices,
                          recl::EbrDomain& ebr = recl::EbrDomain::instance(),
                          recl::NodePool<ListNode>* listPool = nullptr,
                          recl::NodePool<AdjNode>* adjPool = nullptr)
      : ebr_(ebr),
        listPool_(listPool ? *listPool : recl::defaultPool<ListNode>()),
        adjPool_(adjPool ? *adjPool : recl::defaultPool<AdjNode>()),
        vertices_(static_cast<std::size_t>(numVertices)) {
    for (int v = 0; v < numVertices; ++v) {
      auto* self = listPool_.alloc(v, v);
      auto* smin = listPool_.alloc(kSentinel, v);
      auto* smax = listPool_.alloc(kSentinel, v);
      smin->next.setInitial(self);
      self->prev.setInitial(smin);
      self->next.setInitial(smax);
      smax->prev.setInitial(self);
      vertices_[static_cast<std::size_t>(v)].self = self;
    }
  }

  DynConnPathCas(const DynConnPathCas&) = delete;
  DynConnPathCas& operator=(const DynConnPathCas&) = delete;

  ~DynConnPathCas() {
    // Quiescent-teardown exception: recycle every tour list once (via min
    // sentinels) and all adjacency nodes straight into the pools (no EBR).
    for (auto& vx : vertices_) {
      for (AdjNode* a = vx.adjHead.load(); a != nullptr;) {
        AdjNode* next = a->next.load();
        adjPool_.destroy(a);
        a = next;
      }
    }
    std::vector<ListNode*> mins;
    for (auto& vx : vertices_) {
      ListNode* m = vx.self;
      while (m->prev.load() != nullptr) m = m->prev.load();
      bool dup = false;
      for (auto* seen : mins) dup = dup || (seen == m);
      if (!dup) mins.push_back(m);
    }
    for (auto* m : mins) {
      while (m != nullptr) {
        ListNode* next = m->next.load();
        listPool_.destroy(m);
        m = next;
      }
    }
  }

  /// True iff a path exists between v and w (validated snapshot semantics:
  /// both walks to the minimum sentinels were atomic).
  bool connected(int v, int w) {
    auto guard = ebr_.pin();
    if (v == w) return true;
    for (;;) {
      start();
      ListNode* const mv = walkToMin(self(v));
      ListNode* const mw = mv ? walkToMin(self(w)) : nullptr;
      if (mw != nullptr && validate()) return mv == mw;
    }
  }

  /// Add edge (v,w). Returns false if v and w are already connected (adding
  /// the edge would create a cycle — the standard Euler-tour restriction).
  bool link(int v, int w) {
    PATHCAS_CHECK(v != w);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      Splice sv, sw;
      if (!surveyTour(self(v), sv) || !surveyTour(self(w), sw)) continue;
      if (sv.smin == sw.smin) {
        if (validate()) return false;  // already connected
        continue;
      }
      // Result tour: [Sv1, L2v, L1v, VW, L4w, L3w, WV, Sw4] — rotate v's
      // tour to end at v's self edge, splice in the new edge nodes around
      // w's similarly-rotated tour, drop v's max and w's min sentinels.
      auto* vw = listPool_.alloc(packEdge(v, w), v);
      auto* wv = listPool_.alloc(packEdge(w, v), v);
      beginStaging({vw, wv});
      Seg segs[6];
      int nsegs = 0;
      if (sv.afterSelfHead != nullptr)  // L2v
        segs[nsegs++] = {sv.afterSelfHead, sv.afterSelfTail};
      segs[nsegs++] = {sv.beforeSelfHead, sv.selfNode};  // L1v (has self)
      segs[nsegs++] = {vw, vw};
      if (sw.afterSelfHead != nullptr)  // L4w
        segs[nsegs++] = {sw.afterSelfHead, sw.afterSelfTail};
      segs[nsegs++] = {sw.beforeSelfHead, sw.selfNode};  // L3w
      segs[nsegs++] = {wv, wv};
      stitch(sv.smin, segs, nsegs, sw.smax);
      // Drop the two interior sentinels.
      markNode(sv.smax);
      markNode(sw.smin);
      // Serialize on v's min sentinel (the surviving one).
      bumpNode(sv.smin);
      if (!flushBumps()) {  // torn walk: the fresh nodes were never linked
        listPool_.destroy(vw);
        listPool_.destroy(wv);
        continue;
      }
      // Register the edge in both adjacency lists, atomically with the
      // splice.
      auto* av = adjPool_.alloc(w, vw, wv);
      auto* aw = adjPool_.alloc(v, wv, vw);
      AdjNode* const vHead = vertex(v).adjHead.load();
      AdjNode* const wHead = vertex(w).adjHead.load();
      av->next.setInitial(vHead);
      aw->next.setInitial(wHead);
      add(vertex(v).adjHead, vHead, av);
      add(vertex(w).adjHead, wHead, aw);
      if (vexec()) {
        ebr_.retire(sv.smax, listPool_);
        ebr_.retire(sw.smin, listPool_);
        return true;
      }
      // Failed vexec: the four fresh nodes were staged as new values but
      // never became reachable — direct recycle is safe.
      listPool_.destroy(vw);
      listPool_.destroy(wv);
      adjPool_.destroy(av);
      adjPool_.destroy(aw);
    }
  }

  /// Remove edge (v,w). Returns false if the edge does not exist.
  bool cut(int v, int w) {
    PATHCAS_CHECK(v != w);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      // Locate the edge in v's adjacency list (visiting entries).
      AdjFind fv = findAdj(v, w);
      if (fv.node == nullptr) {
        if (validate()) return false;
        continue;
      }
      AdjFind fw = findAdj(w, v);
      if (fw.node == nullptr) continue;  // transient: retry
      ListNode* const vwNode = fv.node->out.load();
      ListNode* const wvNode = fv.node->in.load();
      // Survey the single tour around the two edge nodes:
      //   [S1, L1, X, L2, Y, L3, S2]  ->  [S1, L1, L3, S2] + [S3, L2, S4]
      // where {X, Y} = {VW, WV} in whichever order the (rotated) tour holds
      // them — tour rotations from earlier links can place either one first.
      ListNode* const s1 = walkToMin(vwNode);
      if (s1 == nullptr) continue;
      ListNode* first = nullptr;
      ListNode* second = nullptr;
      ListNode* cur = s1;
      bool torn = false;
      for (int len = 1;; ++len) {
        ListNode* nx = cur->next;
        if (nx == nullptr) break;
        if (len == maxTour_) {
          torn = true;  // longer than any tour (see walkToMin)
          break;
        }
        visit(nx);
        if (nx == vwNode || nx == wvNode) {
          (first == nullptr ? first : second) = nx;
        }
        cur = nx;
      }
      if (torn || first == nullptr || second == nullptr) continue;  // retry
      if (cur->tag.load() != kSentinel) continue;
      ListNode* const s2 = cur;
      (void)s2;
      ListNode* const l1tail = first->prev;
      ListNode* const l2head = first->next;
      ListNode* const l2tail = second->prev;
      ListNode* const l3head = second->next;
      PATHCAS_DCHECK(l2head != second &&
                     "the far endpoint's self edge always sits between");

      // Detached tour: wrap L2 in fresh sentinels.
      auto* s3 = listPool_.alloc(kSentinel, v);
      auto* s4 = listPool_.alloc(kSentinel, v);
      beginStaging({s3, s4});
      // Main tour: bridge over [first .. second].
      linkPair(l1tail, l3head);
      s3->next.setInitial(l2head);
      s4->prev.setInitial(l2tail);
      add(l2head->prev, first, s3);
      bumpNode(l2head);
      add(l2tail->next, second, s4);
      bumpNode(l2tail);
      markNode(vwNode);
      markNode(wvNode);
      bumpNode(s1);  // serialize on the (surviving) min sentinel
      if (!flushBumps()) {  // torn walk: the fresh sentinels were never linked
        listPool_.destroy(s3);
        listPool_.destroy(s4);
        continue;
      }
      // Unlink both adjacency entries atomically with the splice.
      unlinkAdj(v, fv);
      unlinkAdj(w, fw);
      if (vexec()) {
        ebr_.retire(vwNode, listPool_);
        ebr_.retire(wvNode, listPool_);
        ebr_.retire(fv.node, adjPool_);
        ebr_.retire(fw.node, adjPool_);
        return true;
      }
      // Failed vexec: the fresh sentinels never became reachable.
      listPool_.destroy(s3);
      listPool_.destroy(s4);
    }
  }

  /// Quiescent check: every component's tour is a consistent doubly-linked
  /// list between sentinels, and self-edges partition across components.
  void checkInvariants() const {
    for (const auto& vx : vertices_) {
      // Walk to min, then forward to max, checking prev/next symmetry.
      ListNode* m = vx.self;
      while (m->prev.load() != nullptr) m = m->prev.load();
      PATHCAS_CHECK(m->tag.load() == kSentinel);
      ListNode* cur = m;
      while (cur->next.load() != nullptr) {
        ListNode* nx = cur->next.load();
        PATHCAS_CHECK(nx->prev.load() == cur);
        PATHCAS_CHECK(!isMarked(nx->ver.load()));
        cur = nx;
      }
      PATHCAS_CHECK(cur->tag.load() == kSentinel);
    }
  }

  static constexpr const char* name() { return "dynconn-pathcas"; }

 private:
  static constexpr std::int64_t kSentinel = -1;

  struct Vertex {
    ListNode* self = nullptr;
    casword<AdjNode*> adjHead;
  };
  struct Seg {
    ListNode* head;
    ListNode* tail;
  };
  struct Splice {
    ListNode* smin = nullptr;
    ListNode* smax = nullptr;
    ListNode* selfNode = nullptr;
    ListNode* beforeSelfHead = nullptr;  // first node after smin (L1 head)
    ListNode* afterSelfHead = nullptr;   // first node after self (L2), or null
    ListNode* afterSelfTail = nullptr;   // last node before smax
  };
  struct AdjFind {
    AdjNode* node = nullptr;
    Version nodeVer = 0;
    AdjNode* pred = nullptr;  // nullptr => entry is the head
    Version predVer = 0;
  };

  static std::int64_t packEdge(int v, int w) {
    return (static_cast<std::int64_t>(v) << 32) | static_cast<std::int64_t>(w);
  }

  Vertex& vertex(int v) { return vertices_[static_cast<std::size_t>(v)]; }
  ListNode* self(int v) { return vertex(v).self; }

  /// Walk prev pointers to the minimum sentinel, visiting every node.
  /// Returns nullptr once the walk is longer than any tour (maxTour_): the
  /// reads, each of a different commit's state, have stitched a cycle, and
  /// the caller re-traverses instead of overflowing the visited set.
  ListNode* walkToMin(ListNode* from) {
    ListNode* cur = from;
    visit(cur);
    for (int len = 1;; ++len) {
      ListNode* p = cur->prev;
      if (p == nullptr) return cur;
      if (len == maxTour_) return nullptr;
      visit(p);
      cur = p;
    }
  }

  /// Visit the entire tour containing `selfNode` and record its splice
  /// points relative to the self edge. False: a torn walk (see walkToMin).
  bool surveyTour(ListNode* selfNode, Splice& out) {
    out.selfNode = selfNode;
    out.smin = walkToMin(selfNode);
    if (out.smin == nullptr) return false;
    out.beforeSelfHead = out.smin->next;
    // Forward from self to the max sentinel.
    ListNode* cur = selfNode;
    ListNode* firstAfter = cur->next;
    visit(firstAfter);
    cur = firstAfter;
    for (int len = 2; cur->next.load() != nullptr; ++len) {
      if (len == maxTour_) return false;
      ListNode* nx = cur->next;
      visit(nx);
      cur = nx;
    }
    out.smax = cur;
    if (firstAfter == out.smax) {
      out.afterSelfHead = nullptr;  // L2 empty
      out.afterSelfTail = nullptr;
    } else {
      out.afterSelfHead = firstAfter;
      out.afterSelfTail = out.smax->prev;
    }
    return true;
  }

  // --- staged-write helpers (dedup version bumps across boundary nodes) ---
  // Scratch is thread-local: one DynConn operation per thread at a time.

  struct Bump {
    ListNode* node;
    bool mark;
  };
  static std::vector<Bump>& bumpScratch() {
    static thread_local std::vector<Bump> b;
    return b;
  }
  static std::vector<ListNode*>& freshScratch() {
    static thread_local std::vector<ListNode*> f;
    return f;
  }

  static void beginStaging(std::initializer_list<ListNode*> freshNodes) {
    bumpScratch().clear();
    auto& fresh = freshScratch();
    fresh.clear();
    fresh.insert(fresh.end(), freshNodes.begin(), freshNodes.end());
  }

  void bumpNode(ListNode* n) { queueBump(n, /*mark=*/false); }
  void markNode(ListNode* n) { queueBump(n, /*mark=*/true); }
  void queueBump(ListNode* n, bool mark) {
    if (isFresh(n)) return;  // unpublished: no version discipline needed yet
    for (auto& b : bumpScratch()) {
      if (b.node == n) {
        b.mark = b.mark || mark;
        return;
      }
    }
    bumpScratch().push_back({n, mark});
  }
  /// Emit one version entry per touched node, expecting the version the
  /// node was VISITED at. It must not be a fresher read: the KCAS lock an
  /// entry takes on a version word also passes that word's path validation
  /// (Algorithm 2 accepts its own lock), so an entry expecting a fresher
  /// version than the visit would let a commit built on a stale walk
  /// through, and corrupt the tours. False (re-traverse) when a touched
  /// node was not visited, was visited at two versions, or is deleted.
  bool flushBumps() {
    for (const auto& b : bumpScratch()) {
      const k::AtomicWord* const addr = b.node->ver.addr();
      std::optional<k::word_t> seen;
      bool torn = false;
      domain().forEachStagedPath([&](k::AtomicWord* a, k::word_t enc) {
        if (a != addr) return;
        torn = torn || (seen && *seen != enc);
        seen = enc;
      });
      if (!seen || torn) return false;
      const Version ver = pathcas::detail::decode<Version>(*seen);
      if (isMarked(ver)) return false;
      addVer(b.node->ver, ver, b.mark ? verMark(ver) : verBump(ver));
    }
    return true;
  }

  /// Stage a->next = b and b->prev = a (with old values read now).
  void linkPair(ListNode* a, ListNode* b) {
    add(a->next, a->next.load(), b);
    bumpNode(a);
    add(b->prev, b->prev.load(), a);
    bumpNode(b);
  }

  /// Stitch head -> segs[0] -> ... -> segs[n-1] -> tailSentinel.
  void stitch(ListNode* head, const Seg* segs, int n, ListNode* tailSent) {
    ListNode* prev = head;
    for (int i = 0; i < n; ++i) {
      stageNeighbors(prev, segs[i].head);
      prev = segs[i].tail;
    }
    stageNeighbors(prev, tailSent);
  }

  /// Like linkPair but tolerates brand-new (unpublished) nodes, whose
  /// pointers can be set directly.
  void stageNeighbors(ListNode* a, ListNode* b) {
    if (isFresh(a)) {
      a->next.setInitial(b);
    } else {
      add(a->next, a->next.load(), b);
      bumpNode(a);
    }
    if (isFresh(b)) {
      b->prev.setInitial(a);
    } else {
      add(b->prev, b->prev.load(), a);
      bumpNode(b);
    }
  }

  /// Fresh = allocated by the in-flight operation, tracked explicitly.
  static bool isFresh(ListNode* n) {
    for (auto* f : freshScratch()) {
      if (f == n) return true;
    }
    return false;
  }

  AdjFind findAdj(int v, int w) {
    AdjFind f;
    AdjNode* pred = nullptr;
    Version predVer = 0;
    AdjNode* cur = vertex(v).adjHead;
    while (cur != nullptr) {
      const Version cv = visit(cur);
      if (cur->nbr.load() == w) {
        f.node = cur;
        f.nodeVer = cv;
        f.pred = pred;
        f.predVer = predVer;
        return f;
      }
      pred = cur;
      predVer = cv;
      cur = cur->next;
    }
    return f;
  }

  void unlinkAdj(int v, const AdjFind& f) {
    AdjNode* const succ = f.node->next.load();
    if (f.pred == nullptr) {
      add(vertex(v).adjHead, f.node, succ);
    } else {
      add(f.pred->next, f.node, succ);
      addVer(f.pred->ver, f.predVer, verBump(f.predVer));
    }
    addVer(f.node->ver, f.nodeVer, verMark(f.nodeVer));
  }

  recl::EbrDomain& ebr_;
  recl::NodePool<ListNode>& listPool_;
  recl::NodePool<AdjNode>& adjPool_;
  std::vector<Vertex> vertices_;
  /// Nodes in the longest possible tour: n self edges, 2 (n - 1) edge
  /// nodes and 2 sentinels.
  const int maxTour_ = 3 * static_cast<int>(vertices_.size());
};

}  // namespace pathcas::ds
