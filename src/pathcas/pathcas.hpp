// The PathCAS primitive (§3): the user-facing start / read / add / visit /
// validate / exec / vexec interface, the strong-vexec slow path (§3.5), and
// the HTM fast path (Algorithm 7) over the htm facade.
//
// Typical data-structure update (cf. Algorithm 4):
//
//   pathcas::start();
//   ... traverse, calling pathcas::visit(node) on every node read ...
//   pathcas::add(parent->left, expectedChild, newChild);
//   pathcas::addVer(parent->ver, v, v + 2);       // version increment
//   if (pathcas::vexec()) return true;            // atomic iff path unchanged
//
// Read-only multi-node snapshot (a range scan):
//
//   pathcas::start();
//   ... traverse, visit every node examined, collect matching keys ...
//   if (pathcas::validateVisited()) return keys;  // atomic snapshot
//   ... else discard and re-traverse ...
//
// validateVisited() is vexec without the writes: bounded optimistic retries,
// then the §3.5 strong path over the visited set, so scans inherit P1's
// no-spurious-failure guarantee. The visited set is bounded by kMaxVisited.
//
// Version-number convention (§3.3): every node carries a
// casword<std::uint64_t> named `ver`; bit 0 is the mark bit. Live updates
// increment by 2; unlink+mark adds 1 (kVerMark helpers below).
//
// All functions operate on the calling thread's (reused) descriptor in the
// process-wide KcasDomain.
//
// Usage requirements:
//  * Threads register with ThreadRegistry lazily on first use; at most
//    kMaxThreads (256) may be registered at once. Short-lived worker threads
//    should hold a pathcas::ThreadGuard so their ids recycle.
//  * A staged operation (start/add/addVer/visit) lives in the calling
//    thread's private staging area: one in-flight operation per thread, and
//    the exec()/vexec() that consumes it must run on the staging thread.
//    start() discards any previously staged state.
//  * Lifetime of targets: a casword handed to add()/visit() must stay mapped
//    until no helper can still hold a descriptor reference to it. Unlink a
//    node and mark its version in the same vexec, then retire it through
//    recl::EbrDomain::retire(p, pool) — never delete or recycle directly;
//    when the grace period expires the node's slot is handed back to its
//    recl::NodePool for reuse (recl/pool.hpp). Traverse only while pinned
//    by a recl::Guard. Nodes that were never published (a spare built for
//    an insert that lost, a replacement staged in a failed vexec) may be
//    recycled immediately with NodePool::destroy().
#pragma once

#include <cstdint>

#include "htm/htm.hpp"
#include "kcas/domain.hpp"
#include "kcas/kcas.hpp"
#include "pathcas/casword.hpp"
#include "util/backoff.hpp"

namespace pathcas {

using Version = std::uint64_t;

inline bool isMarked(Version v) { return v & 1; }
/// A version bumped for a surviving (modified) node.
inline Version verBump(Version v) { return v + 2; }
/// A version bumped+marked for a node being unlinked.
inline Version verMark(Version v) { return v + 1; }

/// Concept for nodes usable with visit(): any type with a `ver` casword.
template <typename Node>
concept Versioned = requires(Node n) {
  { n.ver } -> std::convertible_to<const casword<Version>&>;
};

/// The KCAS domain this thread's PathCAS calls operate on: the innermost
/// active k::ScopedDomain, falling back to the process-wide default
/// (kcas/domain.hpp). Sharded structures scope each operation to the owning
/// shard's domain; everything else keeps the paper's single-domain setup.
inline k::DefaultDomain& domain() { return k::currentDomain(); }

/// Begin gathering arguments for a PathCAS (wait-free).
inline void start() { domain().begin(); }

/// read(addr): returns the logical value, helping in-flight operations.
/// (casword<T>'s implicit conversion calls this; provided for explicitness.)
template <typename T>
T read(const casword<T>& w) {
  return w.load();
}

/// add(addr, old, new): stage an address to be changed atomically (wait-free).
template <typename T>
void add(casword<T>& w, T oldV, T newV) {
  domain().addEntry(w.addr(), detail::encode(oldV), detail::encode(newV));
}

/// Stage a *version word* change. Semantically identical to add(); the HTM
/// fast path additionally writes version entries around the data entries
/// (an odd in-flight value before, the new value after), so concurrent
/// validated readers racing an emulated transaction never pair a version
/// with data it does not cover (see docs/ARCHITECTURE.md, "HTM emulation").
inline void addVer(casword<Version>& w, Version oldV, Version newV) {
  domain().addVerEntry(w.addr(), detail::encode(oldV), detail::encode(newV));
}

/// visit(n): record n's version in the path; returns the version observed
/// (mark bit included, as in the paper).
inline Version visitVer(const casword<Version>& ver) {
  auto* addr = const_cast<k::AtomicWord*>(ver.addr());
  const k::word_t enc = domain().readEncoded(addr);
  domain().addPath(addr, enc);
  return detail::decode<Version>(enc);
}

template <Versioned Node>
Version visit(Node* n) {
  return visitVer(n->ver);
}

/// Prefetch the node a casword<Node*> currently points at (PATHCAS_PREFETCH
/// in util/defs.hpp). The pointer is sampled with a raw relaxed load — it may
/// be mid-flight or immediately stale — which is fine for a hint: traversals
/// must still re-read the child through the casword AFTER visiting its
/// parent (the version must be recorded before any dependent data read), and
/// a word holding a descriptor is simply skipped.
template <typename T>
inline void prefetch(const casword<T*>& w) {
  const k::word_t raw = w.addr()->load(std::memory_order_relaxed);
  if (!k::isDescriptor(raw)) {
    PATHCAS_PREFETCH(reinterpret_cast<const void*>(
        static_cast<std::int64_t>(raw) >> 2));
  }
}

/// validate(): true iff no visited node has changed (or was marked) since it
/// was visited. May fail spuriously (visited node locked by an in-flight
/// operation).
inline bool validate() { return domain().validateStaged(); }

/// Capacity of one operation's visited set. Traversals that would visit more
/// nodes (e.g. a range scan wider than ~kMaxVisited keys, or a full walk of
/// a list longer than that) are out of contract, exactly as in the paper's
/// footnote 2: bound the scan, or over-allocate the domain.
inline constexpr int kMaxVisited = k::DefaultDomain::kMaxPath;

namespace policy {
/// Bounded retries for spuriously-failed vexec before the strong slow path.
inline constexpr int kVexecRetries = 3;
/// Bounded transaction attempts before the fast path gives up (Alg. 7).
inline constexpr int kHtmRetries = 5;
}  // namespace policy

namespace fastpath {

/// One transaction attempt of Algorithm 7 over the staged operation.
/// Returns kNone (committed), kOld (genuine failure), or a retryable code.
htm::Abort attempt(bool withValidation);

}  // namespace fastpath

namespace detail_exec {

/// Shared execution core. fast=true adds the HTM fast path in front and
/// serializes the software fallback on the htm global lock (required for the
/// emulated backend; harmless with real RTM).
inline k::ExecResult executeOnce(bool withValidation, bool fast) {
  if (fast) {
    for (int tries = 0; tries < policy::kHtmRetries; ++tries) {
      const htm::Abort a = fastpath::attempt(withValidation);
      if (a == htm::Abort::kNone) return k::ExecResult::kSucceeded;
      if (a == htm::Abort::kOld) return k::ExecResult::kFailedValue;
      if (a == htm::Abort::kDescriptor) break;  // slow path resolves it
    }
    htm::noteFallback();
    htm::globalLock().lock();
    const k::ExecResult r = domain().execute(withValidation);
    htm::globalLock().unlock();
    return r;
  }
  return domain().execute(withValidation);
}

inline bool vexecImpl(bool fast) {
  Backoff backoff;
  for (int attempt = 0; attempt <= policy::kVexecRetries; ++attempt) {
    const k::ExecResult r = executeOnce(/*withValidation=*/true, fast);
    if (r == k::ExecResult::kSucceeded) return true;
    if (r == k::ExecResult::kFailedValue) return false;
    // Validation failed. Distinguish genuine (a visited version changed:
    // another operation succeeded; P1 satisfied by returning false) from
    // spurious (a visited node merely held a descriptor).
    if (!domain().validateStaged() && !domain().pathBlockedByDescriptor())
      return false;
    backoff.pause();
  }
  // A marked visited version can never validate; the strong path below
  // skips validation, so committing would link into an unlinked node.
  if (domain().stagedMarkDoomed()) return false;
  // Strong vexec (§3.5): promote all visited ⟨node,ver⟩ pairs to
  // ⟨node.ver, v, v⟩ entries and run a plain exec, locking the versions of
  // every visited node instead of validating them. Sorting (inside execute)
  // restores lock-freedom's global order; duplicates with real entries are
  // dropped in favour of the real entry.
  domain().promotePathToEntries();
  return executeOnce(/*withValidation=*/false, fast) ==
         k::ExecResult::kSucceeded;
}

/// Read-only counterpart of vexecImpl for operations with no staged entries
/// (range scans): establish that the visited set was atomic, without
/// modifying anything. Optimistic validation with bounded retries; if every
/// failure was spurious (a visited node merely held a descriptor), fall back
/// to the §3.5 strong path — promote the path to ⟨ver, v, v⟩ entries and run
/// a plain exec, which momentarily locks every visited version at its
/// observed value. Success proves all visited versions held simultaneously
/// at the exec's linearization point, so scans cannot starve behind a stream
/// of spurious conflicts. `fast` must match the structure's update mode
/// (HTM-fast-path structures must serialize the fallback on the htm global
/// lock, like their updates do).
inline bool validateVisitedImpl(bool fast) {
  Backoff backoff;
  for (int attempt = 0; attempt <= policy::kVexecRetries; ++attempt) {
    if (domain().validateStaged()) return true;
    // Genuine failure (a visited version changed or was marked): the caller
    // must re-traverse. Note the descriptor probe races the validation — a
    // blocking descriptor may resolve in between, in which case we return a
    // conservative false and the caller retries; never a false positive.
    if (!domain().pathBlockedByDescriptor()) return false;
    backoff.pause();
  }
  if (domain().stagedMarkDoomed()) return false;
  domain().promotePathToEntries();
  return executeOnce(/*withValidation=*/false, fast) ==
         k::ExecResult::kSucceeded;
}

}  // namespace detail_exec

/// exec(): KCAS over the added addresses; visited nodes are NOT validated.
inline bool exec() {
  domain().clearPath();
  return detail_exec::executeOnce(false, false) == k::ExecResult::kSucceeded;
}

/// vexec(): exec only if no visited node changed. Spurious validation
/// failures are retried a bounded number of times, then resolved through the
/// strong slow path, guaranteeing property P1 (§3.5).
inline bool vexec() { return detail_exec::vexecImpl(false); }

/// validateVisited(): vexec's read-only sibling, for operations that stage
/// no entries (range scans, multi-key reads). Returns true iff the visited
/// set formed an atomic snapshot: optimistic validate with bounded retries,
/// then the §3.5 strong path (lock every visited version at its observed
/// value via a plain exec), so scans cannot starve on spurious conflicts.
/// False means a visited node genuinely changed — re-traverse and retry.
/// Note: consumes the staged operation (the strong path may rewrite the
/// staging area); call start() before the next traversal, as usual.
inline bool validateVisited() { return detail_exec::validateVisitedImpl(false); }

/// Fast-path variants used by the *-pathcas+ data structures: an HTM (or
/// emulated-HTM) transaction attempts the whole operation first.
inline bool execFast() {
  domain().clearPath();
  return detail_exec::executeOnce(false, true) == k::ExecResult::kSucceeded;
}
inline bool vexecFast() { return detail_exec::vexecImpl(true); }
inline bool validateVisitedFast() {
  return detail_exec::validateVisitedImpl(true);
}

namespace fastpath {

/// The value a version word holds while an emulated transaction writes the
/// data it covers: odd, so it reads as marked (validates against nothing),
/// and between the old and new versions, so versions stay monotonic. A
/// version being marked is its own in-flight value.
inline k::word_t inFlight(k::word_t oldEnc, k::word_t newEnc) {
  const k::word_t oldV = k::decodeVal(oldEnc);
  const k::word_t newV = k::decodeVal(newEnc);
  return (newV & 1) || newV <= oldV + 1 ? newEnc : k::encodeVal(newV - 1);
}

inline htm::Abort attempt(bool withValidation) {
  auto& dom = domain();
  return htm::run([&](htm::Tx& tx) {
    // Validation (Algorithm 7 line 4): raw reads; any descriptor forces the
    // slow path (we cannot know the logical value), any changed version is a
    // genuine failure.
    if (withValidation) {
      dom.forEachStagedPath([&](k::AtomicWord* addr, k::word_t expected) {
        const k::word_t cur = k::DefaultDomain::loadRaw(addr);
        if (k::isDescriptor(cur)) tx.abort(htm::Abort::kDescriptor);
        if (cur != expected || (k::decodeVal(expected) & 1))
          tx.abort(htm::Abort::kOld);
      });
    }
    // Check every added address holds its old value (lines 5-10).
    dom.forEachStagedEntry([&](k::AtomicWord* addr, k::word_t oldEnc,
                               k::word_t, bool) {
      const k::word_t cur = k::DefaultDomain::loadRaw(addr);
      if (cur == oldEnc) return;
      tx.abort(k::isDescriptor(cur) ? htm::Abort::kDescriptor
                                    : htm::Abort::kOld);
    });
    // Write new values (lines 11-13). Under emulation lock-free readers see
    // these stores one at a time, so they go in three passes, seqlock-style:
    // changed version words first take an odd in-flight value (inFlight),
    // then the data words, then the versions their final value. A reader
    // that saw new data sees at least the in-flight version, so its
    // validation fails; a reader that saw a final version sees all the
    // data. With versions written only once, first, a reader could visit a
    // node at its NEW version, then read its OLD child pointer, and commit a
    // §4.1 reduced-validation exec against that torn view (an erase of a
    // "leaf" that had just gained a child, losing the child). Real RTM
    // publishes every store at commit, so it skips the in-flight pass.
    int firstPass = 0;
#if defined(PATHCAS_HAVE_RTM)
    if (htm::rtmAvailable()) firstPass = 1;
#endif
    for (int pass = firstPass; pass < 3; ++pass) {
      dom.forEachStagedEntry([&](k::AtomicWord* addr, k::word_t oldEnc,
                                 k::word_t newEnc, bool isVer) {
        if (isVer != (pass != 1) || (isVer && oldEnc == newEnc)) return;
        addr->store(pass == 0 ? inFlight(oldEnc, newEnc) : newEnc,
                    std::memory_order_release);
      });
    }
  });
}

}  // namespace fastpath

}  // namespace pathcas
