// Per-layer probes for the traced run: each calls one layer's public
// functions directly, on private memory, with shapes taken from the
// workload (path length = the trees' measured average key depth, scan
// visited set = the measured scan size). They run single-threaded on
// cache-resident nodes except the contended vexec probe, so they isolate a
// layer's CPU cost from the trees' cache misses.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace perfbench {

namespace pc = pathcas;

struct alignas(pc::kCacheLine) ProbeNode {
  pc::casword<pc::Version> ver;
  pc::casword<std::int64_t> val;
  pc::casword<ProbeNode*> child;
};

struct ProbeResults {
  double visitNs = 0, validateNs = 0, vexecInsertNs = 0, vexecEraseNs = 0;
  double vexecContendedNs = 0, vexecContendedCommitRatio = 0;
  double validateVisitedNs = 0;
  double execK1Ns = 0, execK2Ns = 0, execK4Ns = 0;
  double pinNs = 0, allocDestroyNs = 0, retireNs = 0;
  std::uint64_t failures = 0;  // uncontended commits that did not commit
};

/// Median over 7 repetitions of the per-iteration time of f(), in ns.
template <class F>
double nsPerIter(long iters, F&& f) {
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) f();
    reps.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                       .count() /
                   static_cast<double>(iters));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// `pathLen`: visited nodes per tree op; `scanVisited`: per scan;
/// `threads`: workers for the contended probe.
inline ProbeResults runProbes(int pathLen, int scanVisited, int threads) {
  ProbeResults r;
  pathLen = std::clamp(pathLen, 1, pc::kMaxVisited - 2);
  scanVisited = std::clamp(scanVisited, 1, pc::kMaxVisited - 2);
  const int n = std::max(pathLen, scanVisited) + 2;
  std::unique_ptr<ProbeNode[]> nodes(new ProbeNode[n]);
  ProbeNode spare;
  auto visitPath = [&](int len) {
    for (int i = 0; i < len; ++i) pc::visit(&nodes[i]);
  };

  // --- pathcas ---------------------------------------------------------
  r.visitNs = nsPerIter(20000, [&] {
                pc::start();
                visitPath(pathLen);
              }) /
              pathLen;
  pc::start();
  visitPath(pathLen);
  r.validateNs = nsPerIter(200000, [&] {
    if (!pc::validate()) ++r.failures;
  });
  pc::start();
  visitPath(scanVisited);
  r.validateVisitedNs = nsPerIter(50000, [&] {
    if (!pc::validateVisited()) ++r.failures;
  });
  // Insert shape: path of pathLen, then swing the last node's child pointer
  // and bump its version (k = 2). Erase shape: one more visited node (the
  // victim), whose version changes too (k = 3); it is bumped rather than
  // marked so the probe can repeat.
  auto vexecShape = [&](int len, bool erase) {
    ProbeNode& parent = nodes[len - 1];
    return nsPerIter(20000, [&] {
      pc::start();
      visitPath(len);
      ProbeNode* cur = parent.child;
      pc::add(parent.child, cur, cur == nullptr ? &spare : nullptr);
      const pc::Version pv = parent.ver;
      pc::addVer(parent.ver, pv, pc::verBump(pv));
      if (erase) {
        const pc::Version vv = pc::visit(&nodes[len]);
        pc::addVer(nodes[len].ver, vv, pc::verBump(vv));
      }
      if (!pc::vexec()) ++r.failures;
    });
  };
  r.vexecInsertNs = vexecShape(pathLen, false);
  r.vexecEraseNs = vexecShape(pathLen, true);

  // --- kcas: exec over k words in distinct nodes (k = 1 is the plain-CAS
  // fast path; k >= 2 publishes a descriptor) ------------------------------
  auto execK = [&](int k) {
    return nsPerIter(100000, [&] {
      pc::start();
      for (int i = 0; i < k; ++i) {
        const std::int64_t v = nodes[i].val;
        pc::add(nodes[i].val, v, v + 1);
      }
      if (!pc::exec()) ++r.failures;
    });
  };
  r.execK1Ns = execK(1);
  r.execK2Ns = execK(2);
  r.execK4Ns = execK(4);

  // --- recl --------------------------------------------------------------
  auto& ebr = pc::recl::EbrDomain::instance();
  {
    pc::recl::NodePool<ProbeNode> pool;
    r.pinNs = nsPerIter(200000, [&] { auto g = ebr.pin(); });
    r.allocDestroyNs = nsPerIter(200000, [&] { pool.destroy(pool.alloc()); });
    r.retireNs = nsPerIter(100000, [&] {
      auto g = ebr.pin();
      ebr.retire(pool.alloc(), pool);
    });
    ebr.drainAll();  // no limbo record may outlive the pool
  }

  // --- contended vexec: `threads` workers on 8 hot nodes behind a shared
  // root, each op an insert-shaped vexec on a random hot node ------------
  constexpr int kHot = 8;
  std::unique_ptr<ProbeNode[]> hot(new ProbeNode[kHot + 1]);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> attempts(threads), commits(threads);
  std::vector<double> busyNs(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      pc::ThreadGuard guard;
      pc::Xoshiro256 rng(0x5eed + t);
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      std::uint64_t a = 0, c = 0;
      const auto t0 = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        ProbeNode& h = hot[1 + rng.nextBounded(kHot)];
        pc::start();
        pc::visit(&hot[0]);
        const pc::Version v = pc::visit(&h);
        const std::int64_t val = h.val;
        pc::add(h.val, val, val + 1);
        pc::addVer(h.ver, v, pc::verBump(v));
        c += pc::vexec();
        ++a;
      }
      busyNs[t] =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      attempts[t] = a;
      commits[t] = c;
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& th : pool) th.join();
  double busy = 0, a = 0, c = 0;
  for (int t = 0; t < threads; ++t) {
    busy += busyNs[t];
    a += static_cast<double>(attempts[t]);
    c += static_cast<double>(commits[t]);
  }
  r.vexecContendedNs = busy / std::max(a, 1.0);
  r.vexecContendedCommitRatio = c / std::max(a, 1.0);
  return r;
}

}  // namespace perfbench
