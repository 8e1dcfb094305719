// The closed loop: persistent worker threads that run their seeded
// operation streams against one tree at a time, for timed segments, then the
// quiescent checks of what the trees left behind.
//
// Each worker keeps its own tally per tree (successful inserts - erases per
// key, attempts, hits, wrong answers), so the loop shares nothing but the
// tree. A traced segment additionally samples every kSampleEvery-th
// operation as a span (start, duration, op, tree) into a preallocated
// per-thread buffer; the spans are written out after the run.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline constexpr int kSampleEvery = 64;
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

struct Span {
  std::uint64_t startNs;
  std::uint32_t durNs;
  std::uint8_t op;
  std::uint8_t tree;
};

struct SpanBuf {
  std::vector<Span> spans;  // reserved up front; full means stop recording
  int countdown = kSampleEvery;
};

/// Single-threaded, in the seeded order, so the BST's shape is a function
/// of the seed alone. False if an insert reported its key present.
template <class Tree>
bool prefill(Tree& tree, const Inputs& in) {
  for (std::uint32_t x : in.prefillOrder)
    if (!tree.insert(keyOf(x), valueOf(keyOf(x)))) return false;
  return true;
}

/// Per-thread counters for one tree.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t insAttempt = 0, insOk = 0;
  std::uint64_t eraAttempt = 0, eraOk = 0;
  std::uint64_t scans = 0, scanKeys = 0;
  std::uint64_t wrong = 0;  // answers that failed a check
  std::string firstWrong;
};

/// A tree under test, behind one virtual call per segment.
class Target {
 public:
  virtual ~Target() = default;
  virtual void run(int t, const std::atomic<bool>& stop, SpanBuf* trace) = 0;
};

template <class Tree>
class TreeTarget final : public Target {
 public:
  TreeTarget(std::uint8_t id, Tree& tree, const Inputs& in, int threads)
      : id_(id), tree_(tree), in_(in),
        delta_(threads, std::vector<std::int32_t>(in.range, 0)),
        tally_(threads) {
    useMix(in.spec, 3);
  }

  /// Draw every worker's operations afresh from `mix` (the traced run's
  /// bursts of op types the workload's own mix lacks use purpose 4).
  void useMix(const WorkloadSpec& mix, std::uint64_t purpose) {
    gens_.clear();
    for (std::size_t t = 0; t < tally_.size(); ++t)
      gens_.push_back(in_.gen(static_cast<int>(t), mix, purpose));
  }

  void run(int t, const std::atomic<bool>& stop, SpanBuf* trace) override {
    if (trace != nullptr)
      loop<true>(t, stop, trace);
    else
      loop<false>(t, stop, nullptr);
  }

  Tally total() const {
    Tally s;
    for (const auto& p : tally_) {
      const Tally& a = *p;
      s.ops += a.ops;
      s.insAttempt += a.insAttempt;
      s.insOk += a.insOk;
      s.eraAttempt += a.eraAttempt;
      s.eraOk += a.eraOk;
      s.scans += a.scans;
      s.scanKeys += a.scanKeys;
      s.wrong += a.wrong;
      if (s.firstWrong.empty()) s.firstWrong = a.firstWrong;
    }
    return s;
  }

  /// Quiescent: gather the tree's final state for checkConservation. The
  /// contains probe runs on `threads` threads (it is the slow part).
  Outcome outcome(int threads) {
    Outcome o;
    o.pre = in_.pre;
    o.delta.assign(in_.range, 0);
    for (const auto& d : delta_)
      for (std::uint32_t x = 0; x < in_.range; ++x) o.delta[x] += d[x];
    o.byContains.assign(in_.range, 0);
    std::vector<std::thread> probes;
    for (int t = 0; t < threads; ++t) {
      probes.emplace_back([&, t] {
        pathcas::ThreadGuard guard;
        for (std::uint32_t x = t; x < in_.range; x += threads)
          o.byContains[x] = tree_.contains(keyOf(x));
      });
    }
    for (auto& th : probes) th.join();
    if constexpr (requires { tree_.forEach([](Key, Val) {}); }) {
      tree_.forEach([&](Key k, Val v) { o.walk.emplace_back(k, v); });
    } else {
      tree_.rangeQuery(keyOf(0), keyOf(in_.range - 1), o.walk);
    }
    o.size = tree_.size();
    o.keySum = tree_.keySum();
    return o;
  }

 private:
  template <bool Traced>
  void loop(int t, const std::atomic<bool>& stop, SpanBuf* trace) {
    OpGen& gen = gens_[t];
    std::int32_t* delta = delta_[t].data();
    Tally& tally = *tally_[t];
    std::vector<KV> out;
    out.reserve(2 * in_.spec.scanWidth);
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 16; ++i) {
        const std::uint32_t code = gen.next();
        if constexpr (Traced) {
          if (--trace->countdown == 0) {
            trace->countdown = kSampleEvery;
            const std::uint64_t t0 = nowNs();
            apply(code, delta, tally, out);
            const std::uint64_t t1 = nowNs();
            if (trace->spans.size() < trace->spans.capacity())
              trace->spans.push_back({t0, static_cast<std::uint32_t>(t1 - t0),
                                      static_cast<std::uint8_t>(opOf(code)),
                                      id_});
            continue;
          }
        }
        apply(code, delta, tally, out);
      }
      ops += 16;
    }
    tally.ops += ops;
  }

  void apply(std::uint32_t code, std::int32_t* delta, Tally& tally,
             std::vector<KV>& out) {
    const std::uint32_t x = indexOfCode(code);
    const Key k = keyOf(x);
    switch (opOf(code)) {
      case kContains: {
        const bool found = tree_.contains(k);
        if (!containsAnswerOk(x, found))
          wrong(tally, "contains(" + std::to_string(k) + ") = " +
                           std::to_string(found) + " on a fixed-class key");
        break;
      }
      case kInsert:
        ++tally.insAttempt;
        if (tree_.insert(k, valueOf(k))) {
          ++tally.insOk;
          ++delta[x];
        }
        break;
      case kErase:
        ++tally.eraAttempt;
        if (tree_.erase(k)) {
          ++tally.eraOk;
          --delta[x];
        }
        break;
      case kScan: {
        const std::uint32_t hi = x + in_.spec.scanWidth - 1;
        out.clear();
        tree_.rangeQuery(k, keyOf(hi), out);
        ++tally.scans;
        tally.scanKeys += out.size();
        if (std::string e = checkScan(x, hi, out); !e.empty())
          wrong(tally, "rangeQuery: " + e);
        break;
      }
    }
  }

  static void wrong(Tally& tally, std::string what) {
    if (tally.wrong++ == 0) tally.firstWrong = std::move(what);
  }

  const std::uint8_t id_;
  Tree& tree_;
  const Inputs& in_;
  std::vector<std::vector<std::int32_t>> delta_;
  std::vector<pathcas::Padded<Tally>> tally_;
  std::vector<OpGen> gens_;  // per worker; carried across segments
};

/// Persistent closed-loop workers. segment() runs every worker on one target
/// for a fixed wall time and returns the measured window in seconds.
class Workers {
 public:
  explicit Workers(int threads)
      : threads_(threads), start_(threads + 1), done_(threads + 1),
        traces_(threads) {
    for (int t = 0; t < threads; ++t)
      pool_.emplace_back([this, t] { work(t); });
  }
  ~Workers() {
    quit_ = true;
    start_.arrive_and_wait();
    for (auto& th : pool_) th.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  double segment(Target& target, bool traced, double seconds) {
    target_ = &target;
    traced_ = traced;
    stop_.store(false, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    start_.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop_.store(true, std::memory_order_relaxed);
    done_.arrive_and_wait();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void enableTracing() {
    for (auto& tb : traces_) tb.spans.reserve(kSpanCapacity);
  }
  const std::vector<SpanBuf>& traces() const { return traces_; }
  int threads() const { return threads_; }

 private:
  void work(int t) {
    pathcas::ThreadGuard guard;
    for (;;) {
      start_.arrive_and_wait();
      if (quit_) return;
      target_->run(t, stop_, traced_ ? &traces_[t] : nullptr);
      done_.arrive_and_wait();
    }
  }

  const int threads_;
  std::barrier<> start_, done_;
  std::atomic<bool> stop_{false};
  // Written by the main thread before start_ completes; the barrier orders
  // them before every worker's read.
  Target* target_ = nullptr;
  bool traced_ = false;
  bool quit_ = false;
  std::vector<SpanBuf> traces_;
  std::vector<std::thread> pool_;  // joined by the destructor
};

}  // namespace perfbench
