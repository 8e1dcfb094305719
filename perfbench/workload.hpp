// Workload definitions and seeded input generation for the same-host
// benchmark: the seeded prefill order, made before the clock starts, and
// one seeded operation generator per worker thread.
//
// Key space. Key index x in [0, range) maps to key x + 1. Each index has a
// fixed class, so the checks know an answer without asking the program:
//   x % 8 == 0  stable   prefilled, never inserted or erased
//   x % 8 == 1  absent   never prefilled, never inserted
//   otherwise   dynamic  half prefilled (seeded choice), then updated
// Updates drawn on a stable or absent index are moved to index x + 2, which
// is dynamic, so skew on the hottest keys carries over to updates.
// Prefill: all stable keys plus half the dynamic ones = range / 2 keys.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rand.hpp"

namespace perfbench {

using Key = std::int64_t;
using Val = std::int64_t;

enum class KeyClass : std::uint8_t { kStable, kAbsent, kDynamic };

inline KeyClass classOf(std::uint32_t x) {
  switch (x % 8) {
    case 0: return KeyClass::kStable;
    case 1: return KeyClass::kAbsent;
    default: return KeyClass::kDynamic;
  }
}
inline Key keyOf(std::uint32_t x) { return static_cast<Key>(x) + 1; }
inline std::uint32_t indexOf(Key k) { return static_cast<std::uint32_t>(k - 1); }
/// The value every insert stores under a key; scans and walks must carry it.
inline Val valueOf(Key k) {
  return static_cast<Val>(pathcas::mix64(static_cast<std::uint64_t>(k)) >> 4);
}
inline std::uint32_t toDynamic(std::uint32_t x) {
  return classOf(x) == KeyClass::kDynamic ? x : x + 2;
}
/// Stable indices in [lo, hi]: the multiples of 8 in that interval.
inline std::uint64_t stableCount(std::uint32_t lo, std::uint32_t hi) {
  return (hi / 8 + 1) - (static_cast<std::uint64_t>(lo) + 7) / 8;
}

enum Op : std::uint32_t { kContains = 0, kInsert = 1, kErase = 2, kScan = 3 };
/// One stream entry: op in the low 2 bits, key index (scan: lo) above.
inline std::uint32_t encodeOp(Op op, std::uint32_t x) { return (x << 2) | op; }
inline Op opOf(std::uint32_t code) { return static_cast<Op>(code & 3); }
inline std::uint32_t indexOfCode(std::uint32_t code) { return code >> 2; }

struct WorkloadSpec {
  const char* name;
  int logRange;      // key indices in [0, 2^logRange)
  double zipfTheta;  // 0 = uniform
  int permille[4];   // contains, insert, erase, scan (sum 1000)
  std::uint32_t scanWidth;  // key indices per rangeQuery
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"search-large", 20, 0.0, {990, 5, 5, 0}, 128},
    {"update-skew", 14, 0.99, {500, 250, 250, 0}, 128},
    {"scan-mix", 16, 0.0, {0, 50, 50, 900}, 128},
};

inline const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// Zipf(θ) over n ranks, sampled in O(1) from Vose's alias table; ranks are
/// then scrambled across the key space by a seeded permutation (YCSB's
/// "scrambled Zipfian", but bijective).
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint32_t n, double theta, std::uint64_t seed)
      : prob_(n), alias_(n), perm_(n) {
    std::vector<double> p(n);
    double sum = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      sum += p[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    std::vector<std::uint32_t> small, large;
    for (std::uint32_t i = 0; i < n; ++i) {
      p[i] *= n / sum;
      (p[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = p[s];
      alias_[s] = l;
      p[l] -= 1.0 - p[s];
      if (p[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : small) prob_[i] = 1.0;
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i = 0; i < n; ++i) perm_[i] = i;
    pathcas::Xoshiro256 rng(seed);
    for (std::uint32_t i = n - 1; i > 0; --i)
      std::swap(perm_[i], perm_[rng.nextBounded(i + 1)]);
  }
  std::uint32_t sample(pathcas::Xoshiro256& rng) const {
    const auto i = static_cast<std::uint32_t>(rng.nextBounded(prob_.size()));
    return perm_[rng.nextDouble() < prob_[i] ? i : alias_[i]];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<std::uint32_t> perm_;
};

/// Seed streams are derived from (seed, purpose, index), so the prefill and
/// each worker's operations are independent of one another.
inline std::uint64_t subSeed(std::uint64_t seed, std::uint64_t purpose,
                             std::uint64_t index) {
  return pathcas::mix64(seed * 0x9e3779b97f4a7c15ULL ^
                        pathcas::mix64(purpose * 1000003 + index));
}

/// One worker's seeded operation stream, drawn from the workload's mix and
/// key distribution. Generated as the loop runs (a few ns per op), so a
/// long run never replays operations whose outcome is already decided.
class OpGen {
 public:
  OpGen(const WorkloadSpec& w, const ScrambledZipf* zipf, std::uint32_t range,
        std::uint64_t seed)
      : w_(w), zipf_(zipf), range_(range), rng_(seed) {}

  std::uint32_t next() {
    const auto roll = static_cast<int>(rng_.nextBounded(1000));
    Op op = kContains;
    for (int acc = 0, o = 0; o < 4; ++o) {
      acc += w_.permille[o];
      if (roll < acc) {
        op = static_cast<Op>(o);
        break;
      }
    }
    if (op == kScan)
      return encodeOp(op, static_cast<std::uint32_t>(
                              rng_.nextBounded(range_ - w_.scanWidth + 1)));
    std::uint32_t x = zipf_ != nullptr
                          ? zipf_->sample(rng_)
                          : static_cast<std::uint32_t>(rng_.nextBounded(range_));
    if (op != kContains) x = toDynamic(x);
    return encodeOp(op, x);
  }

 private:
  WorkloadSpec w_;  // a copy: the traced run's bursts override the mix
  const ScrambledZipf* zipf_;
  std::uint32_t range_;
  pathcas::Xoshiro256 rng_;
};

struct Inputs {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::uint32_t range = 0;
  std::vector<std::uint8_t> pre;            // pre[x]: prefilled?
  std::vector<std::uint32_t> prefillOrder;  // seeded shuffle of prefilled x
  std::optional<ScrambledZipf> zipf;

  /// Worker t's operations; `purpose` separates the main mix from bursts.
  OpGen gen(int t, const WorkloadSpec& mix, std::uint64_t purpose) const {
    return OpGen(mix, zipf ? &*zipf : nullptr, range, subSeed(seed, purpose, t));
  }
};

inline Inputs makeInputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  in.spec = w;
  in.seed = seed;
  in.range = 1u << w.logRange;
  in.pre.assign(in.range, 0);

  pathcas::Xoshiro256 prng(subSeed(seed, 1, 0));
  std::vector<std::uint32_t> dyn;
  for (std::uint32_t x = 0; x < in.range; ++x) {
    if (classOf(x) == KeyClass::kStable) in.pre[x] = 1;
    if (classOf(x) == KeyClass::kDynamic) dyn.push_back(x);
  }
  for (std::size_t i = dyn.size() - 1; i > 0; --i)
    std::swap(dyn[i], dyn[prng.nextBounded(i + 1)]);
  for (std::size_t i = 0; i < dyn.size() / 2; ++i) in.pre[dyn[i]] = 1;
  for (std::uint32_t x = 0; x < in.range; ++x)
    if (in.pre[x]) in.prefillOrder.push_back(x);
  auto& order = in.prefillOrder;
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[prng.nextBounded(i + 1)]);
  if (w.zipfTheta > 0) in.zipf.emplace(in.range, w.zipfTheta, subSeed(seed, 2, 0));
  return in;
}

}  // namespace perfbench
