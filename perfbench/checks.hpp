// The benchmark's output checks. Each one compares what a tree reported with
// what the benchmark computes on its own — from the key classes, its own
// value function and its own tally of successful updates — never with
// another answer from the tree. A check returns an empty string on success
// and a one-line reason on failure; selftest.cpp feeds each one a tampered
// input to show that none passes vacuously.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

using KV = std::pair<Key, Val>;

/// A contains() answer against the key classes: stable keys are always
/// present, absent keys never.
inline bool containsAnswerOk(std::uint32_t x, bool found) {
  switch (classOf(x)) {
    case KeyClass::kStable: return found;
    case KeyClass::kAbsent: return !found;
    default: return true;
  }
}

/// A scan (or a whole-tree walk) over key indices [lo, hi]: strictly
/// ascending, inside the range, each value equal to valueOf(key), every
/// stable key of the range present and no absent key.
inline std::string checkScan(std::uint32_t lo, std::uint32_t hi,
                             const std::vector<KV>& out) {
  const Key klo = keyOf(lo), khi = keyOf(hi);
  std::uint64_t stable = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Key k = out[i].first;
    if (k < klo || k > khi)
      return "scan key " + std::to_string(k) + " outside [" +
             std::to_string(klo) + ", " + std::to_string(khi) + "]";
    if (i > 0 && k <= out[i - 1].first)
      return "scan keys not strictly ascending at " + std::to_string(k);
    if (out[i].second != valueOf(k))
      return "scan value for key " + std::to_string(k) + " is not valueOf(key)";
    const KeyClass c = classOf(indexOf(k));
    if (c == KeyClass::kAbsent)
      return "scan returned absent-class key " + std::to_string(k);
    stable += (c == KeyClass::kStable);
  }
  if (stable != stableCount(lo, hi))
    return "scan returned " + std::to_string(stable) + " of " +
           std::to_string(stableCount(lo, hi)) + " stable keys";
  return {};
}

/// What a run left behind in one tree, gathered quiescently after it.
struct Outcome {
  std::vector<std::uint8_t> pre;        // prefilled?
  std::vector<std::int64_t> delta;      // successful inserts - erases (tally)
  std::vector<std::uint8_t> byContains; // contains(key) after the run
  std::vector<KV> walk;                 // forEach, in visiting order
  std::uint64_t size = 0;               // tree's size()
  std::int64_t keySum = 0;              // tree's keySum()
};

/// Per-key conservation: pre + delta must lie in {0, 1} and equal the key's
/// presence after the run, both as probed with contains and as found by the
/// walk; size() and keySum() must agree with the same tallies. The walk must
/// also pass checkScan over the whole key range.
inline std::string checkConservation(const Outcome& o) {
  const auto range = static_cast<std::uint32_t>(o.pre.size());
  if (std::string e = checkScan(0, range - 1, o.walk); !e.empty())
    return "walk: " + e;
  std::vector<std::uint8_t> byWalk(range, 0);
  for (const KV& kv : o.walk) byWalk[indexOf(kv.first)] = 1;
  std::uint64_t size = 0;
  std::int64_t keySum = 0;
  for (std::uint32_t x = 0; x < range; ++x) {
    const std::int64_t expect = o.pre[x] + o.delta[x];
    if (expect != 0 && expect != 1)
      return "key " + std::to_string(keyOf(x)) + ": prefill + tally = " +
             std::to_string(expect);
    if (o.byContains[x] != expect)
      return "key " + std::to_string(keyOf(x)) + ": contains says " +
             std::to_string(o.byContains[x]) + ", tally says " +
             std::to_string(expect);
    if (byWalk[x] != expect)
      return "key " + std::to_string(keyOf(x)) + ": walk says " +
             std::to_string(byWalk[x]) + ", tally says " +
             std::to_string(expect);
    size += expect;
    keySum += expect * keyOf(x);
  }
  if (o.size != size)
    return "size() " + std::to_string(o.size) + " != tally " +
           std::to_string(size);
  if (o.keySum != keySum)
    return "keySum() " + std::to_string(o.keySum) + " != tally " +
           std::to_string(keySum);
  return {};
}

/// Node conservation after a quiescent EbrDomain::drainAll(): the pool's
/// live count is exactly the reachable nodes plus the two sentinels.
inline std::string checkNodes(std::uint64_t poolLive, std::uint64_t walked) {
  if (poolLive == walked + 2) return {};
  return "pool live count " + std::to_string(poolLive) + " != " +
         std::to_string(walked) + " reachable nodes + 2 sentinels";
}

}  // namespace perfbench
