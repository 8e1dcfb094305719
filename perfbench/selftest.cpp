// Self-tests of the benchmark's own checks (checks.hpp). Each checker first
// sees genuine outputs from a short real run and must pass them; then it
// sees a tampered copy and must report failure — so no check is vacuous.
//
//   python3 perfbench/run.py --selftest     (or the built perfbench_selftest)
//
// Exit code 0 iff every genuine input passes and every tampered one fails.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/int_avl_pathcas.hpp"

namespace {

using namespace perfbench;
namespace pc = pathcas;
using Avl = pc::ds::IntAvlPathCas<Key, Val>;

int failures = 0;

void expect(bool passes, const std::string& err, const char* what) {
  const bool ok = passes ? err.empty() : !err.empty();
  std::printf("%s  %-52s %s\n", ok ? "ok  " : "FAIL", what,
              err.empty() ? "(passes)" : err.c_str());
  failures += !ok;
}

}  // namespace

int main() {
  // A short genuine run: update-skew's mix on a 2^10 key range, 2 threads.
  WorkloadSpec w = *findWorkload("update-skew");
  w.logRange = 10;
  const int threads = 2;
  const Inputs in = makeInputs(w, 7);
  auto& ebr = pc::recl::EbrDomain::instance();
  pc::recl::NodePool<Avl::Node> pool;
  Avl tree({}, ebr, &pool);
  if (!prefill(tree, in)) return 1;
  TreeTarget<Avl> target(0, tree, in, threads);
  Outcome genuine;
  {
    Workers workers(threads);
    workers.segment(target, false, 0.05);
    genuine = target.outcome(threads);
  }
  std::printf("genuine run: %llu ops\n",
              static_cast<unsigned long long>(target.total().ops));

  // --- per-key conservation ----------------------------------------------
  expect(true, checkConservation(genuine), "conservation: genuine outcome");
  {
    // Drop one successful insert from the tally: a key that was absent at
    // prefill and is present now must have had one.
    Outcome o = genuine;
    std::uint32_t x = 0;
    while (x < in.range && !(o.pre[x] == 0 && o.byContains[x] == 1)) ++x;
    if (x == in.range) {
      std::printf("FAIL  no key gained by an insert in the genuine run\n");
      ++failures;
    } else {
      --o.delta[x];
      expect(false, checkConservation(o),
             "conservation: tally missing one successful insert");
    }
  }
  {
    Outcome o = genuine;
    o.size += 1;
    expect(false, checkConservation(o), "conservation: size() one off");
  }
  {
    Outcome o = genuine;
    o.walk.pop_back();
    expect(false, checkConservation(o), "conservation: walk missing a key");
  }

  // --- scans ---------------------------------------------------------------
  const std::uint32_t lo = 64, hi = lo + w.scanWidth - 1;
  std::vector<KV> scan;
  tree.rangeQuery(keyOf(lo), keyOf(hi), scan);
  expect(true, checkScan(lo, hi, scan), "scan: genuine result");
  {
    auto s = scan;
    s.emplace_back(keyOf(hi + 1), valueOf(keyOf(hi + 1)));
    expect(false, checkScan(lo, hi, s), "scan: key outside [lo, hi]");
  }
  {
    auto s = scan;
    std::swap(s[0], s[1]);
    expect(false, checkScan(lo, hi, s), "scan: keys out of order");
  }
  {
    auto s = scan;
    s[0].second ^= 1;
    expect(false, checkScan(lo, hi, s), "scan: value not valueOf(key)");
  }
  {
    auto s = scan;
    s.erase(s.begin());  // keyOf(lo) is a stable key: always present
    expect(false, checkScan(lo, hi, s), "scan: stable key missing");
  }
  {
    auto s = scan;
    s.insert(s.begin() + 1, {keyOf(lo + 1), valueOf(keyOf(lo + 1))});
    expect(false, checkScan(lo, hi, s), "scan: absent-class key present");
  }
  expect(true, containsAnswerOk(lo, true) ? "" : "rejected",
         "contains: stable key found");
  expect(false, containsAnswerOk(lo, false) ? "" : "stable key missing",
         "contains: stable key reported missing");
  expect(false, containsAnswerOk(lo + 1, true) ? "" : "absent key found",
         "contains: absent key reported present");

  // --- node conservation ---------------------------------------------------
  ebr.drainAll();
  const std::uint64_t walked = tree.checkInvariants().nodeCount;
  expect(true, checkNodes(pool.liveCount(), walked), "nodes: genuine counts");
  expect(false, checkNodes(pool.liveCount() + 1, walked),
         "nodes: pool live count one high");
  expect(false, checkNodes(pool.liveCount() - 1, walked),
         "nodes: pool live count one low");

  std::printf("%s\n", failures == 0 ? "selftest: all checks discriminate"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
