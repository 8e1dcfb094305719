// Same-host benchmark of the PathCAS BST and AVL (src/trees/).
//
//   perfbench --workload <search-large|update-skew|scan-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>] [--reference]
//
// One process: make the seeded inputs, construct and prefill both trees
// (timed: setup_s), then alternate timed closed-loop segments between them
// (BST, AVL, AVL, BST, ... so drift hits both alike) on min(nproc, 4)
// workers, then check every output against the benchmark's own tallies.
// The last stdout line is the result object. --trace 0 reports the
// end-to-end metrics; --trace 1 interleaves traced and untraced segments and
// reports the per-layer metrics (README.md has the full list).
// --reference runs ext-bst-lf alone through the same loop (README only).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "trees/ellen_bst.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"

namespace {

using namespace perfbench;
namespace pc = pathcas;

using Bst = pc::ds::IntBstPathCas<Key, Val>;
using Avl = pc::ds::IntAvlPathCas<Key, Val>;
using Ellen = pc::ds::EllenBst<Key, Val>;

constexpr int kSegmentsPerCell = 10;  // per tree (and per trace mode)
constexpr double kBurstSeconds = 0.25;
const char* const kOpName[4] = {"contains", "insert", "erase", "range_query"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool reference = false;
  std::string traceDir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--reference]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--reference") {
      a.reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (f == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 3600))
        usage("--seconds takes a number in (0, 3600]");
    } else if (f == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (f == "--trace-dir") {
      a.traceDir = v;
    } else {
      usage(("unknown flag " + f).c_str());
    }
  }
  if (findWorkload(a.workload) == nullptr) usage("unknown --workload");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<std::uint64_t>(den, 1));
}

/// Accumulates "name": {"value": v, "unit": u} pairs for the result line,
/// echoing each as a readable row.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    std::printf("  %-40s %14s %s\n", name.c_str(), buf, unit);
  }
  void print(bool correct, std::uint64_t attempted) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted), body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

/// Collects check failures; the run is correct iff none was recorded.
struct Verdict {
  bool ok = true;
  void fail(const std::string& who, const std::string& what) {
    if (what.empty()) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", who.c_str(), what.c_str());
  }
};

/// The output checks shared by every tree: wrong answers seen in the loop,
/// then per-key conservation against the tallies. Quiescent.
template <class Tree>
void checkOutputs(const std::string& name, TreeTarget<Tree>& target,
                  int threads, Verdict& verdict) {
  const Tally tally = target.total();
  if (tally.wrong != 0)
    verdict.fail(name, std::to_string(tally.wrong) +
                           " wrong answers, first: " + tally.firstWrong);
  verdict.fail(name, checkConservation(target.outcome(threads)));
}

/// State of a PathCAS tree after its last timed segment (quiescent).
struct EndState {
  pc::ds::TreeStats stats;
  double footprintPerKey = 0;  // everything the pool holds / key
  std::uint64_t limbo = 0;     // retired, not yet recycled
};

/// A PathCAS tree under test with its private pool and, after set-up, its
/// closed-loop target. Type-erased so the run can alternate BST and AVL.
class Subject {
 public:
  Subject(std::uint8_t treeId, const char* treeName)
      : id(treeId), name(treeName) {}
  virtual ~Subject() = default;
  virtual bool prefill(const Inputs& in) = 0;
  virtual void attach(const Inputs& in, int threads) = 0;
  virtual Target& target() = 0;
  virtual Tally total() const = 0;
  virtual void useMix(const WorkloadSpec& mix, std::uint64_t purpose) = 0;
  virtual pc::recl::PoolStats poolStats() const = 0;
  /// (reachable + limbo) node bytes per live key, the count of live keys
  /// taken from the tallies (exact while the workers are idle).
  virtual double bytesPerKey(std::size_t prefilled) const = 0;
  virtual EndState endState() const = 0;
  /// Every output check; drains the EBR domain before the node count.
  virtual void check(int threads, Verdict& verdict) = 0;

  const std::uint8_t id;
  const std::string name;
};

template <class Tree>
class TreeSubject final : public Subject {
 public:
  TreeSubject(std::uint8_t treeId, const char* treeName)
      : Subject(treeId, treeName),
        tree_({}, pc::recl::EbrDomain::instance(), &pool_) {}
  bool prefill(const Inputs& in) override {
    return perfbench::prefill(tree_, in);
  }
  void attach(const Inputs& in, int threads) override {
    target_.emplace(id, tree_, in, threads);
  }
  Target& target() override { return *target_; }
  Tally total() const override { return target_->total(); }
  void useMix(const WorkloadSpec& mix, std::uint64_t purpose) override {
    target_->useMix(mix, purpose);
  }
  pc::recl::PoolStats poolStats() const override { return pool_.stats(); }
  double bytesPerKey(std::size_t prefilled) const override {
    const Tally t = total();
    return static_cast<double>(pool_.liveCount() * pool_.slotSize()) /
           static_cast<double>(prefilled + t.insOk - t.eraOk);
  }
  EndState endState() const override {
    EndState e;
    e.stats = tree_.checkInvariants();
    e.footprintPerKey = ratio(pool_.footprintBytes(), e.stats.size);
    e.limbo = pool_.liveCount() - (e.stats.nodeCount + 2);
    return e;
  }
  void check(int threads, Verdict& verdict) override {
    checkOutputs(name, *target_, threads, verdict);
    pc::recl::EbrDomain::instance().drainAll();
    verdict.fail(name, checkNodes(pool_.liveCount(),
                                  tree_.checkInvariants().nodeCount));
  }

 private:
  pc::recl::NodePool<typename Tree::Node> pool_;  // outlives the tree
  Tree tree_;
  std::optional<TreeTarget<Tree>> target_;
};

/// One timed segment's deltas.
struct Segment {
  int tree = 0;
  bool traced = false;
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t epochs = 0;
  std::uint64_t fresh = 0, reused = 0;  // where the pool's slots came from
  double bytesPerKey = 0;               // at the segment's end
  double mops() const { return static_cast<double>(ops) / seconds / 1e6; }
};

/// The timed window: an untimed warm-up per tree, then kSegmentsPerCell
/// rounds alternating the trees (and, traced, the trace mode) ABBA-wise.
/// `end` receives each tree's state right after its last segment.
std::vector<Segment> runSegments(Workers& workers, Subject* const subjects[2],
                                 const Inputs& in, double seconds, bool trace,
                                 EndState end[2]) {
  auto& ebr = pc::recl::EbrDomain::instance();
  const int modes = trace ? 2 : 1;
  const double segSeconds = seconds / (2.0 * modes * kSegmentsPerCell);
  for (int tree = 0; tree < 2; ++tree)
    workers.segment(subjects[tree]->target(), false, segSeconds / 2);
  std::vector<Segment> segments;
  for (int round = 0; round < kSegmentsPerCell; ++round) {
    for (int i = 0; i < 2; ++i) {
      const int tree = round % 2 == 0 ? i : 1 - i;
      Subject& sub = *subjects[tree];
      for (int mode = 0; mode < modes; ++mode) {
        Segment s;
        s.tree = tree;
        s.traced = trace && (round + mode) % 2 == 1;
        const std::uint64_t ops0 = sub.total().ops, epoch0 = ebr.epoch();
        const pc::recl::PoolStats p0 = sub.poolStats();
        s.seconds = workers.segment(sub.target(), s.traced, segSeconds);
        const pc::recl::PoolStats p1 = sub.poolStats();
        s.ops = sub.total().ops - ops0;
        s.epochs = ebr.epoch() - epoch0;
        s.fresh = p1.fresh - p0.fresh;
        s.reused = p1.reused - p0.reused;
        s.bytesPerKey = sub.bytesPerKey(in.prefillOrder.size());
        segments.push_back(s);
        std::printf("  segment %2zu %s%s %.4f Mops/s\n", segments.size(),
                    sub.name.c_str(), s.traced ? " traced" : "", s.mops());
      }
      if (round == kSegmentsPerCell - 1) end[tree] = sub.endState();
    }
  }
  return segments;
}

void writeSpans(const Workers& workers, Subject* const subjects[2],
                const std::string& dir, const char* workload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/trace-" + workload + ".csv";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread,tree,op,start_ns,dur_ns\n");
  for (int t = 0; t < workers.threads(); ++t)
    for (const Span& sp : workers.traces()[t].spans)
      std::fprintf(f, "%d,%s,%s,%llu,%u\n", t, subjects[sp.tree]->name.c_str(),
                   kOpName[sp.op], static_cast<unsigned long long>(sp.startNs),
                   sp.durNs);
  std::fclose(f);
  std::printf("spans written to %s\n", path.c_str());
}

/// The per-layer metrics of a traced run. `spanNs[tree]` is the sampled
/// span time of the mixed (non-burst) traced segments.
void traceMetrics(Metrics& m, Subject* const subjects[2],
                  const Workers& workers, const std::vector<Segment>& segments,
                  const EndState end[2], const double spanNs[2],
                  Verdict& verdict) {
  std::map<std::pair<int, int>, std::vector<double>> lat;
  for (const SpanBuf& tb : workers.traces())
    for (const Span& sp : tb.spans) lat[{sp.tree, sp.op}].push_back(sp.durNs);
  double overhead = 0, depth = 0;
  std::uint64_t scans = 0, scanKeys = 0;
  for (int tree = 0; tree < 2; ++tree) {
    const std::string p = "trees." + subjects[tree]->name + ".";
    for (int op = 0; op < 4; ++op) {
      m.add(p + kOpName[op] + "_ns_p50", percentile(lat[{tree, op}], 50), "ns");
      m.add(p + kOpName[op] + "_ns_p99", percentile(lat[{tree, op}], 99), "ns");
    }
    m.add(p + "avg_key_depth", end[tree].stats.avgKeyDepth, "nodes");
    m.add(p + "height", static_cast<double>(end[tree].stats.height), "nodes");
    const Tally t = subjects[tree]->total();
    m.add(p + "insert_hit_ratio", ratio(t.insOk, t.insAttempt), "ratio");
    m.add(p + "erase_hit_ratio", ratio(t.eraOk, t.eraAttempt), "ratio");
    std::vector<double> traced, plain;
    double tracedSec = 0;
    std::uint64_t epochs = 0, fresh = 0, reused = 0;
    for (const Segment& s : segments) {
      if (s.tree != tree) continue;
      (s.traced ? traced : plain).push_back(s.mops());
      if (s.traced) tracedSec += s.seconds;
      epochs += s.epochs;
      fresh += s.fresh;
      reused += s.reused;
    }
    m.add(p + "span_coverage",
          spanNs[tree] * kSampleEvery / (workers.threads() * tracedSec * 1e9),
          "ratio");
    const std::string r = "recl." + subjects[tree]->name + ".";
    m.add(r + "pool_reuse_ratio", ratio(reused, fresh + reused), "ratio");
    m.add(r + "epoch_advances", static_cast<double>(epochs), "count");
    m.add(r + "limbo_nodes_end", static_cast<double>(end[tree].limbo), "nodes");
    m.add(r + "footprint_bytes_per_key", end[tree].footprintPerKey, "bytes");
    overhead += median(traced) / median(plain) / 2;
    depth += end[tree].stats.avgKeyDepth / 2;
    scans += t.scans;
    scanKeys += t.scanKeys;
  }

  const int pathLen = static_cast<int>(std::lround(depth));
  const int scanVisited =
      static_cast<int>(std::lround(ratio(scanKeys, scans) + depth));
  const ProbeResults pr = runProbes(pathLen, scanVisited, workers.threads());
  if (pr.failures != 0)
    verdict.fail("probes",
                 std::to_string(pr.failures) + " uncontended commits failed");
  m.add("pathcas.visit_ns", pr.visitNs, "ns");
  m.add("pathcas.validate_ns", pr.validateNs, "ns");
  m.add("pathcas.vexec_insert_ns", pr.vexecInsertNs, "ns");
  m.add("pathcas.vexec_erase_ns", pr.vexecEraseNs, "ns");
  m.add("pathcas.vexec_contended_ns", pr.vexecContendedNs, "ns");
  m.add("pathcas.vexec_contended_commit_ratio", pr.vexecContendedCommitRatio,
        "ratio");
  m.add("pathcas.validate_visited_ns", pr.validateVisitedNs, "ns");
  m.add("kcas.exec_k1_ns", pr.execK1Ns, "ns");
  m.add("kcas.exec_k2_ns", pr.execK2Ns, "ns");
  m.add("kcas.exec_k4_ns", pr.execK4Ns, "ns");
  m.add("recl.pin_ns", pr.pinNs, "ns");
  m.add("recl.alloc_destroy_ns", pr.allocDestroyNs, "ns");
  m.add("recl.retire_ns", pr.retireNs, "ns");
  m.add("trace.overhead_ratio", overhead, "ratio");
  std::printf("  probe shapes: path %d nodes, scan %d nodes\n", pathLen,
              scanVisited);
}

int runReference(const Args& args, const Inputs& in, int threads) {
  pc::recl::NodePool<Ellen::Node> nodePool;
  pc::recl::NodePool<Ellen::Info> infoPool;
  Ellen tree(pc::recl::EbrDomain::instance(), &nodePool, &infoPool);
  Verdict verdict;
  if (!prefill(tree, in))
    verdict.fail("ext-bst-lf", "prefill hit a present key");
  TreeTarget<Ellen> target(0, tree, in, threads);
  std::vector<double> mops;
  {
    Workers workers(threads);
    const double segSeconds = args.seconds / kSegmentsPerCell;
    workers.segment(target, false, segSeconds / 2);
    for (int s = 0; s < kSegmentsPerCell; ++s) {
      const std::uint64_t ops0 = target.total().ops;
      const double sec = workers.segment(target, false, segSeconds);
      mops.push_back(static_cast<double>(target.total().ops - ops0) / sec / 1e6);
    }
    checkOutputs("ext-bst-lf", target, threads, verdict);
  }
  pc::recl::EbrDomain::instance().drainAll();
  Metrics m;
  m.add("ext_bst_lf_mops", median(mops), "Mops/s");
  m.print(verdict.ok, target.total().ops);
  return verdict.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const WorkloadSpec& w = *findWorkload(args.workload);
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const Inputs in = makeInputs(w, args.seed);
  std::printf("perfbench %s seed=%llu threads=%d keys=%u trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), threads, in.range,
              args.trace ? 1 : 0);
  if (args.reference) return runReference(args, in, threads);

  // --- set-up: construct and prefill both trees (timed) -------------------
  Verdict verdict;
  const auto setupStart = Clock::now();
  auto bst = std::make_unique<TreeSubject<Bst>>(0, "bst");
  auto avl = std::make_unique<TreeSubject<Avl>>(1, "avl");
  Subject* const subjects[2] = {bst.get(), avl.get()};
  for (Subject* s : subjects)
    if (!s->prefill(in)) verdict.fail(s->name, "prefill hit a present key");
  const double setupSeconds =
      std::chrono::duration<double>(Clock::now() - setupStart).count();
  for (Subject* s : subjects) s->attach(in, threads);

  // Declared after the subjects: its workers are joined before they go.
  Workers workers(threads);
  if (args.trace) workers.enableTracing();
  EndState end[2];
  const std::vector<Segment> segments =
      runSegments(workers, subjects, in, args.seconds, args.trace, end);

  Metrics m;
  if (args.trace) {
    double spanNs[2] = {0, 0};  // before the bursts add theirs
    for (const SpanBuf& tb : workers.traces())
      for (const Span& sp : tb.spans) spanNs[sp.tree] += sp.durNs;
    // Op types the workload's mix lacks get a short traced burst on the
    // same trees, so every per-op latency has samples.
    for (int op : {kContains, kScan}) {
      if (w.permille[op] != 0) continue;
      WorkloadSpec only = w;
      for (int o = 0; o < 4; ++o) only.permille[o] = o == op ? 1000 : 0;
      for (Subject* s : subjects) {
        s->useMix(only, 4);
        workers.segment(s->target(), true, kBurstSeconds);
      }
    }
    writeSpans(workers, subjects, args.traceDir, w.name);
    for (Subject* s : subjects) s->check(threads, verdict);
    traceMetrics(m, subjects, workers, segments, end, spanNs, verdict);
  } else {
    for (Subject* s : subjects) s->check(threads, verdict);
    std::vector<double> mops[2], bytes[2];
    for (const Segment& s : segments) {
      mops[s.tree].push_back(s.mops());
      bytes[s.tree].push_back(s.bytesPerKey);
    }
    m.add("bst_mops", median(mops[0]), "Mops/s");
    m.add("avl_mops", median(mops[1]), "Mops/s");
    m.add("bst_bytes_per_key", median(bytes[0]), "bytes");
    m.add("avl_bytes_per_key", median(bytes[1]), "bytes");
    m.add("setup_s", setupSeconds, "s");
  }
  m.print(verdict.ok, bst->total().ops + avl->total().ops);
  return verdict.ok ? 0 : 1;
}
