// pfbench: end-to-end and per-layer benchmark of the Process Firewall hook
// path (see pfbench/README.md).
//
//   pfbench --workload web_hot|build_fork|attack_churn|hooks_mt
//           --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// --trace 0 measures the end-to-end metrics on the shipped engine. --trace 1
// runs an untraced phase and a traced phase (through SpanModule) of S/2
// seconds each and reports the per-layer metrics. Either way the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// lines before it describe the environment and the samples. Exit status 0
// means every oracle check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pfbench/spans.h"
#include "pfbench/workloads.h"

namespace pfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// --- environment stamp ---------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Results from Debug or sanitizer builds are not recorded.
std::string RefusalReason() {
  const std::string type = PFBENCH_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    return "build type '" + type + "' is not optimized";
  }
  if (kSanitized || std::strstr(PFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined)";
#else
  return "";
#endif
}

void PrintEnv(const Args& a, int pinned_cpu) {
  std::printf(
      "{\"pfbench_env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"pinned_cpu\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"PF_TRACE\": %d, \"PF_AUDIT\": %d, "
      "\"PF_THREADED_DISPATCH\": %d, \"syscall_cost_ns\": 0, \"rules\": 1218}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), pinned_cpu, PFBENCH_COMPILER, PFBENCH_BUILD_TYPE,
      PFBENCH_PF_TRACE, PFBENCH_PF_AUDIT, PFBENCH_PF_THREADED_DISPATCH);
}

// The simulated processes run one at a time (the scheduler's baton), so a
// single-process workload only ever keeps one CPU busy. Pinning the whole
// benchmark to one CPU keeps every baton hand-off a switch on that CPU. On a
// shared host, waking a thread on another, idle virtual CPU took up to
// milliseconds in busy phases: build_fork fell from ~9,000 to ~1,700 ops/s
// unpinned. Returns the CPU, or -1 when the process stays unpinned.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return -1;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      last = cpu;
    }
  }
  if (last < 0) {
    return -1;
  }
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? last : -1;
}

// --- statistics ----------------------------------------------------------------

// Nearest-rank percentile, q in [0, 1].
template <typename T>
double Percentile(std::vector<T> xs, double q) {
  if (xs.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<size_t>(rank, 1, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1), xs.end());
  return static_cast<double>(xs[rank - 1]);
}

// The highest percentile at or below p99 with at least ten samples beyond it.
double TailQuantile(size_t n) {
  if (n == 0) {
    return 0.5;
  }
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- metric output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- oracle --------------------------------------------------------------------

// Whole-phase checks; returns the problems found (empty = correct).
std::vector<std::string> CheckPhase(const Phase& ph) {
  std::vector<std::string> problems = ph.problems;
  auto expect = [&problems](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      problems.push_back(std::string(what) + ": got " + std::to_string(got) + ", want " +
                         std::to_string(want));
    }
  };
  const core::EngineStats& s0 = ph.start.stats;
  const core::EngineStats& s1 = ph.end.stats;
  expect("core.drops", s1.drops - s0.drops, ph.expect_pf_denials);
  expect("Kernel::denial_count", ph.end.kernel_denials - ph.start.kernel_denials,
         ph.expect_kernel_denials);
  // Audit conservation (all counters are cumulative; the workload drained
  // the rings before the final snapshot).
  expect("audit emitted == records + suppressed", s1.audit_emitted,
         s1.audit_records + s1.audit_suppressed);
  expect("audit records == drained + ring_drops", s1.audit_records,
         ph.end.audit_drained + s1.audit_ring_drops);
  expect("audit records emitted", s1.audit_emitted - s0.audit_emitted,
         ph.audit_on ? ph.expect_pf_denials : 0);
  if (ph.ops == 0) {
    problems.push_back("no op completed inside the window");
  }
  return problems;
}

bool Report(const char* phase, const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "pfbench: oracle (%s): %s\n", phase, p.c_str());
  }
  return problems.empty();
}

// --- per-layer analysis of the traced phase --------------------------------------

struct LayerReport {
  uint64_t ops = 0;
  double root_ns = 0;
  double self_ns[kLayerCount] = {};
  uint64_t syscalls = 0;
  uint64_t authorizes = 0;
  std::vector<double> auth_ns;                 // every authorize span in an op
  std::vector<double> auth_by_outcome[kOutcomeCount];
  uint64_t negative_self = 0;                  // spans whose children outran them
  uint64_t open_spans = 0;
};

LayerReport Analyze(const std::vector<const Lane*>& lanes) {
  LayerReport r;
  for (const Lane* lane : lanes) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.end_ns < 0) {
        ++r.open_spans;
        continue;
      }
      if (s.parent != kNoSpan) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    // Roots that are ops; commit and drain roots are reported separately.
    std::vector<bool> op_root(lane->roots(), false);
    for (const Span& s : spans) {
      if (s.parent == kNoSpan && s.kind == Kind::kOp && s.end_ns >= 0) {
        op_root[s.op] = true;
        ++r.ops;
        r.root_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < 0 || !op_root[s.op]) {
        continue;
      }
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const double self = dur - child_ns[i];
      if (self < -1000) {
        ++r.negative_self;
      }
      r.self_ns[static_cast<size_t>(s.layer)] += self;
      if (s.kind == Kind::kSyscall) {
        ++r.syscalls;
      } else if (s.kind == Kind::kAuthorize) {
        ++r.authorizes;
        r.auth_ns.push_back(dur);
        r.auth_by_outcome[static_cast<size_t>(s.outcome)].push_back(dur);
      }
    }
  }
  return r;
}

// Writes the first kSpansWritten spans of each lane of the traced phase as
// tab-separated lines: lane op parent kind layer outcome pid start_ns end_ns.
constexpr size_t kSpansWritten = 65536;

void WriteSpans(const std::string& path, const std::vector<const Lane*>& lanes) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "pfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "# lane\top\tparent\tkind\tlayer\toutcome\tpid\tstart_ns\tend_ns\n";
  for (size_t l = 0; l < lanes.size(); ++l) {
    const std::vector<Span>& spans = lanes[l]->spans();
    for (size_t i = 0; i < std::min(spans.size(), kSpansWritten); ++i) {
      const Span& s = spans[i];
      out << l << '\t' << s.op << '\t' << static_cast<int64_t>(s.parent == kNoSpan ? -1 : s.parent)
          << '\t' << static_cast<int>(s.kind) << '\t' << static_cast<int>(s.layer) << '\t'
          << static_cast<int>(s.outcome) << '\t' << s.pid << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
}

// The end-to-end aggregates of a phase, read from its quiet quarter: the
// quarter of its slices (at least one) with the highest op rates. The rate is
// their ops over their time; the latencies are percentiles of their pooled
// op samples. Contention from other tenants of the host only ever slows a
// slice down, and it comes and goes within a run, so every run has quiet
// slices; figures read from them move far less from run to run than figures
// over the whole window do (see README.md).
struct SliceStats {
  double rate = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_q = 0;  // quantile reported as the tail (0.99 when supported)
  size_t samples = 0;  // pooled op samples
};

constexpr double kQuietShare = 0.25;

SliceStats Slices(const Phase& ph) {
  const size_t n = ph.slice_s.size();
  std::vector<size_t> order(n);
  for (size_t k = 0; k < n; ++k) {
    order[k] = k;
  }
  auto rate = [&ph](size_t k) {
    return ph.slice_s[k] > 0 ? static_cast<double>(ph.slice_ops[k]) / ph.slice_s[k] : 0;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&rate](size_t a, size_t b) { return rate(a) > rate(b); });
  order.resize(std::min(n, std::max<size_t>(1, std::lround(kQuietShare * n))));
  SliceStats st;
  double seconds = 0, ops = 0;
  std::vector<float> pool;
  for (size_t k : order) {
    seconds += ph.slice_s[k];
    ops += static_cast<double>(ph.slice_ops[k]);
    const size_t from = k == 0 ? 0 : ph.slice_end[k - 1];
    pool.insert(pool.end(), ph.op_us.begin() + static_cast<long>(from),
                ph.op_us.begin() + static_cast<long>(ph.slice_end[k]));
  }
  st.rate = Ratio(ops, seconds);
  st.samples = pool.size();
  st.tail_q = TailQuantile(pool.size());
  st.p50_us = Percentile(pool, 0.5);
  st.tail_us = Percentile(pool, st.tail_q);
  return st;
}

void PrintSamples(const char* what, const Phase& ph) {
  const SliceStats st = Slices(ph);
  std::printf("{\"pfbench_samples\": {\"phase\": \"%s\", \"ops\": %llu, \"seconds\": %.4f, "
              "\"slices\": %zu, \"op_samples\": %zu, \"quiet_op_samples\": %zu, "
              "\"tail_quantile\": %.4f, \"commit_samples\": %zu, \"fork_wait_samples\": %zu, "
              "\"drain_samples\": %zu}}\n",
              what, static_cast<unsigned long long>(ph.ops), ph.seconds, ph.slice_s.size(),
              ph.op_us.size(), st.samples, st.tail_q, ph.commit_ms.size(),
              ph.fork_wait_us.size(), ph.drain_us.size());
}

constexpr size_t kLaneCapacity = size_t{2} << 20;  // spans per lane (64 MiB)
constexpr int kEditsPerSlice = 4;                  // rule edits between slices
constexpr int kInitialSetups = 3;                  // set-ups timed before the window
constexpr int kForkProbes = 256;                   // fork+wait cycles for sched.*

// Slices per second of window: half seconds for the end-to-end metrics, long
// enough that a workload's own periodic slow ops (build_fork's one in ~72,
// log rotation, rule edits) fall into every slice alike, so picking the
// quiet slices does not pick them out; quarter seconds for the per-layer
// phases, which use every slice.
constexpr double kEndToEndSlicesPerS = 2;
constexpr double kLayerSlicesPerS = 4;

int SliceCount(double seconds, double per_s) {
  return std::max(1, static_cast<int>(std::lround(per_s * seconds)));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  if (const std::string why = RefusalReason(); !why.empty()) {
    std::fprintf(stderr, "pfbench: refusing to record results: %s\n", why.c_str());
    return 3;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "pfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // hooks_mt runs two deciding threads at once, so it keeps every CPU.
  const bool mt = args.workload == "hooks_mt";
  PrintEnv(args, mt ? -1 : PinToOneCpu());

  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Set-up: boot, programs, the 1218-rule commit and the fixtures.
  std::vector<double> setup_s;
  auto timed_boot = [&] {
    const int64_t a = NowNs();
    std::unique_ptr<Rig> rig = Boot(args.seed, false, false, *w);
    setup_s.push_back(static_cast<double>(NowNs() - a) / 1e9);
    return rig;
  };

  if (!args.trace) {
    std::unique_ptr<Rig> rig;
    for (int k = 0; k < kInitialSetups; ++k) {
      rig.reset();
      rig = timed_boot();
    }
    RunSpec spec;
    spec.warm_s = std::max(0.25, 0.1 * args.seconds);
    spec.window_s = args.seconds;
    spec.slices = SliceCount(args.seconds, kEndToEndSlicesPerS);
    // One more set-up sample per second of window, with the clock stopped,
    // so set-up is sampled over the whole run and not in one burst.
    spec.between = [&timed_boot](Phase&) { timed_boot(); };
    spec.between_every = static_cast<int>(kEndToEndSlicesPerS);
    Phase ph = w->Run(*rig, spec);
    correct = Report("window", CheckPhase(ph));
    attempted = ph.attempted;
    failed = ph.failed;
    PrintSamples("window", ph);
    const SliceStats st = Slices(ph);
    metrics = {
        {"ops_per_s", st.rate, "1/s"},
        {"op_p50_us", st.p50_us, "us"},
        {"op_p99_us", st.tail_us, "us"},
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Untraced phase on the shipped engine: counts, rates and the timings
    // the workload takes with two clock reads.
    RunSpec spec;
    spec.warm_s = std::max(0.25, 0.05 * args.seconds);
    spec.window_s = args.seconds / 2;
    spec.slices = SliceCount(spec.window_s, kLayerSlicesPerS);
    Phase base1;  // hooks_mt: the 1-thread rate of the scaling ratio
    Phase base;
    {
      std::unique_ptr<Rig> rig = Boot(args.seed, false, false, *w);
      // Rule edits on the live system and an audit drain after every
      // slice, with the clock stopped (unless the workload does both itself).
      spec.between = [&rig, &w](Phase& ph) {
        if (!w->edits_rules()) {
          TimeRuleEdits(*rig, *w, kEditsPerSlice, &ph);
          TimeDrain(*rig, &ph);
        }
      };
      if (mt) {
        spec.window_s = args.seconds / 4;
        spec.slices = SliceCount(spec.window_s, kLayerSlicesPerS);
        spec.threads = 1;
        base1 = w->Run(*rig, spec);
        correct = Report("1-thread", CheckPhase(base1)) && correct;
        attempted += base1.attempted;
        failed += base1.failed;
        spec.threads = 2;
      }
      base = w->Run(*rig, spec);
      correct = Report("untraced", CheckPhase(base)) && correct;
      if (base.fork_wait_us.empty()) {
        // The sched layer's fork-to-reap latency on a workload whose ops
        // fork nothing, measured after the window on the same system.
        if (!ProbeForks(*rig, kForkProbes, &base)) {
          correct = Report("fork probe", {"a fork+execve+waitpid cycle failed"});
        }
      }
      attempted += base.attempted;
      failed += base.failed;
    }
    PrintSamples("untraced", base);

    // Traced phase through the forwarding module.
    std::vector<std::unique_ptr<Lane>> lanes;
    std::vector<const Lane*> lane_ptrs;
    Phase traced;
    {
      std::unique_ptr<Rig> rig = Boot(args.seed, true, !mt, *w);
      RunSpec tspec;
      tspec.warm_s = spec.warm_s;
      tspec.window_s = args.seconds / 2;
      for (int i = 0; i < (mt ? 2 : 1); ++i) {
        lanes.push_back(std::make_unique<Lane>(kLaneCapacity));
        lane_ptrs.push_back(lanes.back().get());
      }
      if (mt) {
        tspec.thread_lanes = &lanes;
      } else {
        tspec.lane = lanes[0].get();
      }
      traced = w->Run(*rig, tspec);
      correct = Report("traced", CheckPhase(traced)) && correct;
      attempted += traced.attempted;
      failed += traced.failed;
    }
    PrintSamples("traced", traced);
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, lane_ptrs);
    }

    const LayerReport lr = Analyze(lane_ptrs);
    if (lr.negative_self > 0 || lr.open_spans > 0) {
      std::fprintf(stderr, "pfbench: span accounting: %llu negative self, %llu open\n",
                   static_cast<unsigned long long>(lr.negative_self),
                   static_cast<unsigned long long>(lr.open_spans));
    }
    const double ops = static_cast<double>(std::max<uint64_t>(lr.ops, 1));
    auto self = [&lr](Layer l) { return lr.self_ns[static_cast<size_t>(l)]; };
    auto by = [&lr](Outcome o) {
      return Percentile(lr.auth_by_outcome[static_cast<size_t>(o)], 0.5);
    };
    auto count = [&lr](Outcome o) {
      return static_cast<double>(lr.auth_by_outcome[static_cast<size_t>(o)].size());
    };
    // Decisions of the traced ops that were served from the verdict cache,
    // over those that went through it (hits, misses and bypasses).
    const double op_cached = count(Outcome::kHit) + count(Outcome::kStateHit);
    const double op_decided = op_cached + count(Outcome::kMiss) + count(Outcome::kBypass);
    const core::EngineStats& b0 = base.begin.stats;
    const core::EngineStats& b1 = base.end.stats;
    const double decisions = static_cast<double>(
        (b1.vcache_hits - b0.vcache_hits) + (b1.vcache_misses - b0.vcache_misses) +
        (b1.vcache_bypasses - b0.vcache_bypasses));
    const double commits = static_cast<double>(
        (base.end.delta_commits - base.begin.delta_commits) +
        (base.end.full_commits - base.begin.full_commits));
    metrics = {
        {"core.authorize_hit_ns", by(Outcome::kHit), "ns"},
        {"core.authorize_state_hit_ns", by(Outcome::kStateHit), "ns"},
        {"core.authorize_miss_ns", by(Outcome::kMiss), "ns"},
        {"core.authorize_fastpath_ns", by(Outcome::kFastpath), "ns"},
        {"core.authorize_ns_p50", Percentile(lr.auth_ns, 0.5), "ns"},
        {"core.authorize_ns_p99", Percentile(lr.auth_ns, TailQuantile(lr.auth_ns.size())),
         "ns"},
        {"core.hooks_per_op", static_cast<double>(lr.authorizes) / ops, "count"},
        {"core.self_share", Ratio(self(Layer::kCore), lr.root_ns), "ratio"},
        {"core.vcache_hit_rate",
         Ratio(static_cast<double>(b1.vcache_hits - b0.vcache_hits), decisions), "ratio"},
        {"core.vcache_state_hit_rate",
         Ratio(static_cast<double>(b1.vcache_state_hits - b0.vcache_state_hits), decisions),
         "ratio"},
        {"core.vcache_bypass_rate",
         Ratio(static_cast<double>(b1.vcache_bypasses - b0.vcache_bypasses), decisions),
         "ratio"},
        {"core.benign_hit_rate", Ratio(op_cached, op_decided), "ratio"},
        {"core.commit_ms", Percentile(base.commit_ms, 0.5), "ms"},
        {"core.delta_commit_share",
         Ratio(static_cast<double>(base.end.delta_commits - base.begin.delta_commits), commits),
         "ratio"},
        {"core.task_states", static_cast<double>(base.task_states), "count"},
        {"core.drops", static_cast<double>(b1.drops - b0.drops), "count"},
        {"core.mt_scaling", mt ? Ratio(base.rate(), base1.rate()) : 0, "ratio"},
        {"sim.syscalls_per_op", static_cast<double>(lr.syscalls) / ops, "count"},
        {"sim.hooks_per_syscall",
         Ratio(static_cast<double>(base.end.kernel_hooks - base.begin.kernel_hooks),
               static_cast<double>(base.end.syscalls - base.begin.syscalls)),
         "count"},
        {"sim.self_us_per_op", self(Layer::kSim) / ops / 1e3, "us"},
        {"sched.fork_wait_us_p50", Percentile(base.fork_wait_us, 0.5), "us"},
        {"sched.fork_wait_us_p99",
         Percentile(base.fork_wait_us, TailQuantile(base.fork_wait_us.size())), "us"},
        {"sched.self_share", Ratio(self(Layer::kSched), lr.root_ns), "ratio"},
        {"audit.emitted", static_cast<double>(b1.audit_emitted - b0.audit_emitted), "count"},
        {"audit.suppressed", static_cast<double>(b1.audit_suppressed - b0.audit_suppressed),
         "count"},
        {"audit.ring_drops", static_cast<double>(b1.audit_ring_drops - b0.audit_ring_drops),
         "count"},
        {"audit.drain_us", Percentile(base.drain_us, 0.5), "us"},
        {"apps.user_us_per_op", self(Layer::kApps) / ops / 1e3, "us"},
        {"bench.trace_overhead_pct", (Ratio(base.rate(), traced.rate()) - 1) * 100, "%"},
        {"bench.trace_self_share", Ratio(self(Layer::kBench), lr.root_ns), "ratio"},
        {"bench.error_rate",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"},
    };
  }
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pfbench

int main(int argc, char** argv) {
  try {
    return pfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfbench: %s\n", e.what());
    return 4;
  }
}
