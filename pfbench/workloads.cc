#include "pfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>

#include "src/apps/interp.h"
#include "src/apps/programs.h"
#include "src/apps/rule_library.h"
#include "src/apps/webserver.h"
#include "src/sim/sysimage.h"

namespace pfbench {

namespace apps = pf::apps;

namespace {

using sim::Pid;
using sim::Proc;
using Rng = std::mt19937_64;

int64_t ToNs(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

// Untimed ops after each spec.between call (see RunSpec).
constexpr double kRewarmS = 0.005;

bool BetweenAfter(const RunSpec& spec, int slice) {
  return spec.between && (slice + 1) % std::max(1, spec.between_every) == 0;
}

// Spans kept free at the end of a lane so the op in flight when the window
// stops can still close all of its spans.
constexpr size_t kLaneMargin = 4096;

bool LaneNearlyFull(const Lane* lane) {
  return lane != nullptr && lane->spans().size() + kLaneMargin >= lane->spans().capacity();
}

// The synthetic distributor rule base of the paper's PF Full configuration:
// `count` entrypoint DROP rules spread over the standard binaries. Kept in
// the benchmark (rather than shared with bench/) so the measured rule base
// only changes when the benchmark does.
std::vector<std::string> SyntheticRuleBase(int count) {
  const char* bins[] = {sim::kApache, sim::kPhp, sim::kPython, sim::kJava,
                        sim::kDbusDaemon, sim::kSshd, sim::kBinSh, sim::kDstat};
  const char* ops[] = {"FILE_OPEN", "FILE_READ", "FILE_WRITE", "DIR_SEARCH",
                       "LNK_FILE_READ"};
  std::vector<std::string> rules;
  rules.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "pftables -p %s -i 0x%x -o %s -d ~{SYSHIGH} -j DROP",
                  bins[i % 8], 0x10000 + i * 0x40, ops[i % 5]);
    rules.emplace_back(buf);
  }
  return rules;
}

void Install(Rig& rig, const std::vector<std::string>& rules) {
  core::Status s = rig.pftables->ExecAll(rules);
  if (!s.ok()) {
    throw std::runtime_error("rule install failed: " + s.message());
  }
}

// Rule edits: appends of a java entrypoint rule (no workload runs java, so
// no verdict changes), each followed by a delete of the same rule.
std::vector<std::string> MakeEdits(Rng& rng, int n) {
  std::vector<std::string> edits;
  for (int i = 0; i < n; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "pftables -A input -p %s -i 0x%llx -o FILE_OPEN -d ~{SYSHIGH} -j DROP",
                  sim::kJava, static_cast<unsigned long long>(0x800000 + (rng() % 0x100000)));
    edits.emplace_back(buf);
  }
  return edits;
}

// The k-th timed rule edit: even k appends w.edits[k / 2], odd k deletes the
// rule the previous edit appended (the last rule of `input`).
std::string EditCommand(Rig& rig, const Workload& w, uint64_t k) {
  if (k % 2 == 0) {
    return w.edits[(k / 2) % w.edits.size()];
  }
  const core::Chain* input = rig.engine->ruleset().filter().Find("input");
  return "pftables -D input " + std::to_string(input->rules().size());
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// --- web fixtures and the web op ----------------------------------------------

constexpr int kDocs = 16;
constexpr size_t kDbBytes = 4096;
const char kLibPhp[] = "<?php /* helpers */ ?>";
const char kDbPath[] = "/var/www/app/db.dat";
const char kAccessLog[] = "/var/log/apache-access.log";  // written by Webserver
constexpr uint64_t kLogRotateEvery = 4096;

// Small pages, so the emulated request work stays a fraction of the request
// and the hook path's share of it is visible.
std::string DocBody(int i) {
  return "<html>doc " + std::to_string(i) + " " +
         std::string(static_cast<size_t>(4 * i), static_cast<char>('a' + i)) + "</html>";
}

void PrepareWeb(sim::Kernel& k) {
  k.MkDirAt("/var/www/docs", 0755, sim::kWebUid, sim::kWebUid, "httpd_sys_content_t");
  for (int i = 0; i < kDocs; ++i) {
    k.MkFileAt("/var/www/docs/d" + std::to_string(i) + ".html", DocBody(i), 0644,
               sim::kWebUid, sim::kWebUid, "httpd_sys_content_t");
  }
  k.MkFileAt(kDbPath, std::string(kDbBytes, 'd'), 0644, sim::kWebUid, sim::kWebUid,
             "httpd_sys_content_t");
  k.MkFileAt("/var/www/app/lib.php", kLibPhp, 0644, sim::kWebUid, sim::kWebUid,
             "httpd_user_script_exec_t");
}

// URL sequence over the document set, drawn from the seed.
struct WebInputs {
  std::vector<std::string> urls;
  std::vector<int> docs;
  std::vector<std::string> bodies;

  explicit WebInputs(Rng& rng) {
    for (int i = 0; i < kDocs; ++i) {
      bodies.push_back(DocBody(i));
    }
    for (int i = 0; i < 4096; ++i) {
      const int d = static_cast<int>(rng() % kDocs);
      docs.push_back(d);
      urls.push_back("/docs/d" + std::to_string(d) + ".html");
    }
  }
};

sim::SpawnOpts WorkerOpts(Rig& rig) {
  sim::SpawnOpts opts;
  opts.name = "apache-worker";
  opts.exe = sim::kApache;
  opts.cred.sid = rig.kernel->labels().Intern("httpd_t");
  return opts;
}

// An Apache worker with mod_php mapped in, as in the paper's web benchmark.
class WebSession {
 public:
  explicit WebSession(Proc& p) : p_(p), server_(Config()), php_(p, "/var/www/app/index.php") {}

  static apps::WebConfig Config() {
    apps::WebConfig cfg;
    cfg.request_work = 60;
    cfg.access_log = true;
    return cfg;
  }

  // Maps the PHP runtime; call once before the first op.
  static void MapPhp(Proc& p) {
    const int fd = static_cast<int>(p.Open(sim::kPhp, sim::kORdOnly));
    p.MmapFd(fd);
    p.Close(fd);
  }

  // One op: serve the URL, include the helper script, read the database
  // file. True when every output is the expected one.
  bool Op(const std::string& url, const std::string& expected_body) {
    bool ok = server_.HandleRequest(p_, url, &body_) == 200 && body_ == expected_body;
    auto lib = php_.Include("lib.php", 11);
    ok = ok && lib.has_value() && *lib == kLibPhp;
    const int64_t fd = p_.Open(kDbPath, sim::kORdOnly);
    if (fd < 0) {
      return false;
    }
    const int64_t n = p_.Read(static_cast<int>(fd), &row_, kDbBytes);
    ok = ok && n == static_cast<int64_t>(kDbBytes) && row_.size() == kDbBytes;
    ok = p_.Close(static_cast<int>(fd)) == 0 && ok;
    // Log rotation keeps the access log (and the run's memory) bounded.
    if (++served_ % kLogRotateEvery == 0) {
      ok = p_.Unlink(kAccessLog) == 0 && ok;
    }
    return ok;
  }

  // A request the firewall must refuse (403).
  int Status(const std::string& url) { return server_.HandleRequest(p_, url, &body_); }

 private:
  Proc& p_;
  apps::Webserver server_;
  apps::PhpInterp php_;
  std::string body_;
  std::string row_;
  uint64_t served_ = 0;
};

// Latency samples kept per phase. The buffer is touched up front, so peak RSS
// does not depend on how many ops a run completes.
constexpr size_t kSampleCap = size_t{1} << 22;

void ReserveSamples(std::vector<float>& v, size_t cap) {
  v.assign(cap, 0.0f);
  v.clear();
}

void Record(std::vector<float>& v, int64_t ns) {
  if (v.size() < v.capacity()) {
    v.push_back(static_cast<float>(Us(ns)));
  }
}

// The timed window of the simulated-process workloads: calls `step` (which
// runs some ops, records their latencies and returns how many it ran) until
// each slice's time, or the trace lane, runs out. spec.between runs between
// slices with the clock stopped, followed by the untimed re-warm.
template <typename StepFn>
void RunSlices(Rig& rig, const RunSpec& spec, Phase& ph, StepFn step) {
  ReserveSamples(ph.op_us, kSampleCap);
  ph.begin = Snap(rig);
  const int64_t slice_ns = ToNs(spec.window_s / spec.slices);
  for (int slice = 0; slice < spec.slices && !LaneNearlyFull(spec.lane); ++slice) {
    SetSharedLane(spec.lane);
    const int64_t t0 = NowNs();
    int64_t now = t0;
    uint64_t n = 0;
    while (now < t0 + slice_ns && !LaneNearlyFull(spec.lane)) {
      n += step();
      now = NowNs();
    }
    SetSharedLane(nullptr);
    ph.EndSlice(static_cast<double>(now - t0) / 1e9, n);
    if (BetweenAfter(spec, slice)) {
      spec.between(ph);
      // The re-warm's ops are checked, but their samples are dropped.
      const size_t op = ph.op_us.size(), commit = ph.commit_ms.size(),
                   fork = ph.fork_wait_us.size(), drain = ph.drain_us.size();
      const int64_t until = NowNs() + ToNs(kRewarmS);
      while (NowNs() < until) {
        step();
      }
      ph.op_us.resize(op);
      ph.commit_ms.resize(commit);
      ph.fork_wait_us.resize(fork);
      ph.drain_us.resize(drain);
    }
  }
}

// Window loop of the single-process workloads, run inside the process:
// `op(i, false)` until the warm-up ends, then `op(i, true)` timed one by one.
template <typename OpFn>
void RunWindow(Rig& rig, const RunSpec& spec, Phase& ph, Pid pid, OpFn op) {
  uint64_t i = 0;
  const int64_t warm_end = NowNs() + ToNs(spec.warm_s);
  while (NowNs() < warm_end) {
    ++ph.attempted;
    ph.failed += op(i++, false) ? 0 : 1;
  }
  RunSlices(rig, spec, ph, [&] {
    const int64_t a = NowNs();
    bool ok;
    {
      SpanScope root(Kind::kOp, Layer::kApps, pid);
      ok = op(i++, true);
    }
    Record(ph.op_us, NowNs() - a);
    ++ph.attempted;
    ph.failed += ok ? 0 : 1;
    return uint64_t{1};
  });
}

// --- web_hot -----------------------------------------------------------------

class WebHot : public Workload {
 public:
  explicit WebHot(uint64_t seed) : rng_(seed), web_(rng_) { edits = MakeEdits(rng_, 64); }

  void Prepare(Rig& rig) override { PrepareWeb(*rig.kernel); }

  Phase Run(Rig& rig, const RunSpec& spec) override {
    Phase ph;
    ph.start = Snap(rig);
    const Pid pid = rig.sched->Spawn(WorkerOpts(rig), [&](Proc& p) {
      WebSession::MapPhp(p);
      WebSession s(p);
      const size_t n = web_.urls.size();
      RunWindow(rig, spec, ph, p.pid(), [&](uint64_t i, bool) {
        return s.Op(web_.urls[i % n], web_.bodies[static_cast<size_t>(web_.docs[i % n])]);
      });
    });
    if (rig.sched->RunUntilExit(pid) != 0) {
      ph.problems.push_back("web worker exited nonzero");
    }
    ph.end = Snap(rig);
    ph.task_states = rig.engine->task_state_count();
    return ph;
  }

 private:
  Rng rng_;
  WebInputs web_;
};

// --- build_fork --------------------------------------------------------------

constexpr int kSources = 64;
constexpr int kHeadersPerStep = 6;
constexpr size_t kHeaderBytes = 128;
constexpr size_t kObjBytes = 256;

std::string SrcBody(int i) {
  return "/* m" + std::to_string(i) + ".c */\n" + std::string(512, static_cast<char>('A' + i % 26));
}

class BuildFork : public Workload {
 public:
  explicit BuildFork(uint64_t seed) : rng_(seed) {
    edits = MakeEdits(rng_, 64);
    for (int i = 0; i < kSources; ++i) {
      src_paths_.push_back("src/m" + std::to_string(i) + ".c");
      obj_paths_.push_back("obj/m" + std::to_string(i) + ".o");
      hdr_paths_.push_back("include/h" + std::to_string(i) + ".h");
      src_bodies_.push_back(SrcBody(i));
    }
    // Each pass over the tree visits every source once, in a seeded order;
    // every step probes six seeded headers.
    for (int pass = 0; pass < 16; ++pass) {
      std::vector<int> order(kSources);
      for (int i = 0; i < kSources; ++i) {
        order[static_cast<size_t>(i)] = i;
      }
      std::shuffle(order.begin(), order.end(), rng_);
      for (int src : order) {
        Step st;
        st.src = src;
        for (int& h : st.headers) {
          h = static_cast<int>(rng_() % kSources);
        }
        steps_.push_back(st);
      }
    }
  }

  void Prepare(Rig& rig) override {
    sim::Kernel& k = *rig.kernel;
    const sim::Uid u = sim::kAliceUid;
    for (const char* d : {"/home/alice/build", "/home/alice/build/src",
                          "/home/alice/build/include", "/home/alice/build/obj"}) {
      k.MkDirAt(d, 0755, u, u, "user_home_t");
    }
    for (int i = 0; i < kSources; ++i) {
      k.MkFileAt("/home/alice/build/" + src_paths_[static_cast<size_t>(i)],
                 src_bodies_[static_cast<size_t>(i)], 0644, u, u, "user_home_t");
      k.MkFileAt("/home/alice/build/" + hdr_paths_[static_cast<size_t>(i)],
                 std::string(kHeaderBytes, 'h'), 0644, u, u, "user_home_t");
    }
  }

  Phase Run(Rig& rig, const RunSpec& spec) override {
    Phase ph;
    ph.start = Snap(rig);
    sim::SpawnOpts opts;
    opts.name = "make";
    opts.cred.uid = opts.cred.euid = sim::kAliceUid;
    opts.cred.gid = opts.cred.egid = sim::kAliceUid;
    opts.cred.sid = rig.kernel->labels().Intern("staff_t");
    opts.exe = sim::kBinSh;
    opts.cwd = "/home/alice/build";
    const Pid pid = rig.sched->Spawn(opts, [&](Proc& p) {
      std::vector<bool> built(kSources, false);
      const std::string obj_data(kObjBytes, 'o');
      const auto env = p.task().env;
      RunWindow(rig, spec, ph, p.pid(), [&](uint64_t i, bool timed) {
        const Step& st = steps_[i % steps_.size()];
        const auto src = static_cast<size_t>(st.src);
        bool ok = true;
        sim::StatBuf sb;
        for (int h : st.headers) {
          ok = ok && p.Stat(hdr_paths_[static_cast<size_t>(h)], &sb) == 0 &&
               sb.size == kHeaderBytes;
        }
        int64_t fd = p.Open(src_paths_[src], sim::kORdOnly);
        ok = ok && fd >= 0 && p.Read(static_cast<int>(fd), &text_, 1 << 16) > 0 &&
             text_ == src_bodies_[src] && p.Close(static_cast<int>(fd)) == 0;
        // The compiler job: fork, execve, wait.
        const int64_t t_fork = NowNs();
        int64_t cc;
        {
          SpanScope span(Kind::kSched, Layer::kSched, p.pid());
          cc = p.Fork([&env](Proc& c) {
            c.Execve(sim::kBinTrue, {"cc"}, env);
            c.Exit(127);
          });
        }
        int status = -1;
        int64_t waited;
        {
          SpanScope span(Kind::kSched, Layer::kSched, p.pid());
          waited = p.Waitpid(static_cast<Pid>(cc), &status);
        }
        if (timed && ph.fork_wait_us.size() < kSampleCap) {
          ph.fork_wait_us.push_back(Us(NowNs() - t_fork));
        }
        ok = ok && cc > 0 && waited == cc && status == 0;
        // Emit the object file as a fresh inode (rm -f $@, then write it).
        if (built[src]) {
          ok = ok && p.Unlink(obj_paths_[src]) == 0;
        }
        fd = p.Open(obj_paths_[src], sim::kOWrOnly | sim::kOCreat | sim::kOTrunc);
        ok = ok && fd >= 0 &&
             p.Write(static_cast<int>(fd), obj_data) == static_cast<int64_t>(kObjBytes) &&
             p.Close(static_cast<int>(fd)) == 0;
        built[src] = true;
        return ok;
      });
    });
    if (rig.sched->RunUntilExit(pid) != 0) {
      ph.problems.push_back("make exited nonzero");
    }
    ph.end = Snap(rig);
    ph.task_states = rig.engine->task_state_count();
    return ph;
  }

 private:
  struct Step {
    int src = 0;
    int headers[kHeadersPerStep] = {};
  };

  Rng rng_;
  std::vector<std::string> src_paths_, obj_paths_, hdr_paths_, src_bodies_;
  std::vector<Step> steps_;
  std::string text_;
};

// --- attack_churn ------------------------------------------------------------

constexpr int kFloodPerRound = 64;    // F: fresh adversary files per round
constexpr int kBenignPerRound = 64;   // benign requests (ops) per round
constexpr int kRoundsPerEdit = 8;     // C: rounds between rule append/delete pairs

class AttackChurn : public Workload {
 public:
  explicit AttackChurn(uint64_t seed) : rng_(seed), web_(rng_) {
    edits = MakeEdits(rng_, 256);
    for (int i = 0; i < 1024; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "l%012llx",
                    static_cast<unsigned long long>(rng_() & 0xffffffffffffull));
      links_.push_back(buf);
    }
    for (int i = 0; i < 4096; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "/home/alice/flood/f%012llx",
                    static_cast<unsigned long long>(rng_() & 0xffffffffffffull));
      flood_.push_back(buf);
    }
  }
  bool edits_rules() const override { return true; }

  void Prepare(Rig& rig) override {
    sim::Kernel& k = *rig.kernel;
    PrepareWeb(k);
    k.MkDirAt("/var/www/users/alice", 0755, sim::kAliceUid, sim::kAliceUid,
              "httpd_user_content_t");
    k.MkDirAt("/home/alice/flood", 0755, sim::kAliceUid, sim::kAliceUid, "user_home_t");
    rig.engine->audit().Enable();
  }

  Phase Run(Rig& rig, const RunSpec& spec) override {
    Phase ph;
    ph.audit_on = true;
    ph.start = Snap(rig);
    bool stop = false;
    bool measuring = false;
    uint64_t round = 0;
    uint64_t op_index = 0;
    uint64_t ops = 0;  // benign requests completed while measuring

    sim::SpawnOpts adv;
    adv.name = "alice";
    adv.exe = sim::kBinSh;
    adv.cred.uid = adv.cred.euid = sim::kAliceUid;
    adv.cred.gid = adv.cred.egid = sim::kAliceUid;
    adv.cred.sid = rig.kernel->labels().Intern("user_t");
    adv.cwd = "/home/alice";
    const Pid adv_pid = rig.sched->Spawn(adv, [&](Proc& p) {
      std::string planted;
      for (;;) {
        p.Checkpoint("round");
        if (stop) {
          return;
        }
        bool ok = planted.empty() || p.Unlink(planted) == 0;
        planted = "/var/www/users/alice/" + links_[round % links_.size()];
        ok = ok && p.Symlink("/etc/passwd", planted) == 0;
        sim::StatBuf sb;
        for (int f = 0; f < kFloodPerRound; ++f) {
          const std::string& path = flood_[(round * kFloodPerRound + f) % flood_.size()];
          int64_t fd = p.Open(path, sim::kOWrOnly | sim::kOCreat | sim::kOExcl, 0644);
          ok = ok && fd >= 0 && p.Close(static_cast<int>(fd)) == 0;
          ok = ok && p.Stat(path, &sb) == 0;
          fd = p.Open(path, sim::kORdOnly);
          ok = ok && fd >= 0 && p.Close(static_cast<int>(fd)) == 0;
          ok = ok && p.Unlink(path) == 0;
        }
        if (!ok) {
          ph.problems.push_back("adversary syscall failed in round " + std::to_string(round));
        }
      }
    });

    const Pid worker = rig.sched->Spawn(WorkerOpts(rig), [&](Proc& p) {
      WebSession::MapPhp(p);
      WebSession s(p);
      const size_t n = web_.urls.size();
      for (;;) {
        p.Checkpoint("round");
        if (stop) {
          return;
        }
        // The planted link: R8 must refuse it (one denial, one audit record).
        ++ph.attempted;
        ++ph.expect_pf_denials;
        if (s.Status("/users/alice/" + links_[round % links_.size()]) != 403) {
          ++ph.failed;
        }
        for (int b = 0; b < kBenignPerRound; ++b, ++op_index) {
          const size_t u = op_index % n;
          const int64_t a = NowNs();
          bool ok;
          {
            SpanScope root(Kind::kOp, Layer::kApps, p.pid());
            ok = s.Op(web_.urls[u], web_.bodies[static_cast<size_t>(web_.docs[u])]);
          }
          ++ph.attempted;
          ph.failed += ok ? 0 : 1;
          if (measuring) {
            Record(ph.op_us, NowNs() - a);
            ++ops;
          }
        }
      }
    });

    uint64_t edit = 0;
    auto one_round = [&] {
      rig.sched->RunUntilLabel(adv_pid, "round");
      rig.sched->RunUntilLabel(worker, "round");
      ++round;
      if (round % kRoundsPerEdit == 0) {
        for (int k = 0; k < 2; ++k) {  // append, then delete
          const int64_t a = NowNs();
          core::Status s;
          {
            SpanScope root(Kind::kCommit, Layer::kCore, 0);
            s = rig.pftables->Exec(EditCommand(rig, *this, edit++));
          }
          if (measuring) {
            ph.commit_ms.push_back(Ms(NowNs() - a));
          }
          if (!s.ok()) {
            ph.problems.push_back("rule edit failed: " + s.message());
          }
        }
      }
      // The operator's audit consumer.
      const int64_t a = NowNs();
      {
        SpanScope root(Kind::kDrain, Layer::kAudit, 0);
        rig.engine->audit().Drain();
      }
      if (measuring) {
        ph.drain_us.push_back(Us(NowNs() - a));
      }
    };

    // Park both at their first round boundary, then warm up.
    rig.sched->RunUntilLabel(adv_pid, "round");
    rig.sched->RunUntilLabel(worker, "round");
    const int64_t warm_end = NowNs() + ToNs(spec.warm_s);
    while (NowNs() < warm_end) {
      one_round();
    }
    measuring = true;
    RunSlices(rig, spec, ph, [&] {
      const uint64_t before = ops;
      one_round();
      return ops - before;
    });
    measuring = false;
    stop = true;
    if (rig.sched->RunUntilExit(adv_pid) != 0 || rig.sched->RunUntilExit(worker) != 0) {
      ph.problems.push_back("attack_churn process exited nonzero");
    }
    rig.engine->audit().Drain();
    ph.expect_kernel_denials = ph.expect_pf_denials;
    ph.end = Snap(rig);
    ph.task_states = rig.engine->task_state_count();
    return ph;
  }

 private:
  Rng rng_;
  WebInputs web_;
  std::vector<std::string> links_;
  std::vector<std::string> flood_;
};

// --- hooks_mt ----------------------------------------------------------------

// One hook of the replayed stream: an open of one of four files, a socket
// bind or a signal delivery (the parallel_hooks mix).
struct Hook {
  uint8_t kind = 0;  // 0..3: open of path[kind]; 4: bind; 5: signal
  bool new_syscall = true;
};
constexpr uint8_t kShadowOpen = 1;  // path index of /etc/shadow
constexpr size_t kStreamLen = 4096;
constexpr uint64_t kLatencyEvery = 32;  // time 1 in N decisions
constexpr int kMaxThreads = 2;

// The tasks the replay threads drive, one per thread, tied to one system.
struct HookTasks {
  struct Worker {
    std::unique_ptr<sim::Task> task;
    std::vector<std::shared_ptr<sim::Inode>> pins;
    std::vector<sim::AccessRequest> reqs;  // indexed by Hook::kind
  };
  Worker workers[kMaxThreads];
};

class HooksMt : public Workload {
 public:
  explicit HooksMt(uint64_t seed) : rng_(seed) {
    edits = MakeEdits(rng_, 64);
    for (auto& stream : streams_) {
      stream.reserve(kStreamLen);
      for (size_t i = 0; i < kStreamLen; ++i) {
        Hook h;
        const uint64_t r = rng_() % 10;
        h.kind = r < 7 ? static_cast<uint8_t>(rng_() % 4) : (r < 9 ? 4 : 5);
        h.new_syscall = rng_() % 4 != 0;
        stream.push_back(h);
      }
    }
  }

  void Prepare(Rig& rig) override {
    Install(rig, {"pftables -o FILE_OPEN -d shadow_t -j DROP"});
    sim::Kernel& k = *rig.kernel;
    auto tasks = std::make_shared<HookTasks>();
    for (int t = 0; t < kMaxThreads; ++t) {
      HookTasks::Worker& w = tasks->workers[t];
      w.task = std::make_unique<sim::Task>();
      sim::Task& task = *w.task;
      task.pid = static_cast<Pid>(900 + t);
      task.comm = "load";
      task.exe = sim::kBinTrue;
      task.cred.sid = k.labels().Intern("staff_t");
      task.cwd = k.vfs().root()->id();
      task.mm.Reset(k.AslrStackBase());
      k.MapImage(task, k.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
      const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
      for (int f = 0; f < 2 + t; ++f) {
        task.mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
      }
      const char* paths[] = {"/etc/passwd", "/etc/shadow", "/var/www/index.html",
                             "/var/log/app.log"};
      for (const char* path : paths) {
        auto inode = k.LookupNoHooks(path);
        if (!inode) {
          inode = k.MkFileAt(path, "x", 0644, 0, 0, "var_t");
        }
        sim::AccessRequest req;
        req.task = &task;
        req.op = sim::Op::kFileOpen;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kOpen;
        w.pins.push_back(std::move(inode));
        w.reqs.push_back(req);
      }
      sim::AccessRequest bind;
      bind.task = &task;
      bind.op = sim::Op::kSocketBind;
      bind.name = "/tmp/sock";
      bind.syscall_nr = sim::SyscallNr::kBind;
      w.reqs.push_back(bind);
      sim::AccessRequest sig;
      sig.task = &task;
      sig.op = sim::Op::kSignalDeliver;
      sig.sig = sim::kSigUsr1;
      sig.sig_sender = 1;
      sig.syscall_nr = sim::SyscallNr::kKill;
      w.reqs.push_back(sig);
    }
    rig.fixture = tasks;
  }

  Phase Run(Rig& rig, const RunSpec& spec) override {
    Phase ph;
    ph.start = Snap(rig);
    auto& tasks = *std::static_pointer_cast<HookTasks>(rig.fixture);
    sim::SecurityModule* module = rig.tracer != nullptr
                                      ? static_cast<sim::SecurityModule*>(rig.tracer)
                                      : static_cast<sim::SecurityModule*>(rig.engine);
    const int threads = std::min(spec.threads, kMaxThreads);
    uint64_t denials = 0;
    RunThreads(tasks, module, spec, threads, spec.warm_s, false, &ph, &denials);
    ReserveSamples(ph.op_us, kSampleCap);
    ph.begin = Snap(rig);
    for (int slice = 0; slice < spec.slices; ++slice) {
      if (RunThreads(tasks, module, spec, threads, spec.window_s / spec.slices, true, &ph,
                     &denials)) {
        break;  // a trace lane filled up
      }
      if (BetweenAfter(spec, slice)) {
        spec.between(ph);
        RunThreads(tasks, module, spec, threads, kRewarmS, false, &ph, &denials);
      }
    }
    ph.end = Snap(rig);
    ph.expect_pf_denials = denials;
    // Every decision was checked against the stream (a shadow open must be
    // denied, nothing else); the engine must also have counted them all.
    if (ph.end.stats.drops - ph.start.stats.drops != denials) {
      ph.problems.push_back("engine drops differ from the denials the callers saw");
    }
    ph.task_states = rig.engine->task_state_count();
    return ph;
  }

 private:
  // Runs `threads` replay threads for `seconds`, each on its own task. An
  // untimed run (the warm-up) records nothing. Returns true when a trace lane
  // filled up.
  bool RunThreads(HookTasks& tasks, sim::SecurityModule* module, const RunSpec& spec,
                  int threads, double seconds, bool timed, Phase* ph, uint64_t* denials) {
    std::vector<std::unique_ptr<Lane>>* lanes = timed ? spec.thread_lanes : nullptr;
    struct Out {
      uint64_t attempted = 0, failed = 0, denials = 0, ops = 0;
      double seconds = 0;
      std::vector<float> lat;
      bool lane_full = false;
    };
    std::vector<Out> outs(static_cast<size_t>(threads));
    std::atomic<int> ready{0};
    std::atomic<int64_t> start{0};
    auto body = [&](int t) {
      Out& out = outs[static_cast<size_t>(t)];
      HookTasks::Worker& w = tasks.workers[t];
      const std::vector<Hook>& stream = streams_[t];
      Lane* lane = lanes != nullptr ? (*lanes)[static_cast<size_t>(t)].get() : nullptr;
      if (timed) {
        ReserveSamples(out.lat, kSampleCap / 4);
      }
      ready.fetch_add(1);
      int64_t t0 = 0;
      while ((t0 = start.load(std::memory_order_acquire)) == 0) {
      }
      const int64_t end = t0 + ToNs(seconds);
      uint64_t i = cursor_[t];
      SetThreadLane(lane);
      int64_t now = NowNs();
      while (now < end && !LaneNearlyFull(lane)) {
        for (int k = 0; k < 64; ++k, ++i) {
          const Hook& h = stream[i % kStreamLen];
          SpanScope root(Kind::kOp, Layer::kApps, w.task->pid);
          if (h.new_syscall) {
            ++w.task->syscall_count;
          }
          const int64_t a = timed && i % kLatencyEvery == 0 ? NowNs() : 0;
          const bool deny = module->Authorize(w.reqs[h.kind]) != 0;
          if (a != 0) {
            Record(out.lat, NowNs() - a);
          }
          out.denials += deny ? 1 : 0;
          out.failed += deny == (h.kind == kShadowOpen) ? 0 : 1;
        }
        out.attempted += 64;
        now = NowNs();
      }
      SetThreadLane(nullptr);
      out.ops = out.attempted;
      out.seconds = static_cast<double>(now - t0) / 1e9;
      out.lane_full = LaneNearlyFull(lane);
      cursor_[t] = i;
    };
    {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back(body, t);
      }
      while (ready.load() < threads) {
        std::this_thread::yield();
      }
      start.store(NowNs(), std::memory_order_release);
      for (auto& th : pool) {
        th.join();
      }
    }
    bool lane_full = false;
    double rate = 0;
    uint64_t ops = 0;
    for (const Out& out : outs) {
      ph->attempted += out.attempted;
      ph->failed += out.failed;
      *denials += out.denials;
      lane_full = lane_full || out.lane_full;
      if (timed) {
        ops += out.ops;
        rate += out.seconds > 0 ? static_cast<double>(out.ops) / out.seconds : 0;
        for (float x : out.lat) {
          if (ph->op_us.size() < ph->op_us.capacity()) {
            ph->op_us.push_back(x);
          }
        }
      }
    }
    if (timed) {
      // The threads stop a little apart; the slice's rate is the sum of theirs.
      ph->EndSlice(rate > 0 ? static_cast<double>(ops) / rate : 0, ops);
    }
    return lane_full;
  }

  Rng rng_;
  std::vector<Hook> streams_[kMaxThreads];
  uint64_t cursor_[kMaxThreads] = {};
};

}  // namespace

Counters Snap(Rig& rig) {
  Counters c;
  c.stats = rig.engine->stats();
  c.syscalls = rig.kernel->tick();
  c.kernel_hooks = rig.kernel->authorize_calls();
  c.kernel_denials = rig.kernel->denial_count();
  c.delta_commits = rig.engine->delta_commits();
  c.full_commits = rig.engine->full_commits();
  c.audit_drained = rig.engine->audit().drained();
  return c;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "web_hot") {
    return std::make_unique<WebHot>(seed);
  }
  if (name == "build_fork") {
    return std::make_unique<BuildFork>(seed);
  }
  if (name == "attack_churn") {
    return std::make_unique<AttackChurn>(seed);
  }
  if (name == "hooks_mt") {
    return std::make_unique<HooksMt>(seed);
  }
  return nullptr;
}

std::unique_ptr<Rig> Boot(uint64_t seed, bool traced, bool classify, Workload& w) {
  auto rig = std::make_unique<Rig>();
  rig->kernel = std::make_unique<sim::Kernel>(seed);
  sim::BuildSysImage(*rig->kernel);
  apps::InstallPrograms(*rig->kernel);
  if (traced) {
    rig->tracer = SpanModule::Install(*rig->kernel, classify);
    rig->engine = rig->tracer->engine();
  } else {
    rig->engine = core::InstallProcessFirewall(*rig->kernel);
  }
  rig->pftables = std::make_unique<core::Pftables>(rig->engine);
  Install(*rig, apps::RuleLibrary::DefaultRuleBase());
  Install(*rig, SyntheticRuleBase(1200));
  rig->sched = std::make_unique<sim::Scheduler>(*rig->kernel);
  w.Prepare(*rig);
  return rig;
}

void TimeDrain(Rig& rig, Phase* phase) {
  const int64_t a = NowNs();
  rig.engine->audit().Drain();
  phase->drain_us.push_back(Us(NowNs() - a));
}

bool ProbeForks(Rig& rig, int n, Phase* phase) {
  bool ok = true;
  sim::SpawnOpts opts;
  opts.name = "fork-probe";
  opts.cred.sid = rig.kernel->labels().Intern("staff_t");
  opts.exe = sim::kBinSh;
  const Pid pid = rig.sched->Spawn(opts, [&](Proc& p) {
    const auto env = p.task().env;
    for (int k = 0; k < n; ++k) {
      const int64_t a = NowNs();
      const int64_t cc = p.Fork([&env](Proc& c) {
        c.Execve(sim::kBinTrue, {"true"}, env);
        c.Exit(127);
      });
      int status = -1;
      const int64_t waited = p.Waitpid(static_cast<Pid>(cc), &status);
      phase->fork_wait_us.push_back(Us(NowNs() - a));
      if (cc <= 0 || waited != cc || status != 0) {
        ok = false;
        return;
      }
    }
  });
  return rig.sched->RunUntilExit(pid) == 0 && ok;
}

void TimeRuleEdits(Rig& rig, const Workload& w, int n, Phase* phase) {
  for (int e = 0; e < n; ++e) {
    const std::string cmd = EditCommand(rig, w, phase->commit_ms.size());
    const int64_t a = NowNs();
    core::Status s = rig.pftables->Exec(cmd);
    phase->commit_ms.push_back(Ms(NowNs() - a));
    if (!s.ok()) {
      phase->problems.push_back("rule edit failed: " + s.message());
    }
  }
}

}  // namespace pfbench
