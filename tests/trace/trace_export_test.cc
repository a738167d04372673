// Exporter and exposition-format validation (ISSUE acceptance criteria):
//
//   * `pftrace --format=chrome` output must be valid Chrome trace_event
//     JSON — checked here with a hand-rolled strict JSON parser over both
//     synthetic records and a real traced engine run;
//   * Engine::MetricsText() must parse as Prometheus text exposition —
//     checked with a line-grammar parser that also enforces histogram
//     invariants (cumulative monotone buckets, +Inf terminal, _sum/_count).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/export.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/label.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "src/trace/export.h"
#include "src/trace/hub.h"

namespace pf::trace {
namespace {

// ---------------------------------------------------------------------------
// A strict recursive-descent JSON validator (subset sufficient for the
// exporters: objects, arrays, strings with escapes, numbers, true/false/null).
// Returns false on ANY deviation from RFC 8259 grammar.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

  // Collects top-level object keys seen during validation (depth 1 only).
  const std::vector<std::string>& top_keys() const { return top_keys_; }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++depth_;
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(&key)) {
        return false;
      }
      if (depth_ == 1) {
        top_keys_.push_back(key);
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String(std::string* out) {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: invalid JSON
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (out != nullptr) {
        out->push_back(c);
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return false;
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::vector<std::string> top_keys_;
};

// ---------------------------------------------------------------------------
// Prometheus text exposition parser (enough of the format spec to catch any
// malformed line): comment lines `# HELP <name> <text>` / `# TYPE <name>
// <counter|gauge|histogram>`, sample lines `name[{label="v",...}] value`.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct PromParse {
  std::map<std::string, std::string> types;  // family -> TYPE
  std::vector<PromSample> samples;
  std::vector<std::string> errors;
};

bool ValidMetricName(const std::string& n) {
  if (n.empty() || !(std::isalpha(static_cast<unsigned char>(n[0])) || n[0] == '_' || n[0] == ':')) {
    return false;
  }
  for (char c : n) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) {
      return false;
    }
  }
  return true;
}

PromParse ParsePrometheus(const std::string& text) {
  PromParse out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto fail = [&](const std::string& why) {
      out.errors.push_back("line " + std::to_string(lineno) + ": " + why + ": " + line);
    };
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      if (kind == "HELP") {
        if (!ValidMetricName(name)) {
          fail("bad HELP name");
        }
      } else if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (!ValidMetricName(name)) {
          fail("bad TYPE name");
        } else if (type != "counter" && type != "gauge" && type != "histogram" &&
                   type != "summary" && type != "untyped") {
          fail("bad TYPE value");
        } else {
          out.types[name] = type;
        }
      } else {
        fail("unknown comment kind");
      }
      continue;
    }
    // Sample line: name[{labels}] value
    PromSample s;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') {
      s.name.push_back(line[i++]);
    }
    if (!ValidMetricName(s.name)) {
      fail("bad metric name");
      continue;
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::string k, v;
        while (i < line.size() && line[i] != '=') {
          k.push_back(line[i++]);
        }
        if (i >= line.size() || !ValidMetricName(k)) {
          fail("bad label name");
          break;
        }
        ++i;  // '='
        if (i >= line.size() || line[i] != '"') {
          fail("label value not quoted");
          break;
        }
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            ++i;
            if (i >= line.size() ||
                (line[i] != '"' && line[i] != '\\' && line[i] != 'n')) {
              fail("bad label escape");
              break;
            }
          }
          v.push_back(line[i++]);
        }
        if (i >= line.size()) {
          fail("unterminated label value");
          break;
        }
        ++i;  // closing quote
        s.labels[k] = v;
        if (i < line.size() && line[i] == ',') {
          ++i;
        }
      }
      if (i >= line.size() || line[i] != '}') {
        fail("unterminated label set");
        continue;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      fail("missing value separator");
      continue;
    }
    ++i;
    const std::string value = line.substr(i);
    if (value == "+Inf" || value == "-Inf" || value == "NaN") {
      s.value = value == "-Inf" ? -HUGE_VAL : HUGE_VAL;
    } else {
      char* end = nullptr;
      s.value = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        fail("bad sample value");
        continue;
      }
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------

TraceRecord MakeDecision(uint64_t ts, uint16_t worker, bool drop) {
  TraceRecord r;
  r.ts_ns = ts;
  r.worker = worker;
  r.event = static_cast<uint8_t>(Event::kDecision);
  r.path = static_cast<uint8_t>(Path::kCompiled);
  r.cache = kCacheMiss;
  r.subject_sid = 7;
  r.object_sid = 9;
  r.chain_id = 2;
  r.rule_index = 1;
  r.ctx_ns = 120;
  r.eval_ns = 340;
  r.total_ns = 980;
  if (drop) {
    r.flags = kFlagDrop;
  }
  return r;
}

std::vector<TraceRecord> SyntheticRecords() {
  std::vector<TraceRecord> recs;
  recs.push_back(MakeDecision(1000, 0, false));
  recs.push_back(MakeDecision(5000, 1, true));
  TraceRecord rule;
  rule.ts_ns = 2000;
  rule.event = static_cast<uint8_t>(Event::kRule);
  rule.chain_id = 3;
  rule.rule_index = 0;
  rule.eval_ns = 55;
  rule.flags = kFlagDrop;
  recs.push_back(rule);
  TraceRecord vc;
  vc.ts_ns = 3000;
  vc.event = static_cast<uint8_t>(Event::kVcache);
  vc.cache = kCacheHit;
  recs.push_back(vc);
  return recs;
}

TEST(TraceExportTest, ChromeTraceIsValidJson) {
  NameTable names;  // numeric fallback mode
  const std::string chrome = RenderChromeTrace(SyntheticRecords(), names);
  JsonValidator v(chrome);
  EXPECT_TRUE(v.Validate()) << chrome;
  bool has_events = false;
  for (const std::string& k : v.top_keys()) {
    has_events |= k == "traceEvents";
  }
  EXPECT_TRUE(has_events) << chrome;
  EXPECT_NE(chrome.find("\"ph\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\""), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\""), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceOfEmptyStreamIsValid) {
  NameTable names;
  const std::string chrome = RenderChromeTrace({}, names);
  JsonValidator v(chrome);
  EXPECT_TRUE(v.Validate()) << chrome;
}

TEST(TraceExportTest, JsonLinesEachLineParses) {
  NameTable names;
  const std::string jsonl = RenderJsonLines(SyntheticRecords(), names);
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    JsonValidator v(line);
    EXPECT_TRUE(v.Validate()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, SyntheticRecords().size());
}

TEST(TraceExportTest, TextRendersVerdictsAndEvents) {
  NameTable names;
  const std::string text = RenderText(SyntheticRecords(), names);
  EXPECT_NE(text.find("decision"), std::string::npos);
  EXPECT_NE(text.find("rule"), std::string::npos);
  EXPECT_NE(text.find("vcache"), std::string::npos);
  EXPECT_NE(text.find("drop"), std::string::npos);
  EXPECT_NE(text.find("accept"), std::string::npos);
  EXPECT_NE(text.find("hit"), std::string::npos);
}

TEST(TraceExportTest, VerdictAndCacheStrings) {
  TraceRecord r;
  EXPECT_EQ(VerdictString(r), "accept");
  r.flags = kFlagDrop;
  EXPECT_EQ(VerdictString(r), "drop");
  r.flags = kFlagDrop | kFlagAudited;
  EXPECT_EQ(VerdictString(r), "drop(audited)");
  EXPECT_EQ(CacheString(kCacheHit), "hit");
  EXPECT_EQ(CacheString(kCacheMiss), "miss");
  EXPECT_EQ(CacheString(kCacheBypass), "bypass");
  EXPECT_EQ(CacheString(kCacheNone), "none");
}

// Every line of a JSON-lines rendering must parse on its own.
size_t ExpectEveryLineParses(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.Validate()) << line;
    ++lines;
  }
  return lines;
}

TEST(TraceExportTest, JsonEscapingSurvivesHostileLabelNames) {
  // Label names flow into JSON strings; a name full of quotes, backslashes
  // and control characters must not break validity.
  std::vector<TraceRecord> recs = {MakeDecision(100, 0, true)};
  NameTable names;  // sid 7 -> "sid:7" fallback is already safe; exercise op
  const std::string chrome = RenderChromeTrace(recs, names);
  JsonValidator v(chrome);
  EXPECT_TRUE(v.Validate());

  // The same run with the subject and object resolving to hostile names,
  // through every JSON exporter — trace and audit share one escaper.
  sim::LabelRegistry labels;
  const sim::Sid subj = labels.Intern("evil\"_t\\\n");
  const sim::Sid obj = labels.Intern(std::string("\t\x01\"}{\x1f", 6));
  NameTable hostile{&labels};
  recs[0].subject_sid = subj;
  recs[0].object_sid = obj;
  const std::string hostile_chrome = RenderChromeTrace(recs, hostile);
  JsonValidator hv(hostile_chrome);
  EXPECT_TRUE(hv.Validate()) << hostile_chrome;
  EXPECT_EQ(ExpectEveryLineParses(RenderJsonLines(recs, hostile)), recs.size());

  audit::AuditRecord deny;
  deny.ts_ns = 100;
  deny.kind = static_cast<uint8_t>(audit::Kind::kDeny);
  deny.flags = audit::kFlagHasObject;
  deny.subject_sid = subj;
  deny.object_sid = obj;
  const std::vector<audit::AuditRecord> audits = {deny, deny};
  EXPECT_EQ(ExpectEveryLineParses(audit::RenderJsonLines(audits, hostile)),
            audits.size());
}

// --- end-to-end: a real traced engine run feeds every exporter ------------

struct TracedRun {
  std::string chrome;
  std::string jsonl;
  std::string text;
  std::string prom;
  size_t records = 0;
};

TracedRun RunTracedWorkload() {
  sim::Kernel kernel(0x5eed);
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  core::Engine* engine = core::InstallProcessFirewall(kernel);
  core::Pftables pftables(engine);
  EXPECT_TRUE(
      pftables.ExecAll({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());

  engine->trace().Enable();
  sim::Scheduler sched(kernel);
  sim::SpawnOpts opts;
  opts.name = "traced";
  opts.exe = sim::kBinTrue;
  sim::Pid pid = sched.Spawn(opts, [](sim::Proc& p) {
    sim::UserFrame frame(p, sim::kBinTrue, 0x4000);
    sim::StatBuf st;
    for (int i = 0; i < 32; ++i) {
      p.Stat("/etc/passwd", &st);
      int64_t fd = p.Open("/etc/passwd", sim::kORdOnly);
      if (fd >= 0) {
        p.Close(static_cast<int>(fd));
      }
      p.Open("/etc/shadow", sim::kORdOnly);  // denied by the rule
    }
  });
  sched.RunUntilExit(pid);
  engine->trace().Disable();

  TracedRun out;
  std::vector<TraceRecord> recs = engine->trace().Drain();
  out.records = recs.size();
  NameTable names{&kernel.labels()};
  out.chrome = RenderChromeTrace(recs, names);
  out.jsonl = RenderJsonLines(recs, names);
  out.text = RenderText(recs, names);
  out.prom = engine->MetricsText();
  return out;
}

TEST(TraceExportTest, RealEngineRunExportsValidChromeTrace) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  TracedRun run = RunTracedWorkload();
  ASSERT_GT(run.records, 0u) << "traced workload produced no records";
  JsonValidator chrome(run.chrome);
  EXPECT_TRUE(chrome.Validate());
  std::istringstream in(run.jsonl);
  std::string line;
  while (std::getline(in, line)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.Validate()) << line;
  }
  // The denied opens must surface as drops with resolved label names.
  EXPECT_NE(run.text.find("drop"), std::string::npos);
  EXPECT_NE(run.text.find("shadow_t"), std::string::npos);
}

TEST(TraceExportTest, MetricsTextParsesAsPrometheusExposition) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  TracedRun run = RunTracedWorkload();
  PromParse p = ParsePrometheus(run.prom);
  for (const std::string& e : p.errors) {
    ADD_FAILURE() << e;
  }
  ASSERT_FALSE(p.samples.empty());

  // Core families must be present and typed.
  EXPECT_EQ(p.types["pf_invocations_total"], "counter");
  EXPECT_EQ(p.types["pf_decision_latency_ns"], "histogram");

  // Histogram invariants per (op, path) series: cumulative monotone buckets
  // terminated by +Inf, with _count equal to the +Inf bucket.
  std::map<std::string, std::vector<const PromSample*>> series;
  std::map<std::string, double> counts;
  for (const PromSample& s : p.samples) {
    if (s.name == "pf_decision_latency_ns_bucket") {
      std::string key;
      for (const auto& [k, v] : s.labels) {
        if (k != "le") {
          key += k + "=" + v + ",";
        }
      }
      series[key].push_back(&s);
    } else if (s.name == "pf_decision_latency_ns_count") {
      std::string key;
      for (const auto& [k, v] : s.labels) {
        key += k + "=" + v + ",";
      }
      counts[key] = s.value;
    }
  }
  ASSERT_FALSE(series.empty()) << "no latency histogram series";
  for (const auto& [key, buckets] : series) {
    ASSERT_FALSE(buckets.empty());
    ASSERT_TRUE(buckets.back()->labels.count("le"));
    EXPECT_EQ(buckets.back()->labels.at("le"), "+Inf") << key;
    double prev = 0;
    for (const PromSample* b : buckets) {
      EXPECT_GE(b->value, prev) << "non-cumulative bucket in " << key;
      prev = b->value;
    }
    ASSERT_TRUE(counts.count(key)) << key;
    EXPECT_EQ(counts[key], buckets.back()->value) << key;
  }

  // Sanity: invocation counter reflects the workload.
  double invocations = 0;
  for (const PromSample& s : p.samples) {
    if (s.name == "pf_invocations_total") {
      invocations = s.value;
    }
  }
  EXPECT_GT(invocations, 0.0);
}

// Audit families (DESIGN.md §5j): with the audit pipeline armed over a
// denied workload, MetricsText() must expose the pf_audit_* families and
// the per-ring pf_trace_ring_utilization gauge, and the sampled counters
// must satisfy the hub's conservation contract.
TEST(TraceExportTest, AuditFamiliesExposeConservedCounters) {
  if (!kTraceCompiledIn) {
    GTEST_SKIP() << "observability compiled out (PF_NO_TRACE)";
  }
  sim::Kernel kernel(0x5eed);
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  core::Engine* engine = core::InstallProcessFirewall(kernel);
  core::Pftables pftables(engine);
  ASSERT_TRUE(
      pftables.ExecAll({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());

  audit::AuditHub::Config acfg;
  acfg.bucket_capacity = 4;  // force suppression so the counter is nonzero
  acfg.refill_per_sec = 0;
  engine->audit().Enable(acfg);
  if (kTraceCompiledIn) {
    engine->trace().Enable();
  }
  sim::Scheduler sched(kernel);
  sim::SpawnOpts opts;
  opts.name = "audited";
  opts.exe = sim::kBinTrue;
  sim::Pid pid = sched.Spawn(opts, [](sim::Proc& p) {
    sim::UserFrame frame(p, sim::kBinTrue, 0x4000);
    for (int i = 0; i < 32; ++i) {
      p.Open("/etc/shadow", sim::kORdOnly);  // denied every time
    }
  });
  sched.RunUntilExit(pid);
  const size_t drained = engine->audit().Drain().size();
  EXPECT_GT(drained, 0u);

  PromParse p = ParsePrometheus(engine->MetricsText());
  for (const std::string& e : p.errors) {
    ADD_FAILURE() << e;
  }
  EXPECT_EQ(p.types["pf_audit_emitted_total"], "counter");
  EXPECT_EQ(p.types["pf_audit_records_total"], "counter");
  EXPECT_EQ(p.types["pf_audit_suppressed_total"], "counter");
  EXPECT_EQ(p.types["pf_audit_ring_drops_total"], "counter");
  EXPECT_EQ(p.types["pf_audit_drained_total"], "counter");
  EXPECT_EQ(p.types["pf_audit_window_keys"], "gauge");

  std::map<std::string, double> v;
  for (const PromSample& s : p.samples) {
    if (s.labels.empty()) {
      v[s.name] = s.value;
    }
  }
  EXPECT_GT(v["pf_audit_emitted_total"], 0.0);
  EXPECT_GT(v["pf_audit_suppressed_total"], 0.0);
  // Conservation as exposed: emitted == pushed + suppressed; with every
  // ring drained and nothing evicted, pushed == drained.
  EXPECT_EQ(v["pf_audit_emitted_total"],
            v["pf_audit_records_total"] + v["pf_audit_suppressed_total"]);
  EXPECT_EQ(v["pf_audit_records_total"],
            v["pf_audit_drained_total"] + v["pf_audit_ring_drops_total"]);
  EXPECT_GE(v["pf_audit_window_keys"], 1.0);

  if (kTraceCompiledIn) {
    // The companion utilization gauge: one series per allocated ring, a
    // fill fraction in [0, 1].
    size_t util_series = 0;
    for (const PromSample& s : p.samples) {
      if (s.name != "pf_trace_ring_utilization") {
        continue;
      }
      ++util_series;
      ASSERT_TRUE(s.labels.count("ring"));
      EXPECT_EQ(s.labels.at("ring").rfind("worker-", 0), 0u);
      EXPECT_GE(s.value, 0.0);
      EXPECT_LE(s.value, 1.0);
    }
    EXPECT_GT(util_series, 0u) << "a traced run must expose ring utilization";
  }
}

TEST(TraceExportTest, MetricsTextParsesEvenWithoutTraffic) {
  sim::Kernel kernel(0x5eed);
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  core::Engine* engine = core::InstallProcessFirewall(kernel);
  PromParse p = ParsePrometheus(engine->MetricsText());
  for (const std::string& e : p.errors) {
    ADD_FAILURE() << e;
  }
  EXPECT_FALSE(p.samples.empty());
}

}  // namespace
}  // namespace pf::trace
