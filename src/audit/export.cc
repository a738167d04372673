#include "src/audit/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace pf::audit {

namespace {

Kind KindOf(const AuditRecord& rec) {
  return rec.kind < static_cast<uint8_t>(Kind::kCount) ? static_cast<Kind>(rec.kind)
                                                       : Kind::kCount;
}

Tier TierOf(const AuditRecord& rec) {
  return rec.tier < static_cast<uint8_t>(Tier::kCount) ? static_cast<Tier>(rec.tier)
                                                       : Tier::kCount;
}

std::string RuleRef(const AuditRecord& rec) {
  if (rec.chain_id < 0) {
    return "-";
  }
  return std::to_string(rec.chain_id) + ":" + std::to_string(rec.rule_index);
}

}  // namespace

std::string RenderText(const std::vector<AuditRecord>& records,
                       const trace::NameTable& names) {
  std::ostringstream out;
  char buf[80];
  for (const AuditRecord& rec : records) {
    std::snprintf(buf, sizeof(buf), "[%" PRIu64 ".%09" PRIu64 "] w%02u %-12s",
                  rec.ts_ns / uint64_t{1000000000}, rec.ts_ns % uint64_t{1000000000},
                  static_cast<unsigned>(rec.worker),
                  std::string(KindName(KindOf(rec))).c_str());
    out << buf << " pid=" << rec.pid << " op=" << trace::NameTable::OpName(rec.op)
        << " subj=" << names.SidName(rec.subject_sid);
    if (KindOf(rec) == Kind::kPhase) {
      std::snprintf(buf, sizeof(buf), " phase=0x%" PRIx64 "->0x%" PRIx64,
                    rec.astate_in, rec.astate_out);
      out << buf;
    } else {
      if ((rec.flags & kFlagHasObject) != 0) {
        std::snprintf(buf, sizeof(buf), " obj=%s(%u:%" PRIu64 " gen=%" PRIu64 ")",
                      names.SidName(rec.object_sid).c_str(), rec.object_dev,
                      rec.object_ino, rec.object_gen);
        out << buf;
      }
      out << " rule=" << RuleRef(rec) << " tier=" << TierName(TierOf(rec));
      if (TierOf(rec) == Tier::kBypass) {
        std::snprintf(buf, sizeof(buf), " cause=0x%x", rec.cause);
        out << buf;
      }
      if (rec.automaton != kNoAutomaton) {
        std::snprintf(buf, sizeof(buf), " automaton=p%u state=0x%" PRIx64 "->0x%" PRIx64,
                      rec.automaton, rec.astate_in, rec.astate_out);
        out << buf;
      }
    }
    if ((rec.flags & kFlagEptValid) != 0) {
      std::snprintf(buf, sizeof(buf), " ept=%u:%" PRIu64 "+0x%" PRIx64, rec.ept_dev,
                    rec.ept_ino, rec.ept_offset);
      out << buf;
    }
    out << " gen=" << rec.generation;
    if ((rec.flags & kFlagTimed) != 0) {
      out << " ctx=" << rec.ctx_ns << "ns total=" << rec.total_ns << "ns";
    }
    if ((rec.flags & kFlagSuppressedTail) != 0) {
      out << " suppressed=" << rec.suppressed;
    }
    if ((rec.flags & kFlagAnomaly) != 0) {
      out << " ANOMALY";
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderJsonLines(const std::vector<AuditRecord>& records,
                            const trace::NameTable& names) {
  std::ostringstream out;
  for (const AuditRecord& rec : records) {
    out << "{\"ts_ns\":" << rec.ts_ns << ",\"worker\":" << rec.worker
        << ",\"kind\":\"" << KindName(KindOf(rec)) << "\",\"pid\":" << rec.pid
        << ",\"op\":\"" << trace::JsonEscape(trace::NameTable::OpName(rec.op))
        << "\",\"subject\":\"" << trace::JsonEscape(names.SidName(rec.subject_sid))
        << "\",\"object\":\"" << trace::JsonEscape(names.SidName(rec.object_sid))
        << "\",\"object_dev\":" << rec.object_dev << ",\"object_ino\":" << rec.object_ino
        << ",\"object_gen\":" << rec.object_gen << ",\"chain\":" << rec.chain_id
        << ",\"rule\":" << rec.rule_index << ",\"generation\":" << rec.generation
        << ",\"tier\":\"" << TierName(TierOf(rec)) << "\",\"cause\":"
        << static_cast<unsigned>(rec.cause) << ",\"automaton\":"
        << (rec.automaton == kNoAutomaton ? -1 : static_cast<int>(rec.automaton))
        << ",\"astate_in\":" << rec.astate_in << ",\"astate_out\":" << rec.astate_out
        << ",\"ept_valid\":" << (((rec.flags & kFlagEptValid) != 0) ? "true" : "false")
        << ",\"ept_dev\":" << rec.ept_dev << ",\"ept_ino\":" << rec.ept_ino
        << ",\"ept_offset\":" << rec.ept_offset << ",\"ctx_ns\":" << rec.ctx_ns
        << ",\"total_ns\":" << rec.total_ns << ",\"suppressed\":" << rec.suppressed
        << ",\"anomaly\":" << (((rec.flags & kFlagAnomaly) != 0) ? "true" : "false")
        << "}\n";
  }
  return out.str();
}

std::string RenderWindows(const AuditHub& hub, const trace::NameTable& names) {
  std::ostringstream out;
  out << "audit: emitted=" << hub.emitted() << " suppressed=" << hub.suppressed()
      << " ring_drops=" << hub.ring_drops() << " drained=" << hub.drained()
      << " anomalies=" << hub.anomalies() << "\n";
  char buf[80];
  for (const KeyWindow& kw : hub.WindowSnapshot()) {
    out << "  rule=";
    if (kw.key.chain_id < 0) {
      out << "-";
    } else {
      out << kw.key.chain_id << ":" << kw.key.rule_index;
    }
    out << " subj=" << names.SidName(kw.key.subject_sid);
    if (kw.key.ept_ino != 0) {
      std::snprintf(buf, sizeof(buf), " ept=%" PRIu64 "+0x%" PRIx64, kw.key.ept_ino,
                    kw.key.ept_offset);
      out << buf;
    }
    out << " total=" << kw.total << " window=" << kw.window_count
        << " trailing=" << kw.trailing_count << " suppressed=" << kw.suppressed
        << (kw.anomaly ? " ANOMALY" : "") << "\n";
  }
  return out.str();
}

void WriteAuditFamilies(trace::PromWriter& w, const AuditHub& hub) {
  w.Family("pf_audit_records_total", "Audit records admitted into the per-worker rings",
           "counter");
  w.Counter("pf_audit_records_total", {}, hub.records());
  w.Family("pf_audit_emitted_total",
           "Audit records emitted by the engine (admitted + suppressed)", "counter");
  w.Counter("pf_audit_emitted_total", {}, hub.emitted());
  w.Family("pf_audit_suppressed_total",
           "Audit records collapsed by per-rule token-bucket suppression", "counter");
  w.Counter("pf_audit_suppressed_total", {}, hub.suppressed());
  w.Family("pf_audit_ring_drops_total", "Audit records evicted unread from full rings",
           "counter");
  w.Counter("pf_audit_ring_drops_total", {}, hub.ring_drops());
  w.Family("pf_audit_drained_total", "Audit records consumed by drains", "counter");
  w.Counter("pf_audit_drained_total", {}, hub.drained());
  w.Family("pf_audit_anomalies_total",
           "Aggregation keys whose deny-rate window spiked past its trailing window",
           "counter");
  w.Counter("pf_audit_anomalies_total", {}, hub.anomalies());
  w.Family("pf_audit_window_keys", "Aggregation keys with live deny-rate windows",
           "gauge");
  w.Gauge("pf_audit_window_keys", {}, static_cast<double>(hub.window_keys()));
}

}  // namespace pf::audit
