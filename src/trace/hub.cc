#include "src/trace/hub.h"

namespace pf::trace {

std::string_view EventName(Event e) {
  switch (e) {
    case Event::kDecision:
      return "decision";
    case Event::kRule:
      return "rule";
    case Event::kCtxFetch:
      return "ctx_fetch";
    case Event::kVcache:
      return "vcache";
    case Event::kCount:
      break;
  }
  return "?";
}

std::string_view PathName(Path p) {
  switch (p) {
    case Path::kCompiled:
      return "COMPILED";
    case Path::kVcache:
      return "VCACHE";
    case Path::kCount:
      break;
  }
  return "?";
}

void TraceHub::ResetHistograms() {
  for (auto& per_op : histograms_) {
    for (auto& h : per_op) {
      h.Reset();
    }
  }
}

}  // namespace pf::trace
