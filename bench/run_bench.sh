#!/usr/bin/env sh
# Runs the engine-focused benchmarks and appends their machine-readable
# outputs as one record to BENCH_engine.json, the per-commit trajectory:
#
#   table6_lmbench   us/op for every (syscall, config) cell, incl. VCACHE
#   table7_macro     macro means + PF Full verdict-cache hit/miss/bypass
#   ablation_engine  BM_AuthorizeVerdictCache* (ns/op + rate counters),
#                    scan vs indexed evaluator latency over rule-base size,
#                    BM_CompileProgram + BM_VerifyProgram (commit-time costs)
#   pfcheck          static-analyzer wall time over the shipped rule base
#
# The output file is a JSON list of records, oldest first. Each record is
# keyed by "commit" (the short hash of HEAD) and "dirty" (true when tracked
# files had uncommitted changes, i.e. the numbers describe HEAD plus the
# working tree). A rerun with the same key replaces that record; any other
# run appends.
#
# Usage: bench/run_bench.sh [build-dir] [output.json]
# (run from the repository root; build the default preset first:
#  cmake --preset default && cmake --build build -j)
set -eu

BUILD="${1:-build}"
OUT="${2:-BENCH_engine.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/bench/table6_lmbench" --json "$TMP/table6.json"
"$BUILD/bench/table7_macro" --json "$TMP/table7.json"
# Medians of 3 repetitions: the dispatch-cost and verifier-share summary
# numbers gate CI, and single-shot runs swing +-20% on shared machines.
"$BUILD/bench/ablation_engine" \
  --benchmark_filter='BM_AuthorizeVerdictCache|BM_AuthorizeCompiled|BM_CompileProgram|BM_VerifyProgram|BM_IncrementalCommit|BM_BuildSymbolicModel' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_out="$TMP/ablation.json" --benchmark_out_format=json
"$BUILD/src/apps/pfcheck" --library --json > "$TMP/pfcheck.json"

COMMIT="$(git rev-parse --short HEAD)"
DIRTY=false
git diff --quiet HEAD -- || DIRTY=true

python3 - "$TMP" "$OUT" "$COMMIT" "$DIRTY" <<'EOF'
import datetime, json, sys, os

tmp, out_path, commit, dirty = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
out = {
    "commit": commit,
    "dirty": dirty == "true",
    "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
}
for name in ("table6", "table7"):
    with open(os.path.join(tmp, name + ".json")) as f:
        out.update(json.load(f))

with open(os.path.join(tmp, "ablation.json")) as f:
    ab = json.load(f)
out["ablation_engine"] = {
    b["name"].removesuffix("_median"): {
        "ns_per_op": b["real_time"],
        **{k: b[k] for k in ("hit_rate", "miss_rate", "bypass_rate", "state_hits",
                             "arena_words", "automata_ns",
                             "delta_commits", "full_commits", "regions")
           if k in b},
    }
    for b in ab.get("benchmarks", [])
    if b.get("aggregate_name") == "median"
}

with open(os.path.join(tmp, "pfcheck.json")) as f:
    out["pfcheck"] = json.load(f)["pfcheck"]

# Headline acceptance numbers, precomputed for easy inspection.
t6 = out["table6"]
ae = out["ablation_engine"]
out["summary"] = {
    "analyzer_us": out["pfcheck"]["analysis_us"],
    "stat_full_us": t6["stat"]["FULL"],
    "stat_eptspc_us": t6["stat"]["EPTSPC"],
    "stat_vcache_us": t6["stat"]["VCACHE"],
    "open_close_full_us": t6["open+close"]["FULL"],
    "open_close_eptspc_us": t6["open+close"]["EPTSPC"],
    "open_close_vcache_us": t6["open+close"]["VCACHE"],
    "macro_vcache_hit_rate": out["table7"]["vcache"]["hit_rate"],
    "macro_hit_rate": out["table7"]["vcache"]["hit_rate"],
    "macro_state_hits": out["table7"]["vcache"].get("state_hits"),
    "macro_bypasses": out["table7"]["vcache"].get("bypasses"),
    # The evaluator: cache-miss Authorize over the 1218-rule base, linear
    # scan and entrypoint-indexed (ns/op), the one-time lowering cost, and
    # the load-time verifier's share of it.
    "authorize_compiled_1218_ns":
        ae.get("BM_AuthorizeCompiledScan/1218", {}).get("ns_per_op"),
    "authorize_compiled_indexed_1218_ns":
        ae.get("BM_AuthorizeCompiledIndexed/1218", {}).get("ns_per_op"),
    "compile_program_1218_ns": ae.get("BM_CompileProgram/1218", {}).get("ns_per_op"),
    "verify_program_1218_ns": ae.get("BM_VerifyProgram/1218", {}).get("ns_per_op"),
    "verify_us": out["pfcheck"].get("verify_us"),
}

# Symbolic decision-space model (DESIGN.md "Symbolic decision-space
# analysis"): full-partition build time over the paper's 1218-rule PF Full
# base (CI budget: < 250 ms) and its scaling point at 100k rules, plus the
# shipped library's numbers from pfcheck's exact tier.
sym_1218_ns = ae.get("BM_BuildSymbolicModel/1218", {}).get("ns_per_op")
sym_100k_ns = ae.get("BM_BuildSymbolicModel/100000", {}).get("ns_per_op")
out["summary"].update({
    "symbolic_analysis_us": sym_1218_ns / 1e3 if sym_1218_ns else None,
    "symbolic_analysis_100k_us": sym_100k_ns / 1e3 if sym_100k_ns else None,
    "symbolic_regions_1218": ae.get("BM_BuildSymbolicModel/1218", {}).get("regions"),
    "symbolic_regions_100k": ae.get("BM_BuildSymbolicModel/100000", {}).get("regions"),
    "symbolic_library_us": out["pfcheck"].get("symbolic", {}).get("analysis_us"),
    "symbolic_library_regions": out["pfcheck"].get("symbolic", {}).get("regions"),
})

# Scaling + incremental commits (DESIGN.md §5g): the headline is flat
# indexed authorize latency at 100k rules (CI gates within 3x of the
# 1218-rule base) and a one-edit delta commit well under the from-scratch
# relower (>= 20x acceptance; CI gates at <= 5% of full).
compile_100k = ae.get("BM_CompileProgram/100000", {}).get("ns_per_op")
delta_100k = ae.get("BM_IncrementalCommit/100000", {}).get("ns_per_op")
out["summary"].update({
    "authorize_compiled_indexed_100k_ns":
        ae.get("BM_AuthorizeCompiledIndexed/100000", {}).get("ns_per_op"),
    "authorize_compiled_indexed_200k_ns":
        ae.get("BM_AuthorizeCompiledIndexed/200000", {}).get("ns_per_op"),
    "authorize_compiled_scan_100k_ns":
        ae.get("BM_AuthorizeCompiledScan/100000", {}).get("ns_per_op"),
    "compile_program_100k_ns": compile_100k,
    "incremental_commit_1edit_ns": delta_100k,
    "delta_commit_speedup_100k": (compile_100k / delta_100k
                                  if compile_100k and delta_100k else None),
})

# Tracing tax (DESIGN.md §5e): full tracepoint streams on vs. off, measured
# by the table6 trace rider. The acceptance bound is stat/FULL < +15%.
tt = out.get("table6_trace", {})
out["summary"]["trace_overhead_pct"] = (
    tt.get("stat", {}).get("FULL", {}).get("overhead_pct"))
out["summary"]["trace_overhead_vcache_pct"] = (
    tt.get("stat", {}).get("VCACHE", {}).get("overhead_pct"))
traced_1218 = ae.get("BM_AuthorizeCompiledTraced/1218", {}).get("ns_per_op")
out["summary"]["authorize_traced_1218_ns"] = traced_1218

# STATE-protocol automata (DESIGN.md §5i): the commit-time price of the
# lowering pass and its coverage from pfcheck's automata block. The pass
# self-times into the automata_ns counter; its share of the rest of the
# compile is what CI gates at < +10% (the ablated-build delta is kept as a
# reference number — it is noisier than the bound on shared machines).
compile_1218 = ae.get("BM_CompileProgram/1218", {}).get("ns_per_op")
compile_noauto_1218 = ae.get("BM_CompileProgramNoAutomata/1218", {}).get("ns_per_op")
automata_ns_1218 = ae.get("BM_CompileProgram/1218", {}).get("automata_ns")
out["summary"].update({
    "compile_noautomata_1218_ns": compile_noauto_1218,
    "automata_pass_share_pct": (
        100.0 * automata_ns_1218 / (compile_1218 - automata_ns_1218)
        if compile_1218 and automata_ns_1218 else None),
    "automata_compile_overhead_pct": (
        100.0 * (compile_1218 - compile_noauto_1218) / compile_noauto_1218
        if compile_1218 and compile_noauto_1218 else None),
    "automata_lowered_rules": out["pfcheck"].get("automata", {}).get("lowered_rules"),
    "automata_bypass_rules": out["pfcheck"].get("automata", {}).get("bypass_rules"),
    "automata_protocols": out["pfcheck"].get("automata", {}).get("protocols"),
})

records = []
if os.path.exists(out_path):
    with open(out_path) as f:
        records = json.load(f)
records = [r for r in records
           if (r.get("commit"), r.get("dirty")) != (out["commit"], out["dirty"])]
records.append(out)
with open(out_path, "w") as f:
    json.dump(records, f, indent=2)
    f.write("\n")
print(f"appended {commit}{' (dirty)' if out['dirty'] else ''} to {out_path} "
      f"({len(records)} records)")
print(json.dumps(out["summary"], indent=2))
EOF
