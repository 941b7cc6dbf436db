// qimap_cli — command-line front end for the qimap library.
//
// Subcommands (all take --source/--target schema declarations and --tgds):
//   chase              --instance "P(a,b)"         print chase_Sigma(I)
//   quasi-inverse                                  run algorithm QuasiInverse
//   lav-quasi-inverse                              run the Theorem 4.7 construction
//   inverse                                        run algorithm Inverse
//   verify             --reverse "..." [--mode quasi|inverse]
//                      [--domain a,b] [--max-facts 2]
//   roundtrip          --reverse "..." --instance "P(a,b)"
//   analyze            [--domain a,b] [--max-facts 2]   invertibility report
//   explain            --instance "P(a,b)" [--fact "Q(a,b)"]
//                      [--format tree|json] [--explain-out FILE]
//                          derivation trees for the chase output
//   contains           --contained-in "P(x,y,z) -> Q(x,y)"
//                          decide Sigma subset-of Sigma' by the chase test
//
// `--case FILE` loads a qimap_gen corpus case (mapping + matched source
// instance) instead of --source/--target/--tgds/--instance.
//
// Example:
//   qimap_cli quasi-inverse --source "P/2" --target "Q/1"
//       --tgds "P(x,y) -> Q(x)"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault.h"
#include "base/strings.h"
#include "base/version.h"
#include "chase/chase.h"
#include "chase/chase_checkpoint.h"
#include "chase/match_plan.h"
#include "relational/cost_model.h"
#include "core/containment.h"
#include "core/framework.h"
#include "core/inverse.h"
#include "core/lav_quasi_inverse.h"
#include "core/quasi_inverse.h"
#include "core/soundness.h"
#include "dependency/parser.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/run_record.h"
#include "obs/trace.h"
#include "relational/instance_enum.h"
#include "workload/scenario_gen.h"
#include "arg_parse.h"

// Like QIMAP_ASSIGN_OR_RETURN but reports to stderr and returns exit code
// 1 (CLI handlers return int).
#define QIMAP_ASSIGN_OR_RETURN_CLI(lhs, expr)                         \
  auto QIMAP_STATUS_CONCAT(_cli_res, __LINE__) = (expr);              \
  if (!QIMAP_STATUS_CONCAT(_cli_res, __LINE__).ok()) {                \
    std::fprintf(stderr, "%s\n",                                      \
                 QIMAP_STATUS_CONCAT(_cli_res, __LINE__)              \
                     .status()                                        \
                     .ToString()                                      \
                     .c_str());                                       \
    return 1;                                                         \
  }                                                                   \
  lhs = std::move(QIMAP_STATUS_CONCAT(_cli_res, __LINE__)).value()

namespace qimap {
namespace {

// Shared resource governor for the whole invocation, built in Main from
// the --deadline-ms/--max-memory-mb/--max-nulls/--max-steps flags (and
// QIMAP_FAULT_PLAN); null when no limit was requested.
Budget* g_budget = nullptr;

// Cost model of the last instance a command chased (set when profiling is
// on): the per-relation cardinality/selectivity summary that rides along
// in the run record as the planner handoff.
std::optional<CostModel> g_cost_model;

// The bounded-space fact limit (--max-facts), parsed strictly in Main.
size_t g_max_facts = 2;

// The corpus case loaded by --case, supplying the mapping (and, for
// commands that chase, the matched source instance) in place of the
// --source/--target/--tgds/--instance flags.
std::optional<Scenario> g_case;

// Command + parsed flags: a thin wrapper over the shared tools parser
// (tools/arg_parse.h) keeping the call sites on the old Get/Has idiom.
struct Args {
  std::string command;
  tools::ParsedArgs parsed;

  const char* Get(const std::string& key,
                  const char* fallback = nullptr) const {
    return parsed.Get(key, fallback);
  }

  bool Has(const std::string& key) const { return parsed.Has(key); }
};

// Strict parse for the numeric flags: garbage must be an error, not a
// silent 0 (= "limit off" for the budget flags). So is a value above
// `max`, which the flags in coarse units set so that converting to the
// budget's unit cannot wrap to a tiny or vanished limit.
bool ParseLimitFlag(const Args& args, const char* key, uint64_t* out,
                    const char* fallback = "0", uint64_t max = UINT64_MAX) {
  const char* text = args.Get(key, fallback);
  if (!tools::ParseUint64(text, out)) {
    std::fprintf(stderr, "qimap_cli: --%s expects a non-negative integer, "
                 "got '%s'\n", key, text);
    return false;
  }
  if (*out > max) {
    std::fprintf(stderr, "qimap_cli: --%s must be at most %" PRIu64
                 ", got '%s'\n", key, max, text);
    return false;
  }
  return true;
}

// What qimap_cli accepts (report has its own spec, see RunReport).
const tools::ArgSpec& CliSpec() {
  static const tools::ArgSpec kSpec = [] {
    tools::ArgSpec spec;
    spec.value_flags = {
        "source",        "target",      "tgds",        "instance",
        "reverse",       "mode",        "domain",      "max-facts",
        "trace-out",     "record-out",  "journal-out", "fact",
        "format",        "explain-out", "deadline-ms",
        "max-memory-mb", "max-nulls",   "max-steps",   "delta",
        "progress-out",  "progress-interval", "ledger",
        "case",          "contained-in", "plan-out"};
    spec.bool_flags = {"verbose", "version", "help", "incremental",
                       "profile", "progress", "quiet", "plan"};
    return spec;
  }();
  return kSpec;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: qimap_cli <chase|quasi-inverse|lav-quasi-inverse|inverse|"
      "verify|roundtrip|analyze|explain|contains|report> \\\n"
      "         --source \"P/2\" --target \"Q/1\" --tgds \"P(x,y) -> "
      "Q(x)\" [options]\n"
      "options: --instance \"P(a,b)\"  --reverse \"Q(x) -> exists y: "
      "P(x,y)\"\n"
      "         --case FILE         load a qimap_gen corpus case (mapping "
      "+ matched\n"
      "             source instance) instead of --source/--target/--tgds/"
      "--instance\n"
      "         --mode quasi|inverse  --domain a,b  --max-facts 2\n"
      "chase:   --incremental --delta \"P(c,d)\"  record a checkpoint "
      "chase of --instance,\n"
      "             add the --delta facts, and resume incrementally "
      "(same output as a\n"
      "             full re-chase; chase.delta.* counters show the "
      "saving)\n"
      "limits:    --max-steps N       shared budget on chase/search steps\n"
      "           --deadline-ms N     wall-clock deadline for the whole "
      "run\n"
      "           --max-memory-mb N   approximate memory budget\n"
      "           --max-nulls N       budget on fresh labeled nulls\n"
      "           (exhaustion exits 1 with a ResourceExhausted status and "
      "a partial-result\n"
      "            summary on stderr; QIMAP_FAULT_PLAN=<site>:<nth>"
      "[:cancel] injects faults)\n"
      "contains:  --contained-in \"P(x,y,z) -> Q(x,y)\"  decide whether "
      "Sigma is\n"
      "             contained in the given dependency set over the same "
      "schemas\n"
      "             (exit 0 = contained, 1 = not; containment.* counters)\n"
      "explain:   --fact \"Q(a,b)\"     explain one fact (default: every "
      "chase fact)\n"
      "           --format tree|json  stdout rendering (default tree)\n"
      "           --explain-out FILE  write the derivation trees as JSON\n"
      "profiling: --profile           per-dependency hot-spot report on "
      "stdout, and the\n"
      "             run record's profile (ranked by backtracks, with a "
      "per-atom\n"
      "             probe-vs-scan breakdown; `analyze --profile --instance "
      "...` also\n"
      "             prints and records a cost-model summary)\n"
      "telemetry: --record-out FILE   write the run record as JSON "
      "(meta, counters,\n"
      "             budget, fingerprints, profile, cost_model)\n"
      "           --trace-out FILE    write a Chrome trace-event JSON "
      "file\n"
      "           --journal-out FILE  write the provenance journal as "
      "JSONL\n"
      "           --verbose           debug logging on stderr\n"
      "progress:  --progress          live heartbeat line on stderr "
      "(TTY only;\n"
      "             QIMAP_PROGRESS_FORCE_TTY=1 overrides; --quiet "
      "suppresses)\n"
      "           --progress-out FILE  stream heartbeats as JSONL\n"
      "           --progress-interval N  steps between heartbeats "
      "(default 4096)\n"
      "ledger:    --ledger FILE       append this run's record to the "
      "JSONL run\n"
      "             ledger (QIMAP_LEDGER env sets a default path)\n"
      "           report list [--ledger FILE] [--command C] "
      "[--fingerprint HEX]\n"
      "           report diff [--ledger FILE] [--a N --b N]  diff two "
      "ledger runs\n"
      "             (default: the last two; exit 0 iff no telemetry "
      "deltas)\n"
      "plans:     analyze --plan      print each dependency's compiled "
      "match plan\n"
      "             (step order, point_lookup/probe/scan modes, register "
      "frame;\n"
      "              compiled against --instance when given)\n"
      "           analyze --plan-out FILE  write the plans as JSON "
      "(validated by\n"
      "             telemetry_check --plan)\n"
      "other:     --version           print the library version\n"
      "Flags accept both --key value and --key=value.\n");
  return 2;
}

// Chase options shared by every command that chases: the shared budget.
ChaseOptions LoadChaseOptions() {
  ChaseOptions options;
  options.budget = g_budget;
  return options;
}

// On a budget trip: one stderr line saying which limit ended the run and
// how much of the result survived (`count` things, e.g. facts or rules).
void PrintBudgetSummary(const char* what, size_t count) {
  if (g_budget == nullptr || g_budget->tripped() == BudgetLimit::kNone) {
    return;
  }
  std::fprintf(stderr, "partial %s kept: %zu (budget limit: %s, %s)\n",
               what, count, BudgetLimitName(g_budget->tripped()),
               g_budget->UsageString().c_str());
}

// Parses argv[2..] into args->parsed. Returns false (after printing a
// diagnostic) on an unknown flag, a missing value, or a stray positional.
bool ParseFlags(int argc, char** argv, Args* args) {
  std::string error;
  if (!tools::ParseArgs(argc, argv, 2, CliSpec(), &args->parsed, &error)) {
    std::fprintf(stderr, "qimap_cli: %s (see --help for the flag list)\n",
                 error.c_str());
    return false;
  }
  return true;
}

Result<SchemaMapping> LoadMapping(const Args& args) {
  const char* source = args.Get("source");
  const char* target = args.Get("target");
  const char* tgds = args.Get("tgds");
  if (g_case.has_value()) {
    // --case supplies the whole mapping; --tgds (alone) swaps the
    // dependency set while keeping the case's schemas.
    if (tgds != nullptr) {
      SchemaMapping m = g_case->mapping;
      QIMAP_ASSIGN_OR_RETURN(
          m.tgds, ParseTgds(*m.source, *m.target, tgds));
      return m;
    }
    return g_case->mapping;
  }
  if (source == nullptr || target == nullptr || tgds == nullptr) {
    return Status::InvalidArgument(
        "--source, --target, and --tgds are required (or --case FILE)");
  }
  return ParseMapping(source, target, tgds);
}

BoundedSpace LoadSpace(const Args& args) {
  BoundedSpace space;
  std::vector<std::string> names =
      SplitAndTrim(args.Get("domain", "a,b"), ',');
  space.domain = MakeDomain(names);
  space.max_facts = g_max_facts;
  return space;
}

int RunChase(const Args& args, const SchemaMapping& m) {
  const char* text = args.Get("instance");
  if (text == nullptr && !g_case.has_value()) {
    std::fprintf(stderr, "chase requires --instance (or --case FILE)\n");
    return 2;
  }
  Instance i(m.source);
  if (text != nullptr) {
    QIMAP_ASSIGN_OR_RETURN_CLI(i, ParseInstance(m.source, text));
  } else {
    i = g_case->source;
  }
  ChaseOptions options = LoadChaseOptions();
  Instance partial(m.target);
  if (g_budget != nullptr) options.partial_out = &partial;
  if (args.Has("incremental")) {
    // Record a checkpoint chase of --instance, grow the instance by the
    // --delta facts, and resume — the printed result is byte-identical
    // to chasing the grown instance from scratch, but the resume only
    // pays for the delta (chase.delta.* counters show the saving).
    const char* delta_text = args.Get("delta");
    if (delta_text == nullptr) {
      std::fprintf(stderr, "chase --incremental requires --delta\n");
      return 2;
    }
    QIMAP_ASSIGN_OR_RETURN_CLI(Instance delta,
                               ParseInstance(m.source, delta_text));
    ChaseCheckpoint checkpoint;
    options.incremental = &checkpoint;
    Result<Instance> recorded = Chase(i, m, options);
    if (!recorded.ok()) {
      std::fprintf(stderr, "%s\n", recorded.status().ToString().c_str());
      PrintBudgetSummary("chase facts", partial.NumFacts());
      return 1;
    }
    i.UnionWith(delta);
    Result<Instance> resumed = Chase(i, m, options);
    if (!resumed.ok()) {
      std::fprintf(stderr, "%s\n", resumed.status().ToString().c_str());
      PrintBudgetSummary("chase facts", partial.NumFacts());
      return 1;
    }
    std::printf("%s\n", resumed->ToString().c_str());
    return 0;
  }
  Result<Instance> u = Chase(i, m, options);
  if (!u.ok()) {
    std::fprintf(stderr, "%s\n", u.status().ToString().c_str());
    PrintBudgetSummary("chase facts", partial.NumFacts());
    return 1;
  }
  if (obs::Profiler::Enabled()) {
    g_cost_model = CostModel::FromInstance(*u);
  }
  std::printf("%s\n", u->ToString().c_str());
  return 0;
}

int RunQuasiInverse(const SchemaMapping& m, bool lav_variant) {
  ReverseMapping partial;
  Result<ReverseMapping> rev = [&] {
    if (lav_variant) {
      LavQuasiInverseOptions options;
      options.budget = g_budget;
      if (g_budget != nullptr) options.partial_out = &partial;
      return LavQuasiInverse(m, options);
    }
    QuasiInverseOptions options;
    options.budget = g_budget;
    if (g_budget != nullptr) options.partial_out = &partial;
    return QuasiInverse(m, options);
  }();
  if (!rev.ok()) {
    std::fprintf(stderr, "%s\n", rev.status().ToString().c_str());
    PrintBudgetSummary("reverse dependencies", partial.deps.size());
    return 1;
  }
  std::printf("%s", rev->ToString().c_str());
  return 0;
}

int RunInverse(const SchemaMapping& m) {
  InverseOptions options;
  options.budget = g_budget;
  ReverseMapping partial;
  if (g_budget != nullptr) options.partial_out = &partial;
  Result<ReverseMapping> rev = InverseAlgorithm(m, options);
  if (!rev.ok()) {
    std::fprintf(stderr, "%s\n", rev.status().ToString().c_str());
    PrintBudgetSummary("reverse dependencies", partial.deps.size());
    return 1;
  }
  std::printf("%s", rev->ToString().c_str());
  return 0;
}

int RunVerify(const Args& args, const SchemaMapping& m) {
  const char* reverse_text = args.Get("reverse");
  if (reverse_text == nullptr) {
    std::fprintf(stderr, "verify requires --reverse\n");
    return 2;
  }
  QIMAP_ASSIGN_OR_RETURN_CLI(ReverseMapping rev,
                             ParseReverseMapping(m, reverse_text));
  EquivKind kind = std::strcmp(args.Get("mode", "quasi"), "inverse") == 0
                       ? EquivKind::kEquality
                       : EquivKind::kSimM;
  FrameworkChecker checker(m, LoadSpace(args));
  Result<BoundedCheckReport> report =
      checker.CheckGeneralizedInverse(rev, kind, kind);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("(%s,%s)-inverse over the bounded space: %s\n",
              EquivKindName(kind), EquivKindName(kind),
              report->holds ? "yes" : "NO");
  if (report->counterexample.has_value()) {
    std::printf("counterexample:\n  I1 = {%s}\n  I2 = {%s}\n  %s\n",
                report->counterexample->i1.ToString().c_str(),
                report->counterexample->i2.ToString().c_str(),
                report->counterexample->detail.c_str());
  }
  return report->holds ? 0 : 1;
}

int RunRoundTrip(const Args& args, const SchemaMapping& m) {
  const char* reverse_text = args.Get("reverse");
  const char* instance_text = args.Get("instance");
  if (reverse_text == nullptr || instance_text == nullptr) {
    std::fprintf(stderr, "roundtrip requires --reverse and --instance\n");
    return 2;
  }
  QIMAP_ASSIGN_OR_RETURN_CLI(ReverseMapping rev,
                             ParseReverseMapping(m, reverse_text));
  QIMAP_ASSIGN_OR_RETURN_CLI(Instance i,
                             ParseInstance(m.source, instance_text));
  DisjunctiveChaseOptions options;
  options.budget = g_budget;
  std::vector<Instance> partial;
  if (g_budget != nullptr) options.partial_out = &partial;
  Result<RoundTrip> checked = CheckRoundTrip(m, rev, i, options);
  if (!checked.ok()) {
    std::fprintf(stderr, "%s\n", checked.status().ToString().c_str());
    PrintBudgetSummary("recovered leaves", partial.size());
    return 1;
  }
  const RoundTrip& trip = *checked;
  std::printf("U  = %s\n", trip.universal.ToString().c_str());
  for (size_t k = 0; k < trip.recovered.size(); ++k) {
    std::printf("V%zu = %s\n", k + 1, trip.recovered[k].ToString().c_str());
  }
  std::printf("sound: %s   faithful: %s\n", trip.sound ? "yes" : "no",
              trip.faithful ? "yes" : "no");
  return trip.sound ? 0 : 1;
}

// Chases --instance with the provenance journal on and prints the
// derivation tree of --fact (or of every fact of the chase result).
int RunExplain(const Args& args, const SchemaMapping& m) {
  const char* text = args.Get("instance");
  if (text == nullptr) {
    std::fprintf(stderr, "explain requires --instance\n");
    return 2;
  }
  const char* format = args.Get("format", "tree");
  bool as_json = std::strcmp(format, "json") == 0;
  if (!as_json && std::strcmp(format, "tree") != 0) {
    std::fprintf(stderr, "explain: --format must be 'tree' or 'json'\n");
    return 2;
  }
  QIMAP_ASSIGN_OR_RETURN_CLI(Instance i, ParseInstance(m.source, text));
  obs::Journal::Enable();
  QIMAP_ASSIGN_OR_RETURN_CLI(Instance u, Chase(i, m, LoadChaseOptions()));
  std::vector<obs::JournalEvent> events = obs::Journal::Events();

  std::vector<std::string> facts;
  const char* fact_flag = args.Get("fact");
  if (fact_flag != nullptr) {
    facts.push_back(fact_flag);
  } else {
    for (const Fact& fact : u.Facts()) {
      facts.push_back(FactToString(*m.target, fact));
    }
  }

  std::string json = "[";
  for (size_t k = 0; k < facts.size(); ++k) {
    std::optional<obs::DerivationNode> tree =
        obs::ExplainFact(events, facts[k]);
    if (!tree.has_value()) {
      std::fprintf(stderr,
                   "explain: no journal event for fact '%s' (is it a "
                   "chase fact?)\n",
                   facts[k].c_str());
      return 1;
    }
    if (k > 0) json += ",";
    json += obs::DerivationToJson(*tree);
    if (!as_json) {
      if (k > 0) std::printf("\n");
      std::printf("%s", obs::DerivationToText(*tree).c_str());
    }
  }
  json += "]";
  if (as_json) std::printf("%s\n", json.c_str());

  const char* explain_out = args.Get("explain-out");
  if (explain_out != nullptr &&
      !obs::WriteFileAtomic(explain_out, json)) {
    std::fprintf(stderr, "qimap_cli: cannot write explain to '%s'\n",
                 explain_out);
    return 1;
  }
  return 0;
}

int RunAnalyze(const Args& args, const SchemaMapping& m) {
  std::printf("Sigma:\n%s", m.ToString().c_str());
  std::printf("class: %s%s%s\n", m.IsLav() ? "LAV " : "",
              m.IsFull() ? "full " : "", m.IsGav() ? "GAV" : "");
  Result<bool> propagation = HasConstantPropagation(m);
  if (propagation.ok()) {
    std::printf("constant propagation: %s\n",
                *propagation ? "holds" : "fails");
  }
  FrameworkChecker checker(m, LoadSpace(args));
  Result<BoundedCheckReport> unique = checker.CheckUniqueSolutions();
  if (unique.ok()) {
    std::printf("unique solutions (bounded): %s\n",
                unique->holds ? "holds" : "fails");
  }
  Result<BoundedCheckReport> subset =
      checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
  if (subset.ok()) {
    std::printf("(~M,~M)-subset property (bounded): %s\n",
                subset->holds ? "holds -> quasi-invertible"
                              : "fails -> no quasi-inverse");
  }
  // Under --profile, chase --instance (when given) so the report covers
  // the mapping's real workload, and summarize the chased instance's
  // cardinalities/selectivities as the planner handoff.
  if (obs::Profiler::Enabled() && args.Get("instance") != nullptr) {
    QIMAP_ASSIGN_OR_RETURN_CLI(
        Instance i, ParseInstance(m.source, args.Get("instance")));
    QIMAP_ASSIGN_OR_RETURN_CLI(Instance u,
                               Chase(i, m, LoadChaseOptions()));
    g_cost_model = CostModel::FromInstance(u);
  }
  // Under --plan, compile each dependency's body against --instance (or
  // an empty source, where every atom degenerates to a zero-extent scan)
  // and dump the step sequence; --plan-out writes the JSON document
  // telemetry_check --plan validates.
  if (args.Has("plan") || args.Get("plan-out") != nullptr) {
    Instance stats_source(m.source);
    if (args.Get("instance") != nullptr) {
      QIMAP_ASSIGN_OR_RETURN_CLI(
          stats_source, ParseInstance(m.source, args.Get("instance")));
    }
    std::string json = "{\n  \"plans\": [";
    for (size_t d = 0; d < m.tgds.size(); ++d) {
      const Tgd& tgd = m.tgds[d];
      MatchPlan plan = CompileMatchPlan(tgd.lhs, stats_source, {}, {});
      std::string text = TgdToString(tgd, *m.source, *m.target);
      if (!text.empty() && text.back() == '\n') text.pop_back();
      std::printf("plan for %s:\n%s", text.c_str(),
                  plan.ToText(*m.source).c_str());
      json += d == 0 ? "\n    " : ",\n    ";
      json += "{\"dependency\": ";
      obs::AppendJsonString(&json, text);
      json += ", \"plan\": " + plan.ToJson(*m.source) + "}";
    }
    json += "\n  ]\n}\n";
    const char* plan_out = args.Get("plan-out");
    if (plan_out != nullptr && !obs::WriteFileAtomic(plan_out, json)) {
      std::fprintf(stderr, "qimap_cli: cannot write %s\n", plan_out);
      return 1;
    }
  }
  return 0;
}

// Decides Sigma subset-of Sigma' (the Calì-Torlone containment test):
// --contained-in gives Sigma' over the same schemas. Exit 0 when the
// containment holds, 1 with the violated dependency and the ground
// counterexample when it does not.
int RunContains(const Args& args, const SchemaMapping& m) {
  const char* super_text = args.Get("contained-in");
  if (super_text == nullptr) {
    std::fprintf(stderr, "contains requires --contained-in\n");
    return 2;
  }
  SchemaMapping super;
  super.source = m.source;
  super.target = m.target;
  QIMAP_ASSIGN_OR_RETURN_CLI(
      super.tgds, ParseTgds(*m.source, *m.target, super_text));
  ContainmentOptions options;
  options.budget = g_budget;
  ContainmentReport partial;
  if (g_budget != nullptr) options.partial_out = &partial;
  Result<ContainmentReport> report = CheckContainment(m, super, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    PrintBudgetSummary("containment verdicts", partial.verdicts.size());
    return 1;
  }
  std::printf("%s\n", report->Summary().c_str());
  if (!report->holds && report->counterexample.has_value()) {
    std::printf("counterexample source instance: %s\n",
                report->counterexample->ToString().c_str());
  }
  return report->holds ? 0 : 1;
}

// --- report: list and diff the run ledger ---------------------------------

bool ReadWholeFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

uint64_t RecordNumber(const obs::JsonValue& rec, const char* key) {
  const obs::JsonValue* v = rec.Find(key);
  return v != nullptr && v->IsNumber() ? static_cast<uint64_t>(v->number_value)
                                       : 0;
}

std::string RecordString(const obs::JsonValue& rec, const char* key) {
  const obs::JsonValue* v = rec.Find(key);
  return v != nullptr && v->IsString() ? v->string_value : std::string();
}

// `report list` / `report diff`: the ledger-backed longitudinal view.
// Runs before any mapping flags are required — report takes no mapping.
int RunReport(int argc, char** argv) {
  std::string action = "list";
  int begin = 2;
  if (argc > 2 && std::strncmp(argv[2], "--", 2) != 0) {
    action = argv[2];
    begin = 3;
  }
  if (action != "list" && action != "diff") {
    std::fprintf(stderr,
                 "qimap_cli: report action must be 'list' or 'diff', got "
                 "'%s'\n",
                 action.c_str());
    return 2;
  }
  tools::ArgSpec spec;
  spec.value_flags = {"ledger", "command", "fingerprint", "a", "b"};
  tools::ParsedArgs args;
  std::string error;
  if (!tools::ParseArgs(argc, argv, begin, spec, &args, &error)) {
    std::fprintf(stderr, "qimap_cli: %s\n", error.c_str());
    return 2;
  }
  const char* path = args.Get("ledger");
  if (path == nullptr) path = std::getenv("QIMAP_LEDGER");
  if (path == nullptr || *path == '\0') {
    std::fprintf(stderr,
                 "qimap_cli: report needs --ledger FILE (or the "
                 "QIMAP_LEDGER environment variable)\n");
    return 2;
  }
  Result<std::vector<std::pair<size_t, obs::JsonValue>>> lines =
      obs::ParseJsonLinesFile(path);
  if (!lines.ok()) {
    std::fprintf(stderr, "qimap_cli: %s: %s\n", path,
                 lines.status().message().c_str());
    return 1;
  }
  std::vector<obs::JsonValue> records;
  for (auto& line : *lines) records.push_back(std::move(line.second));

  if (action == "list") {
    const char* want_command = args.Get("command");
    const char* want_fp = args.Get("fingerprint");
    size_t shown = 0;
    for (const obs::JsonValue& rec : records) {
      std::string command = RecordString(rec, "command");
      std::string fp = RecordString(rec, "mapping_fingerprint");
      if (want_command != nullptr && command != want_command) continue;
      if (want_fp != nullptr && fp != want_fp) continue;
      const obs::JsonValue* budget = rec.Find("budget");
      std::string outcome =
          budget != nullptr ? RecordString(*budget, "outcome") : "";
      const obs::JsonValue* elapsed = rec.Find("elapsed_seconds");
      // Escaped as in JSON (without the quotes), so a control character
      // in the command cannot split the row.
      std::string shown_command;
      obs::AppendJsonString(&shown_command, command);
      shown_command = shown_command.substr(1, shown_command.size() - 2);
      std::printf("%4" PRIu64 "  %-18s exit=%-2" PRIu64 " budget=%-9s "
                  "%8.3fs  map=%s\n",
                  RecordNumber(rec, "seq"), shown_command.c_str(),
                  RecordNumber(rec, "exit_code"), outcome.c_str(),
                  elapsed != nullptr ? elapsed->number_value : 0.0,
                  fp.c_str());
      ++shown;
    }
    std::printf("%zu of %zu ledger runs\n", shown, records.size());
    return 0;
  }

  // diff: --a/--b select records by seq; default is the last two.
  if (records.size() < 2 && (args.Get("a") == nullptr ||
                             args.Get("b") == nullptr)) {
    std::fprintf(stderr,
                 "qimap_cli: report diff needs at least two ledger runs "
                 "(have %zu)\n",
                 records.size());
    return 2;
  }
  uint64_t seq_a = records.size() >= 2
                       ? RecordNumber(records[records.size() - 2], "seq")
                       : 0;
  uint64_t seq_b =
      !records.empty() ? RecordNumber(records.back(), "seq") : 0;
  for (const char* key : {"a", "b"}) {
    const char* text = args.Get(key);
    if (text == nullptr) continue;
    uint64_t value = 0;
    if (!tools::ParseUint64(text, &value)) {
      std::fprintf(stderr,
                   "qimap_cli: --%s expects a ledger seq number, got "
                   "'%s'\n",
                   key, text);
      return 2;
    }
    (*key == 'a' ? seq_a : seq_b) = value;
  }
  const obs::JsonValue* rec_a = nullptr;
  const obs::JsonValue* rec_b = nullptr;
  for (const obs::JsonValue& rec : records) {
    uint64_t seq = RecordNumber(rec, "seq");
    if (seq == seq_a) rec_a = &rec;
    if (seq == seq_b) rec_b = &rec;
  }
  if (rec_a == nullptr || rec_b == nullptr) {
    std::fprintf(stderr,
                 "qimap_cli: ledger '%s' has no run with seq %" PRIu64
                 "\n",
                 path, rec_a == nullptr ? seq_a : seq_b);
    return 2;
  }
  std::vector<std::string> diffs = obs::DiffLedgerEntries(*rec_a, *rec_b);
  std::printf("diff of runs %" PRIu64 " -> %" PRIu64 " (%s)\n", seq_a,
              seq_b, path);
  for (const std::string& line : diffs) {
    std::printf("  %s\n", line.c_str());
  }
  if (diffs.empty()) {
    std::printf("  no telemetry differences\n");
    return 0;
  }
  std::printf("%zu difference(s)\n", diffs.size());
  return 1;
}

int Dispatch(const Args& args, const SchemaMapping& m) {
  if (args.command == "chase") return RunChase(args, m);
  if (args.command == "quasi-inverse") return RunQuasiInverse(m, false);
  if (args.command == "lav-quasi-inverse") return RunQuasiInverse(m, true);
  if (args.command == "inverse") return RunInverse(m);
  if (args.command == "verify") return RunVerify(args, m);
  if (args.command == "roundtrip") return RunRoundTrip(args, m);
  if (args.command == "analyze") return RunAnalyze(args, m);
  if (args.command == "explain") return RunExplain(args, m);
  if (args.command == "contains") return RunContains(args, m);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "--version") == 0) {
    std::printf("qimap %s\n", VersionString());
    return 0;
  }
  if (std::strcmp(argv[1], "--help") == 0) {
    Usage();
    return 0;
  }
  // `report` works off the ledger alone: no mapping flags, no budget.
  if (std::strcmp(argv[1], "report") == 0) return RunReport(argc, argv);
  Args args;
  args.command = argv[1];
  if (!ParseFlags(argc, argv, &args)) return 2;
  if (args.Has("version")) {
    std::printf("qimap %s\n", VersionString());
    return 0;
  }
  if (args.Has("help")) {
    Usage();
    return 0;
  }
  if (args.Has("verbose")) {
    obs::SetLogLevel(obs::LogLevel::kDebug);
    obs::InstallStatusLogging();
    obs::Log(obs::LogLevel::kDebug, "qimap %s, command '%s'",
             VersionString(), args.command.c_str());
  }
  // --case: load a qimap_gen corpus file before anything needs the
  // mapping; LoadMapping and the chasing commands then read g_case.
  const char* case_path = args.Get("case");
  if (case_path != nullptr) {
    std::string case_text;
    if (!ReadWholeFile(case_path, &case_text)) {
      std::fprintf(stderr, "qimap_cli: cannot read case file '%s'\n",
                   case_path);
      return 1;
    }
    Result<Scenario> parsed = ParseCorpusCase(case_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "qimap_cli: %s: %s\n", case_path,
                   parsed.status().ToString().c_str());
      return 1;
    }
    g_case = std::move(parsed).value();
  }
  // Assemble the shared budget from the limit flags (0/absent means the
  // given limit is off) and the QIMAP_FAULT_PLAN environment variable.
  // The budget exists only when something was requested, so ungoverned
  // runs pay nothing.
  BudgetSpec budget_spec;
  uint64_t max_steps = 0, deadline_ms = 0, max_memory_mb = 0, max_nulls = 0;
  if (!ParseLimitFlag(args, "max-steps", &max_steps) ||
      !ParseLimitFlag(args, "deadline-ms", &deadline_ms, "0",
                      UINT64_MAX / 1000) ||
      !ParseLimitFlag(args, "max-memory-mb", &max_memory_mb, "0",
                      SIZE_MAX >> 20) ||
      !ParseLimitFlag(args, "max-nulls", &max_nulls)) {
    return 2;
  }
  budget_spec.max_steps = static_cast<size_t>(max_steps);
  budget_spec.deadline_us = deadline_ms * 1000;
  budget_spec.max_memory_bytes =
      static_cast<size_t>(max_memory_mb) * 1024 * 1024;
  budget_spec.max_nulls = static_cast<size_t>(max_nulls);
  budget_spec.fault_plan = FaultPlan::FromEnv();
  static Cancellation cancellation;
  budget_spec.cancellation = &cancellation;
  bool governed = budget_spec.max_steps != 0 ||
                  budget_spec.deadline_us != 0 ||
                  budget_spec.max_memory_bytes != 0 ||
                  budget_spec.max_nulls != 0 ||
                  budget_spec.fault_plan.active();
  std::optional<Budget> budget;
  if (governed) {
    budget.emplace(budget_spec);
    g_budget = &*budget;
  }

  uint64_t max_facts = 2;
  if (!ParseLimitFlag(args, "max-facts", &max_facts, "2")) return 2;
  g_max_facts = static_cast<size_t>(max_facts);

  // Live heartbeats: --progress renders the stderr status line (TTY-aware,
  // --quiet wins), --progress-out streams every snapshot as JSONL. Either
  // one arms the emitter.
  const char* progress_out = args.Get("progress-out");
  bool progress_line = args.Has("progress") && !args.Has("quiet");
  if (progress_line || progress_out != nullptr) {
    uint64_t interval = 0;
    const char* interval_text = args.Get("progress-interval", "4096");
    if (!tools::ParseUint64(interval_text, &interval) || interval == 0) {
      std::fprintf(stderr,
                   "qimap_cli: --progress-interval expects a positive "
                   "integer, got '%s'\n",
                   interval_text);
      return 2;
    }
    obs::ProgressConfig progress_config;
    progress_config.interval = interval;
    progress_config.stderr_line = progress_line;
    if (progress_out != nullptr) progress_config.jsonl_path = progress_out;
    obs::Progress::Configure(progress_config);
    obs::Progress::Enable();
  }

  // The run record: --record-out writes it, --ledger (or the QIMAP_LEDGER
  // environment variable) appends the same object to the run ledger, on
  // every exit path.
  const char* record_out = args.Get("record-out", "");
  const char* ledger_path = args.Get("ledger");
  if (ledger_path == nullptr) ledger_path = std::getenv("QIMAP_LEDGER");
  if (ledger_path == nullptr) ledger_path = "";
  bool record_on = *record_out != '\0' || *ledger_path != '\0';
  auto run_start = std::chrono::steady_clock::now();

  const char* trace_out = args.Get("trace-out");
  const char* journal_out = args.Get("journal-out");
  if (args.Has("profile")) obs::Profiler::Enable();
  if (trace_out != nullptr) obs::Trace::Enable();
  if (journal_out != nullptr) {
    // Spill-to-JSONL: a full ring flushes to the file mid-run; the final
    // Flush() below appends whatever is still buffered.
    if (!obs::Journal::SetSpillPath(journal_out)) {
      std::fprintf(stderr, "qimap_cli: cannot open journal file '%s'\n",
                   journal_out);
      return 1;
    }
    obs::Journal::Enable();
  }

  int code;
  uint64_t mapping_fp = 0;
  uint64_t source_fp = 0;
  {
    Result<SchemaMapping> mapping = [&] {
      QIMAP_TRACE_SPAN("cli/parse");
      return LoadMapping(args);
    }();
    if (!mapping.ok()) {
      std::fprintf(stderr, "%s\n", mapping.status().ToString().c_str());
      code = 2;
    } else {
      if (record_on) {
        // The record keys cross-run comparisons on what was run on what:
        // the mapping fingerprint and (when given) the source instance's.
        mapping_fp = DependencyFingerprint(mapping->tgds, *mapping->source,
                                           *mapping->target);
        const char* instance_text = args.Get("instance");
        if (instance_text != nullptr) {
          Result<Instance> inst =
              ParseInstance(mapping->source, instance_text);
          if (inst.ok()) source_fp = inst->Fingerprint();
        } else if (g_case.has_value()) {
          source_fp = g_case->source.Fingerprint();
        }
      }
      std::string span_name = "cli/" + args.command;
      QIMAP_TRACE_SPAN(span_name.c_str());
      code = Dispatch(args, *mapping);
    }
  }

  // Under --profile: the ranked hot-spot report (and, when a command
  // chased an instance, the cost-model summary) on stdout after the
  // command's own output.
  if (args.Has("profile")) {
    std::printf("\n%s", obs::Profiler::Snapshot().ToText(0).c_str());
    if (g_cost_model.has_value()) {
      std::printf("\n%s", g_cost_model->ToText().c_str());
    }
  }

  // Telemetry files are written on every exit path (including failures):
  // a failing run's partial trace is exactly what one wants to look at.
  if (trace_out != nullptr && !obs::Trace::WriteJson(trace_out)) {
    std::fprintf(stderr, "qimap_cli: cannot write trace to '%s'\n",
                 trace_out);
    if (code == 0) code = 1;
  }
  if (journal_out != nullptr) {
    bool ok = obs::Journal::Flush();
    // Closing the spill renames `<file>.tmp` into place; until then the
    // journal is not visible under its final name.
    ok = obs::Journal::SetSpillPath("") && ok;
    if (!ok) {
      std::fprintf(stderr, "qimap_cli: cannot write journal to '%s'\n",
                   journal_out);
      if (code == 0) code = 1;
    }
  }
  // Flush the heartbeat stream so the final snapshot is on disk. Only a
  // --progress-out stream can fail to open or write.
  if (!obs::Progress::CloseStream()) {
    std::fprintf(stderr, "qimap_cli: cannot write heartbeats to '%s'\n",
                 progress_out);
    if (code == 0) code = 1;
  }

  // The record is collected once, after every other telemetry file, so it
  // summarizes the run exactly as those artifacts saw it (including a
  // failing exit code); the file and the ledger line are the same object.
  if (record_on) {
    double elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    obs::RunRecord record = obs::CollectRunRecord(
        args.command, g_budget, code, elapsed_seconds);
    record.mapping_fingerprint = mapping_fp;
    record.source_fingerprint = source_fp;
    if (g_cost_model.has_value()) {
      record.cost_model_json = g_cost_model->ToJson();
    }
    if (!obs::PublishRunRecord(&record, record_out, ledger_path,
                               "qimap_cli") &&
        code == 0) {
      code = 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace qimap

int main(int argc, char** argv) { return qimap::Main(argc, argv); }
