// qimap_gen — seeded corpus generator for the qimap pipelines.
//
// Emits `--count` corpus case files (mapping + matched source instance,
// the format docs/dsl.md specifies) into `--out`, one per seed starting
// at `--seed`. The files are consumed by `qimap_cli --case FILE` and by
// the metamorphic containment soak. Generation is deterministic: the
// same flags always produce byte-identical files.
//
// Example:
//   qimap_gen --family lav --topology star --seed 7 --count 20
//       --facts 1000 --out corpus/

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/stat.h>
#include <sys/types.h>

#include "base/version.h"
#include "chase/chase_checkpoint.h"
#include "obs/metrics.h"
#include "obs/run_record.h"
#include "workload/scenario_gen.h"
#include "arg_parse.h"

namespace qimap {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: qimap_gen --family lav|gav|full|mixed --seed N --count N "
      "--facts N --out DIR\n"
      "shape:   --topology chain|star|cycle  lhs join shape (default "
      "chain)\n"
      "         --tgds N            dependencies per mapping (default 4)\n"
      "         --body-atoms N      lhs atoms per dependency (default 3; "
      "LAV pins 1)\n"
      "         --fan-out N         rhs atoms per dependency (default 2; "
      "GAV pins 1)\n"
      "         --arity N           max relation arity (default 3)\n"
      "         --density PCT       shared-variable density 0..100 "
      "(default 60)\n"
      "         --source-relations N --target-relations N  schema sizes "
      "(default 4)\n"
      "         --existentials N    max existential vars (default 2; "
      "full/GAV pin 0)\n"
      "telemetry: --record-out FILE   write the run record as JSON\n"
      "           --ledger FILE       append the same record to the JSONL "
      "run ledger\n"
      "             (QIMAP_LEDGER env sets a default path)\n"
      "           --quiet             suppress the per-file lines\n"
      "Flags accept both --key value and --key=value.\n");
  return 2;
}

const tools::ArgSpec& GenSpec() {
  static const tools::ArgSpec kSpec = [] {
    tools::ArgSpec spec;
    spec.value_flags = {"family",       "topology", "seed",
                        "count",        "facts",    "out",
                        "tgds",         "body-atoms", "fan-out",
                        "arity",        "density",  "source-relations",
                        "target-relations", "existentials",
                        "record-out",   "ledger"};
    spec.bool_flags = {"quiet", "help", "version"};
    return spec;
  }();
  return kSpec;
}

// Strict numeric flag: garbage must fail the invocation, not generate a
// silently different corpus.
bool GetUint(const tools::ParsedArgs& args, const char* key,
             uint64_t fallback, uint64_t* out) {
  const char* text = args.Get(key);
  if (text == nullptr) {
    *out = fallback;
    return true;
  }
  if (!tools::ParseUint64(text, out)) {
    std::fprintf(stderr,
                 "qimap_gen: --%s expects a non-negative integer, got "
                 "'%s'\n",
                 key, text);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  tools::ParsedArgs args;
  std::string error;
  if (!tools::ParseArgs(argc, argv, 1, GenSpec(), &args, &error)) {
    std::fprintf(stderr, "qimap_gen: %s (see --help for the flag list)\n",
                 error.c_str());
    return 2;
  }
  if (args.Has("help")) return Usage();
  if (args.Has("version")) {
    std::printf("qimap %s\n", VersionString());
    return 0;
  }

  const char* family_text = args.Get("family");
  const char* out_dir = args.Get("out");
  if (family_text == nullptr || out_dir == nullptr) {
    std::fprintf(stderr, "qimap_gen: --family and --out are required\n");
    return Usage();
  }

  ScenarioConfig config;
  {
    Result<ScenarioFamily> family = ParseScenarioFamily(family_text);
    if (!family.ok()) {
      std::fprintf(stderr, "qimap_gen: %s\n",
                   family.status().ToString().c_str());
      return 2;
    }
    config.family = *family;
  }
  {
    Result<BodyTopology> topology =
        ParseBodyTopology(args.Get("topology", "chain"));
    if (!topology.ok()) {
      std::fprintf(stderr, "qimap_gen: %s\n",
                   topology.status().ToString().c_str());
      return 2;
    }
    config.topology = *topology;
  }

  uint64_t seed = 0, count = 1, facts = 16;
  uint64_t tgds = 4, body_atoms = 3, fan_out = 2, arity = 3, density = 60;
  uint64_t source_relations = 4, target_relations = 4, existentials = 2;
  if (!GetUint(args, "seed", 1, &seed) ||
      !GetUint(args, "count", 1, &count) ||
      !GetUint(args, "facts", 16, &facts) ||
      !GetUint(args, "tgds", 4, &tgds) ||
      !GetUint(args, "body-atoms", 3, &body_atoms) ||
      !GetUint(args, "fan-out", 2, &fan_out) ||
      !GetUint(args, "arity", 3, &arity) ||
      !GetUint(args, "density", 60, &density) ||
      !GetUint(args, "source-relations", 4, &source_relations) ||
      !GetUint(args, "target-relations", 4, &target_relations) ||
      !GetUint(args, "existentials", 2, &existentials)) {
    return 2;
  }
  if (density > 100) {
    std::fprintf(stderr,
                 "qimap_gen: --density is a percentage (0..100), got "
                 "%llu\n",
                 static_cast<unsigned long long>(density));
    return 2;
  }
  config.num_tgds = static_cast<size_t>(tgds);
  config.body_atoms = static_cast<size_t>(body_atoms);
  config.fan_out = static_cast<size_t>(fan_out);
  config.max_arity = static_cast<uint32_t>(arity);
  config.shared_var_density = static_cast<uint32_t>(density);
  config.num_source_relations = static_cast<size_t>(source_relations);
  config.num_target_relations = static_cast<size_t>(target_relations);
  config.max_existential_vars = static_cast<size_t>(existentials);

  // The run record: --record-out writes it, --ledger (or QIMAP_LEDGER)
  // appends the same object, same contract as qimap_cli.
  const char* record_out = args.Get("record-out", "");
  const char* ledger_path = args.Get("ledger");
  if (ledger_path == nullptr) ledger_path = std::getenv("QIMAP_LEDGER");
  if (ledger_path == nullptr) ledger_path = "";
  auto run_start = std::chrono::steady_clock::now();

  static const obs::MetricId kCases = obs::RegisterCounter("gen.cases");
  static const obs::MetricId kFacts = obs::RegisterCounter("gen.facts");
  static const obs::MetricId kTgds = obs::RegisterCounter("gen.tgds");

  if (mkdir(out_dir, 0775) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "qimap_gen: cannot create directory '%s': %s\n",
                 out_dir, std::strerror(errno));
    return 1;
  }

  int code = 0;
  uint64_t mapping_fp = 0;
  uint64_t source_fp = 0;
  for (uint64_t k = 0; k < count; ++k) {
    uint64_t case_seed = seed + k;
    Scenario scenario =
        GenerateScenario(config, case_seed, static_cast<size_t>(facts));
    if (k == 0) {
      // The record keys on the first case: enough to pair a generation
      // run with the consumer runs that chase its files.
      mapping_fp = DependencyFingerprint(scenario.mapping.tgds,
                                         *scenario.mapping.source,
                                         *scenario.mapping.target);
      source_fp = scenario.source.Fingerprint();
    }
    std::string path = std::string(out_dir) + "/" +
                       ScenarioFamilyName(config.family) + "-" +
                       BodyTopologyName(config.topology) + "-" +
                       std::to_string(case_seed) + ".case";
    if (!obs::WriteFileAtomic(path.c_str(),
                              CorpusCaseToString(scenario))) {
      std::fprintf(stderr, "qimap_gen: cannot write '%s'\n", path.c_str());
      code = 1;
      break;
    }
    obs::CounterAdd(kCases);
    obs::CounterAdd(kFacts, scenario.source.NumFacts());
    obs::CounterAdd(kTgds, scenario.mapping.tgds.size());
    if (!args.Has("quiet")) {
      std::printf("%s  (%zu tgds, %zu facts)\n", path.c_str(),
                  scenario.mapping.tgds.size(),
                  scenario.source.NumFacts());
    }
  }
  if (code == 0 && !args.Has("quiet")) {
    std::printf("wrote %llu case(s) to %s\n",
                static_cast<unsigned long long>(count), out_dir);
  }

  if (*record_out != '\0' || *ledger_path != '\0') {
    double elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    obs::RunRecord record =
        obs::CollectRunRecord("gen", nullptr, code, elapsed_seconds);
    record.mapping_fingerprint = mapping_fp;
    record.source_fingerprint = source_fp;
    if (!obs::PublishRunRecord(&record, record_out, ledger_path,
                               "qimap_gen") &&
        code == 0) {
      code = 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace qimap

int main(int argc, char** argv) { return qimap::Main(argc, argv); }
