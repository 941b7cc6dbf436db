#include "base/fault.h"

#include <cstdlib>

namespace qimap {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kNone:
      return "none";
    case FaultSite::kAllocCheckpoint:
      return "alloc";
    case FaultSite::kTriggerBatch:
      return "batch";
    case FaultSite::kPoolTask:
      return "task";
  }
  return "none";
}

std::string FaultPlan::ToString() const {
  if (!active()) return "none";
  std::string text = FaultSiteName(site);
  text += ":" + std::to_string(nth);
  if (cancel) text += ":cancel";
  return text;
}

Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  auto bad = [&text]() {
    return Status::InvalidArgument(
        "bad fault plan \"" + std::string(text) +
        "\"; expected <site>:<nth>[:cancel] with site in {alloc, batch, "
        "task}, e.g. \"alloc:3\" or \"task:5:cancel\"");
  };
  size_t colon = text.find(':');
  if (colon == std::string_view::npos) return bad();
  std::string_view site_text = text.substr(0, colon);
  std::string_view rest = text.substr(colon + 1);

  FaultPlan plan;
  if (site_text == "alloc") {
    plan.site = FaultSite::kAllocCheckpoint;
  } else if (site_text == "batch") {
    plan.site = FaultSite::kTriggerBatch;
  } else if (site_text == "task") {
    plan.site = FaultSite::kPoolTask;
  } else {
    return bad();
  }

  size_t action = rest.find(':');
  if (action != std::string_view::npos) {
    if (rest.substr(action + 1) != "cancel") return bad();
    plan.cancel = true;
    rest = rest.substr(0, action);
  }
  if (rest.empty()) return bad();
  uint64_t nth = 0;
  for (char c : rest) {
    if (c < '0' || c > '9') return bad();
    uint64_t digit = static_cast<uint64_t>(c - '0');
    // An ordinal past 2^64 - 1 must not wrap to a small one.
    if (nth > (UINT64_MAX - digit) / 10) return bad();
    nth = nth * 10 + digit;
  }
  if (nth == 0) return bad();
  plan.nth = nth;
  return plan;
}

FaultPlan FaultPlan::FromEnv() {
  const char* env = std::getenv("QIMAP_FAULT_PLAN");
  if (env == nullptr || *env == '\0') return FaultPlan{};
  Result<FaultPlan> parsed = Parse(env);
  if (!parsed.ok()) return FaultPlan{};
  return *parsed;
}

}  // namespace qimap
