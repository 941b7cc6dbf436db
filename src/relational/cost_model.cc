#include "relational/cost_model.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace qimap {

CostModel CostModel::FromInstance(const Instance& inst) {
  CostModel model;
  const Schema& schema = *inst.schema();
  model.relations.reserve(schema.size());
  for (RelationId r = 0; r < schema.size(); ++r) {
    const RelationSymbol& sym = schema.relation(r);
    RelationStats stats;
    stats.name = sym.name;
    stats.arity = sym.arity;
    stats.rows = inst.NumRows(r);
    model.total_facts += stats.rows;
    stats.columns.resize(sym.arity);
    for (uint32_t c = 0; c < sym.arity; ++c) {
      // The store counts each column's distinct values as their chains
      // start, so statistics cost O(columns), not O(cells).
      uint64_t distinct = inst.ColumnDistinct(r, c);
      stats.columns[c].distinct = distinct;
      stats.columns[c].selectivity =
          stats.rows == 0 ? 0.0
                          : static_cast<double>(distinct) /
                                static_cast<double>(stats.rows);
    }
    model.relations.push_back(std::move(stats));
  }
  return model;
}

std::string CostModel::ToJson() const {
  std::string out = "{";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"total_facts\": %" PRIu64 ",",
                total_facts);
  out += buf;
  out += " \"relations\": [";
  for (size_t i = 0; i < relations.size(); ++i) {
    const RelationStats& rel = relations[i];
    if (i > 0) out += ", ";
    out += "{\"name\": ";
    obs::AppendJsonString(&out, rel.name);
    out += ", ";
    std::snprintf(buf, sizeof(buf), "\"arity\": %u, \"rows\": %" PRIu64 ", ",
                  rel.arity, rel.rows);
    out += buf;
    out += "\"columns\": [";
    for (size_t c = 0; c < rel.columns.size(); ++c) {
      if (c > 0) out += ", ";
      std::snprintf(buf, sizeof(buf),
                    "{\"distinct\": %" PRIu64 ", \"selectivity\": %.6f}",
                    rel.columns[c].distinct, rel.columns[c].selectivity);
      out += buf;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string CostModel::ToText() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "cost model: %" PRIu64 " facts\n",
                total_facts);
  out += buf;
  for (const RelationStats& rel : relations) {
    std::snprintf(buf, sizeof(buf), "  %s/%u: %" PRIu64 " rows",
                  rel.name.c_str(), rel.arity, rel.rows);
    out += buf;
    for (size_t c = 0; c < rel.columns.size(); ++c) {
      std::snprintf(buf, sizeof(buf),
                    "%s col%zu distinct=%" PRIu64 " sel=%.3f",
                    c == 0 ? "  " : ",", c, rel.columns[c].distinct,
                    rel.columns[c].selectivity);
      out += buf;
    }
    out += "\n";
  }
  if (relations.empty()) out += "  (empty schema)\n";
  return out;
}

}  // namespace qimap
