#include "relational/schema.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "base/strings.h"

namespace qimap {

Result<RelationId> Schema::AddRelation(std::string_view name,
                                       uint32_t arity) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be nonempty");
  }
  if (arity == 0) {
    return Status::InvalidArgument("relation arity must be positive: " +
                                   std::string(name));
  }
  if (by_name_.count(std::string(name)) > 0) {
    return Status::InvalidArgument("duplicate relation name: " +
                                   std::string(name));
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(RelationSymbol{std::string(name), arity});
  by_name_.emplace(std::string(name), id);
  return id;
}

Result<RelationId> Schema::FindRelation(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return it->second;
}

bool Schema::Contains(std::string_view name) const {
  return by_name_.count(std::string(name)) > 0;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(relations_.size());
  for (const RelationSymbol& r : relations_) {
    parts.push_back(r.name + "/" + std::to_string(r.arity));
  }
  return Join(parts, ", ");
}

Result<Schema> Schema::Parse(std::string_view text) {
  Schema schema;
  for (const std::string& decl : SplitAndTrim(text, ',')) {
    size_t slash = decl.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= decl.size()) {
      return Status::InvalidArgument("bad relation declaration: " + decl);
    }
    std::string name(StripWhitespace(decl.substr(0, slash)));
    std::string arity_str(StripWhitespace(decl.substr(slash + 1)));
    char* end = nullptr;
    errno = 0;
    long long arity = std::strtoll(arity_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || arity <= 0 || errno == ERANGE ||
        arity > static_cast<long long>(UINT32_MAX)) {
      return Status::InvalidArgument("bad arity in declaration: " + decl);
    }
    QIMAP_ASSIGN_OR_RETURN(RelationId unused,
                           schema.AddRelation(name, static_cast<uint32_t>(
                                                        arity)));
    (void)unused;
  }
  return schema;
}

SchemaPtr MakeSchema(std::string_view text) {
  Result<Schema> schema = Schema::Parse(text);
  if (!schema.ok()) {
    std::fprintf(stderr, "MakeSchema(%.*s): %s\n",
                 static_cast<int>(text.size()), text.data(),
                 schema.status().ToString().c_str());
    std::abort();
  }
  return std::make_shared<const Schema>(std::move(schema).value());
}

}  // namespace qimap
