#include "relational/instance.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "base/strings.h"

namespace qimap {
namespace {

// Mixes one fact into the instance fingerprint. XOR-combining the
// per-fact hashes keeps the fingerprint independent of insertion order
// (set semantics); the splitmix64 finalizer spreads the combined tuple
// hash so single-value differences flip many bits. `tuple_hash` is the
// row's TupleHash — the slot table caches it, so fingerprint maintenance
// never re-reads cells.
uint64_t FactFingerprint(RelationId relation, uint64_t tuple_hash) {
  uint64_t h = (static_cast<uint64_t>(relation) << 32) ^ tuple_hash;
  h += 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

// Mixes a `(column, value)` key for the chain table. The value's own hash
// is its (kind, id) word, whose low bits alone would put one value's
// columns in neighbouring slots; the multiply and fold spread them.
uint64_t ChainHash(uint32_t col, const Value& v) {
  uint64_t h = (static_cast<uint64_t>(col) << 40) ^ ValueHash{}(v);
  h *= 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

}  // namespace

bool Instance::RelationStore::RowEquals(uint32_t row,
                                        const Tuple& tuple) const {
  const Value* cell = cells.data() + static_cast<size_t>(row) * arity;
  for (uint32_t c = 0; c < arity; ++c) {
    if (!(cell[c] == tuple[c])) return false;
  }
  return true;
}

uint32_t Instance::RelationStore::Find(const Tuple& tuple,
                                       uint64_t hash) const {
  if (slots.empty()) return kNoRow;
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t row = slots[i];
    if (row == kNoRow) return kNoRow;
    if (hashes[row] == hash && RowEquals(row, tuple)) return row;
  }
}

void Instance::RelationStore::IndexNewRow(uint32_t row_id, uint64_t hash) {
  // Grow before the load factor crosses 7/8; capacity stays a power of
  // two so probing can mask instead of mod.
  if ((static_cast<size_t>(num_rows) + 1) * 8 >= slots.size() * 7) {
    size_t capacity = slots.empty() ? 16 : slots.size() * 2;
    std::vector<uint32_t> grown(capacity, kNoRow);
    const size_t mask = capacity - 1;
    for (uint32_t row = 0; row < num_rows; ++row) {
      size_t i = hashes[row] & mask;
      while (grown[i] != kNoRow) i = (i + 1) & mask;
      grown[i] = row;
    }
    slots = std::move(grown);
  }
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i] != kNoRow) i = (i + 1) & mask;
  slots[i] = row_id;
}

size_t Instance::RelationStore::ChainSlot(uint32_t col,
                                          const Value& v) const {
  const size_t mask = chains.size() - 1;
  size_t i = ChainHash(col, v) & mask;
  while (chains[i].count != 0 &&
         !(chains[i].col == col && chains[i].value == v)) {
    i = (i + 1) & mask;
  }
  return i;
}

void Instance::RelationStore::LinkNewRow(uint32_t row_id) {
  const size_t base = static_cast<size_t>(row_id) * arity;
  for (uint32_t c = 0; c < arity; ++c) {
    // The slot table's 7/8 growth rule, checked per cell since each cell
    // may start a chain.
    if ((static_cast<size_t>(num_chains) + 1) * 8 >= chains.size() * 7) {
      size_t capacity = chains.empty() ? 16 : chains.size() * 2;
      std::vector<Chain> previous =
          std::exchange(chains, std::vector<Chain>(capacity));
      for (const Chain& chain : previous) {
        if (chain.count != 0) chains[ChainSlot(chain.col, chain.value)] = chain;
      }
    }
    const Value& v = cells[base + c];
    Chain& chain = chains[ChainSlot(c, v)];
    if (chain.count == 0) {
      chain.value = v;
      chain.col = c;
      chain.head = row_id;
      ++num_chains;
      ++distinct[c];
    } else {
      next[static_cast<size_t>(chain.tail) * arity + c] = row_id;
    }
    chain.tail = row_id;
    ++chain.count;
  }
}

Status Instance::AddFact(RelationId relation, Tuple tuple) {
  if (relation >= schema_->size()) {
    return Status::InvalidArgument("bad relation id");
  }
  const RelationSymbol& symbol = schema_->relation(relation);
  if (tuple.size() != symbol.arity) {
    return Status::InvalidArgument(
        "arity mismatch for " + symbol.name + ": got " +
        std::to_string(tuple.size()) + ", want " +
        std::to_string(symbol.arity));
  }
  RelationStore& store = stores_[relation];
  const uint64_t hash = TupleHash{}(tuple);
  if (store.Find(tuple, hash) != kNoRow) {
    return Status::OK();  // duplicate absorbed
  }
  const uint32_t row_id = store.num_rows;
  store.hashes.push_back(hash);
  store.IndexNewRow(row_id, hash);
  store.cells.insert(store.cells.end(), tuple.begin(), tuple.end());
  store.next.resize(store.next.size() + symbol.arity, kNoRow);
  store.LinkNewRow(row_id);
  ++store.num_rows;
  fingerprint_ ^= FactFingerprint(relation, hash);
  return Status::OK();
}

Status Instance::AddFact(std::string_view relation_name, Tuple tuple) {
  QIMAP_ASSIGN_OR_RETURN(RelationId id,
                         schema_->FindRelation(relation_name));
  return AddFact(id, std::move(tuple));
}

bool Instance::ContainsFact(RelationId relation, const Tuple& tuple) const {
  if (relation >= stores_.size()) return false;
  const RelationStore& store = stores_[relation];
  if (tuple.size() != store.arity) return false;
  return store.Find(tuple, TupleHash{}(tuple)) != kNoRow;
}

Tuple Instance::Row(RelationId relation, uint32_t row) const {
  const RelationStore& store = stores_[relation];
  auto first = store.cells.begin() + static_cast<ptrdiff_t>(row) * store.arity;
  return Tuple(first, first + store.arity);
}

Instance::PostingList Instance::RowsWith(RelationId relation, uint32_t col,
                                         const Value& v) const {
  const RelationStore& store = stores_[relation];
  if (store.chains.empty()) return PostingList();
  // A free slot (head kNoRow, count 0) reads as the empty list.
  const RelationStore::Chain& chain = store.chains[store.ChainSlot(col, v)];
  return PostingList(store.next.data() + col, store.arity, chain.head,
                     chain.count);
}

size_t Instance::NumFacts() const {
  size_t n = 0;
  for (const RelationStore& store : stores_) n += store.num_rows;
  return n;
}

std::vector<uint32_t> Instance::RowCounts() const {
  std::vector<uint32_t> counts(stores_.size());
  for (RelationId r = 0; r < stores_.size(); ++r) {
    counts[r] = stores_[r].num_rows;
  }
  return counts;
}

bool Instance::IsValidEpoch(const std::vector<uint32_t>& counts) const {
  if (counts.size() != stores_.size()) return false;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    if (counts[r] > stores_[r].num_rows) return false;
  }
  return true;
}

uint64_t Instance::PrefixFingerprint(
    const std::vector<uint32_t>& counts) const {
  uint64_t fp = 0;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    const RelationStore& store = stores_[r];
    uint32_t limit = std::min(counts[r], store.num_rows);
    for (uint32_t i = 0; i < limit; ++i) {
      fp ^= FactFingerprint(r, store.hashes[i]);
    }
  }
  return fp;
}

size_t Instance::NumFactsSince(const std::vector<uint32_t>& counts) const {
  size_t n = 0;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    n += stores_[r].num_rows - counts[r];
  }
  return n;
}

std::vector<Tuple> Instance::SortedRows(RelationId relation) const {
  const RelationStore& store = stores_[relation];
  std::vector<Tuple> sorted;
  sorted.reserve(store.num_rows);
  for (uint32_t i = 0; i < store.num_rows; ++i) {
    sorted.push_back(Row(relation, i));
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<Fact> Instance::Facts() const {
  std::vector<Fact> out;
  out.reserve(NumFacts());
  for (RelationId r = 0; r < stores_.size(); ++r) {
    for (Tuple& t : SortedRows(r)) {
      out.push_back(Fact{r, std::move(t)});
    }
  }
  return out;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::set<Value> domain;
  for (const RelationStore& store : stores_) {
    domain.insert(store.cells.begin(), store.cells.end());
  }
  return std::vector<Value>(domain.begin(), domain.end());
}

bool Instance::IsGround() const {
  for (const RelationStore& store : stores_) {
    for (const Value& v : store.cells) {
      if (!v.IsConstant()) return false;
    }
  }
  return true;
}

uint32_t Instance::MaxNullLabel() const {
  uint32_t max_label = 0;
  for (const RelationStore& store : stores_) {
    for (const Value& v : store.cells) {
      if (v.IsNull()) max_label = std::max(max_label, v.id());
    }
  }
  return max_label;
}

bool Instance::IsSubsetOf(const Instance& other) const {
  if (stores_.size() != other.stores_.size()) return false;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    const RelationStore& mine = stores_[r];
    const RelationStore& theirs = other.stores_[r];
    if (mine.num_rows > theirs.num_rows) return false;
    for (uint32_t i = 0; i < mine.num_rows; ++i) {
      Tuple t = Row(r, i);
      if (theirs.Find(t, mine.hashes[i]) == kNoRow) {
        return false;
      }
    }
  }
  return true;
}

void Instance::UnionWith(const Instance& other) {
  for (RelationId r = 0; r < stores_.size() && r < other.stores_.size();
       ++r) {
    for (uint32_t i = 0; i < other.stores_[r].num_rows; ++i) {
      Status status = AddFact(r, other.Row(r, i));
      (void)status;  // same schema: cannot fail
    }
  }
}

bool Instance::EqualFactSets(const Instance& other) const {
  if (stores_.size() != other.stores_.size()) return false;
  if (fingerprint_ != other.fingerprint_) return false;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    const RelationStore& mine = stores_[r];
    const RelationStore& theirs = other.stores_[r];
    if (mine.num_rows != theirs.num_rows) return false;
    for (uint32_t i = 0; i < mine.num_rows; ++i) {
      Tuple t = Row(r, i);
      if (theirs.Find(t, mine.hashes[i]) == kNoRow) {
        return false;
      }
    }
  }
  return true;
}

bool Instance::LessFactSets(const Instance& other) const {
  size_t relations = std::max(stores_.size(), other.stores_.size());
  for (RelationId r = 0; r < relations; ++r) {
    std::vector<Tuple> mine =
        r < stores_.size() ? SortedRows(r) : std::vector<Tuple>{};
    std::vector<Tuple> theirs =
        r < other.stores_.size() ? other.SortedRows(r) : std::vector<Tuple>{};
    if (mine != theirs) return mine < theirs;
  }
  return false;
}

std::string Instance::ToString() const {
  std::vector<std::string> parts;
  for (RelationId r = 0; r < stores_.size(); ++r) {
    const std::string& name = schema_->relation(r).name;
    const RelationStore& store = stores_[r];
    for (uint32_t i = 0; i < store.num_rows; ++i) {
      std::vector<std::string> args;
      args.reserve(store.arity);
      for (uint32_t c = 0; c < store.arity; ++c) {
        args.push_back(at(r, i, c).ToString());
      }
      parts.push_back(name + "(" + Join(args, ",") + ")");
    }
  }
  std::sort(parts.begin(), parts.end());
  return Join(parts, ", ");
}

std::string FactToString(const Schema& schema, const Fact& fact) {
  std::vector<std::string> args;
  args.reserve(fact.tuple.size());
  for (const Value& v : fact.tuple) args.push_back(v.ToString());
  return schema.relation(fact.relation).name + "(" + Join(args, ",") + ")";
}

namespace {

constexpr long long kMaxInputNullLabel = (1LL << 31) - 1;

// Parses one argument token into a value (see ParseInstance contract).
Result<Value> ParseValueToken(std::string_view token) {
  if (token.empty()) {
    return Status::InvalidArgument("empty value token");
  }
  if (token[0] == '_') {
    std::string_view rest = token.substr(1);
    if (!rest.empty() && (rest[0] == 'N' || rest[0] == 'n')) {
      rest = rest.substr(1);
    }
    char* end = nullptr;
    std::string digits(rest);
    errno = 0;
    long long label = std::strtoll(digits.c_str(), &end, 10);
    if (digits.empty() || end == nullptr || *end != '\0' || label < 0) {
      return Status::InvalidArgument("bad null token: " + std::string(token));
    }
    // Fresh nulls start one above the largest input label, so this
    // ceiling leaves 2^31 fresh labels before the uint32 null counter
    // could wrap onto an input label.
    if (errno == ERANGE || label > kMaxInputNullLabel) {
      return Status::InvalidArgument("null label out of range: " +
                                     std::string(token));
    }
    return Value::MakeNull(static_cast<uint32_t>(label));
  }
  if (token[0] == '?') {
    if (token.size() < 2) {
      return Status::InvalidArgument("bad variable token: " +
                                     std::string(token));
    }
    return Value::MakeVariable(token.substr(1));
  }
  return Value::MakeConstant(token);
}

}  // namespace

Result<Instance> ParseInstance(SchemaPtr schema, std::string_view text) {
  Instance instance(schema);
  std::string_view rest = StripWhitespace(text);
  while (!rest.empty()) {
    size_t open = rest.find('(');
    if (open == std::string_view::npos) {
      return Status::InvalidArgument("expected '(' in instance text near: " +
                                     std::string(rest));
    }
    std::string name(StripWhitespace(rest.substr(0, open)));
    size_t close = rest.find(')', open);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unbalanced '(' in instance text");
    }
    std::string args_text(rest.substr(open + 1, close - open - 1));
    Tuple tuple;
    for (const std::string& token : SplitAndTrim(args_text, ',')) {
      QIMAP_ASSIGN_OR_RETURN(Value v, ParseValueToken(token));
      tuple.push_back(v);
    }
    QIMAP_RETURN_IF_ERROR(instance.AddFact(name, std::move(tuple)));
    rest = StripWhitespace(rest.substr(close + 1));
    if (!rest.empty()) {
      if (rest[0] != ',') {
        return Status::InvalidArgument("expected ',' between facts near: " +
                                       std::string(rest));
      }
      rest = StripWhitespace(rest.substr(1));
    }
  }
  return instance;
}

Instance MustParseInstance(SchemaPtr schema, std::string_view text) {
  Result<Instance> instance = ParseInstance(std::move(schema), text);
  if (!instance.ok()) {
    std::fprintf(stderr, "MustParseInstance(%.*s): %s\n",
                 static_cast<int>(text.size()), text.data(),
                 instance.status().ToString().c_str());
    std::abort();
  }
  return std::move(instance).value();
}

}  // namespace qimap
