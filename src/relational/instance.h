#ifndef QIMAP_RELATIONAL_INSTANCE_H_
#define QIMAP_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/value.h"
#include "relational/schema.h"

namespace qimap {

/// A tuple of individual values.
using Tuple = std::vector<Value>;

/// Hash functor for Tuple, usable with unordered containers. Combines the
/// element hashes left to right (boost-style hash_combine).
struct TupleHash {
  size_t operator()(const Tuple& tuple) const {
    size_t h = 0x9E3779B97F4A7C15ULL ^ tuple.size();
    for (const Value& v : tuple) {
      h ^= ValueHash{}(v) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// A single fact `R(v1, ..., vk)` of an instance.
struct Fact {
  RelationId relation = 0;
  Tuple tuple;

  friend bool operator==(const Fact& a, const Fact& b) = default;
  friend auto operator<=>(const Fact& a, const Fact& b) = default;
};

/// A finite relational instance over a schema (paper, Section 2).
///
/// Ground instances contain only constants; target instances typically
/// contain constants and labeled nulls; canonical instances (the paper's
/// `I_alpha`) additionally contain variables in their active domain.
///
/// Storage is insert-only, row-major, and hash-indexed, in a few flat
/// arrays per relation: the cells of every row back to back (row id =
/// insertion order), an open-addressed full-tuple slot table for
/// membership and duplicate absorption, and a posting list on *every*
/// column. A posting list is a chain through a per-cell `next` array that
/// links each row to the next row carrying the same value in that column;
/// one open-addressed `(column, value)` table per relation holds each
/// chain's head, tail and length. The homomorphism matcher probes
/// whichever determined column has the shortest posting list and falls
/// back to a row scan; per-column distinct counts are maintained
/// incrementally (one per `(column, value)` entry), so
/// `CostModel::FromInstance` reads statistics instead of rescanning.
/// `AddFact` is amortized O(arity) and allocates only when an array grows;
/// the two tables grow by doubling and rehashing unless `Reserve` sized
/// them up front (the standard chase does, for the facts its triggers
/// could add). Copying or freeing an instance costs a few allocations per
/// relation, however many distinct values it holds.
class Instance {
 public:
  /// The ascending row ids of one posting list, read through the store's
  /// row chain. A view, not a copy: any AddFact on the same instance may
  /// reallocate the arrays it reads, so it is invalidated by every
  /// AddFact (UnionWith included), whatever the added value.
  class PostingList {
   public:
    class iterator {
     public:
      uint32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = next_[static_cast<size_t>(row_) * stride_];
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.row_ == b.row_;
      }

     private:
      friend class PostingList;
      iterator(const uint32_t* next, uint32_t stride, uint32_t row)
          : next_(next), stride_(stride), row_(row) {}

      const uint32_t* next_;
      uint32_t stride_;
      uint32_t row_;
    };

    /// The empty list.
    PostingList() = default;

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    iterator begin() const { return iterator(next_, stride_, head_); }
    iterator end() const { return iterator(next_, stride_, kNoRow); }

   private:
    friend class Instance;
    PostingList(const uint32_t* next, uint32_t stride, uint32_t head,
                uint32_t count)
        : next_(next), stride_(stride), head_(head), count_(count) {}

    const uint32_t* next_ = nullptr;  // the column's first `next` cell
    uint32_t stride_ = 0;             // the relation's arity
    uint32_t head_ = kNoRow;
    uint32_t count_ = 0;
  };

  /// Creates the empty instance over `schema`. The schema is shared, not
  /// copied.
  explicit Instance(SchemaPtr schema) : schema_(std::move(schema)) {
    stores_.reserve(schema_->size());
    for (RelationId r = 0; r < schema_->size(); ++r) {
      stores_.emplace_back(schema_->relation(r).arity);
    }
  }

  const SchemaPtr& schema() const { return schema_; }

  /// Adds a fact; returns InvalidArgument on arity mismatch or bad id.
  Status AddFact(RelationId relation, const Tuple& tuple);
  /// Adds a fact by relation name.
  Status AddFact(std::string_view relation_name, const Tuple& tuple);

  /// Sizes one relation's slot table for `rows` rows, and its chain table
  /// for `rows` x arity chains, under the tables' 7/8 load rule, so that
  /// adding facts up to `rows` rows never rehashes. That is at most what
  /// those rows would use if every cell held a new value. Contents, row
  /// order and every read are unchanged; a `rows` at or below the current
  /// row count does nothing. Copying the instance copies the tables at
  /// their reserved size.
  void Reserve(RelationId relation, size_t rows);

  /// Returns true iff the fact is present (one full-tuple hash probe).
  bool ContainsFact(RelationId relation, const Tuple& tuple) const;

  /// Number of distinct rows stored for one relation. Row ids run
  /// 0..NumRows-1 in insertion order.
  uint32_t NumRows(RelationId relation) const {
    return stores_[relation].num_rows;
  }

  /// One cell of the row-major store: column `col` of row `row`.
  const Value& at(RelationId relation, uint32_t row, uint32_t col) const {
    const RelationStore& store = stores_[relation];
    return store.cells[static_cast<size_t>(row) * store.arity + col];
  }

  /// Materializes one row as a tuple.
  Tuple Row(RelationId relation, uint32_t row) const;

  /// Row ids (ascending) of the rows whose column `col` equals `v`; empty
  /// when there are none. Every column is indexed. The list is a view
  /// that the next AddFact on this instance invalidates (see PostingList).
  PostingList RowsWith(RelationId relation, uint32_t col,
                       const Value& v) const;

  /// Number of distinct values in one column — maintained incrementally
  /// (one per `(column, value)` entry), O(1).
  uint32_t ColumnDistinct(RelationId relation, uint32_t col) const {
    return stores_[relation].distinct[col];
  }

  /// Total number of facts across all relations.
  size_t NumFacts() const;

  /// Returns true iff this instance has no facts.
  bool Empty() const { return NumFacts() == 0; }

  /// Lists all facts, ordered by (relation, tuple) — the canonical order;
  /// independent of insertion order.
  std::vector<Fact> Facts() const;

  /// The active domain: every value occurring in some fact, ordered.
  std::vector<Value> ActiveDomain() const;

  /// True iff every value in the instance is a constant (the paper's
  /// "ground instance").
  bool IsGround() const;

  /// Largest null label occurring in the instance, or 0 if none. Fresh
  /// nulls created by chase steps start above this.
  uint32_t MaxNullLabel() const;

  /// Set-containment of facts; schemas must describe the same relations.
  bool IsSubsetOf(const Instance& other) const;

  /// Adds every fact of `other` (same schema required).
  void UnionWith(const Instance& other);

  /// Order-independent content hash of the fact set, maintained
  /// incrementally by AddFact (duplicate adds leave it unchanged). Equal
  /// instances have equal fingerprints; collisions between distinct
  /// instances are possible, so a match is only evidence. Consumers: the
  /// incremental-chase checkpoint's prefix proof (PrefixFingerprint), the
  /// run-ledger source stamps, and EqualFactSets' fast reject.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// Per-relation distinct-row counts, indexed by RelationId. Because
  /// storage is insert-only, deduplicated, and insertion-ordered, a count
  /// vector is a *checkpoint epoch*: the facts added since it was taken
  /// are exactly rows `counts[r]..NumRows(r)-1` of each relation — the
  /// delta log is free, no per-insert bookkeeping needed.
  std::vector<uint32_t> RowCounts() const;

  /// True iff `counts` is an epoch of this instance: one entry per
  /// relation, none exceeding the current row count. (Epochs taken from a
  /// different or *mutated-then-rebuilt* instance can still pass this
  /// shape check; pair with PrefixFingerprint for content validation.)
  bool IsValidEpoch(const std::vector<uint32_t>& counts) const;

  /// Order-independent fingerprint of the epoch-prefix instance — the
  /// first `counts[r]` rows of each relation. `PrefixFingerprint(epoch)`
  /// taken now equals the `Fingerprint()` the instance had when `epoch`
  /// was captured, which is how an incremental-chase checkpoint proves
  /// the instance only *grew* since the checkpoint was cut. Requires
  /// IsValidEpoch(counts).
  uint64_t PrefixFingerprint(const std::vector<uint32_t>& counts) const;

  /// Number of facts added after the epoch (sum over relations of
  /// NumRows(r) - counts[r]). Requires IsValidEpoch(counts).
  size_t NumFactsSince(const std::vector<uint32_t>& counts) const;

  /// Value-level equality of fact sets.
  friend bool operator==(const Instance& a, const Instance& b) {
    return a.EqualFactSets(b);
  }

  /// Deterministic rendering, e.g. `P(a,b), Q(a)`; facts sorted by
  /// relation name then by tuple text.
  std::string ToString() const;

  /// Strict weak order on fact sets (for use in std::set of instances).
  /// Compares the canonically sorted fact lists lexicographically;
  /// insertion order does not leak in.
  friend bool operator<(const Instance& a, const Instance& b) {
    return a.LessFactSets(b);
  }

 private:
  /// "No row": ends a row chain, marks a free slot and a missing tuple.
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  /// One relation's rows plus its incremental indexes, in flat arrays.
  struct RelationStore {
    explicit RelationStore(uint32_t arity) : arity(arity), distinct(arity) {}

    /// One `(column, value)` entry: the row chain of the rows carrying
    /// `value` in column `col`, or a free table slot when `count` is 0
    /// (a free slot's head stays kNoRow, so it reads as an empty list).
    struct Chain {
      Value value;
      uint32_t col = 0;
      uint32_t head = kNoRow;
      uint32_t tail = kNoRow;
      uint32_t count = 0;
    };

    uint32_t arity;
    uint32_t num_rows = 0;
    /// Row-major cells: cells[row * arity + col].
    std::vector<Value> cells;
    /// Per-cell chain links: next[row * arity + col] is the next row
    /// (ascending) whose column `col` holds the same value, or kNoRow
    /// after the chain's last row.
    std::vector<uint32_t> next;
    /// Open-addressed `(column, value)` table (power-of-two capacity,
    /// linear probing, grown before the load crosses 7/8), holding
    /// `num_chains` chains.
    std::vector<Chain> chains;
    uint32_t num_chains = 0;
    /// Per-column distinct counts: the chains of each column.
    std::vector<uint32_t> distinct;
    /// Open-addressed full-tuple slot table (qmap-style flat layout):
    /// power-of-two capacity, linear probing, slots hold row ids with
    /// kNoRow marking free slots. `hashes[row]` caches the row's
    /// TupleHash so probes compare a word before touching the cells and
    /// rehashing never re-reads them.
    std::vector<uint32_t> slots;
    std::vector<uint64_t> hashes;

    /// Row id of `tuple` if present, else kNoRow. `hash` must be
    /// TupleHash{}(tuple).
    uint32_t Find(const Tuple& tuple, uint64_t hash) const;
    /// Inserts the row id mapping for a row about to be appended. Grows
    /// and rehashes the slot table as needed.
    void IndexNewRow(uint32_t row_id, uint64_t hash);
    /// Rehashes the stored rows into a slot table of `capacity` (a power
    /// of two).
    void ResizeSlots(size_t capacity);
    /// Rehashes the chains into a chain table of `capacity` (a power of
    /// two).
    void ResizeChains(size_t capacity);
    /// Appends the just-stored row `row_id` to the chain of each of its
    /// cells, starting a chain for each new `(column, value)`.
    void LinkNewRow(uint32_t row_id);
    /// Index in `chains` of the chain of `(col, v)`, or of the free slot
    /// where it would start. Requires a non-empty table.
    size_t ChainSlot(uint32_t col, const Value& v) const;
    /// Cell-by-cell comparison of stored row `row` against `tuple`.
    bool RowEquals(uint32_t row, const Tuple& tuple) const;
  };

  bool EqualFactSets(const Instance& other) const;
  bool LessFactSets(const Instance& other) const;
  /// The relation's tuples, sorted (value-level); materialized on demand.
  std::vector<Tuple> SortedRows(RelationId relation) const;

  SchemaPtr schema_;
  std::vector<RelationStore> stores_;  // indexed by RelationId
  uint64_t fingerprint_ = 0;
};

/// Renders one fact as `R(v1,v2)` — the same text a single-fact
/// `Instance::ToString()` produces (the provenance journal keys facts by
/// this rendering).
std::string FactToString(const Schema& schema, const Fact& fact);

/// Parses `"P(a,b), Q(a)"` into an instance over `schema`. Identifiers and
/// numbers denote constants; tokens starting with `_` denote nulls
/// (`_N3` or `_3`, label at most 2^31 - 1); tokens starting with `?`
/// denote variables.
Result<Instance> ParseInstance(SchemaPtr schema, std::string_view text);

/// Like ParseInstance but aborts on error (tests/examples/benchmarks).
Instance MustParseInstance(SchemaPtr schema, std::string_view text);

}  // namespace qimap

#endif  // QIMAP_RELATIONAL_INSTANCE_H_
