#ifndef QIMAP_RELATIONAL_ASSIGNMENT_H_
#define QIMAP_RELATIONAL_ASSIGNMENT_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "base/value.h"

namespace qimap {

/// A (partial) mapping from values to values. Keys are the movable values
/// (variables and, for instance-level homomorphisms, nulls); constants are
/// never keys — they are fixed pointwise, as required by the paper's
/// definition of homomorphism (Section 2).
///
/// Stored as a flat array of (key, value) pairs sorted by key, with room
/// for `kInlineCapacity` pairs inside the object and a heap spill beyond
/// it. Lookups are binary searches. The interface is the subset of
/// `std::map<Value, Value>` the engine uses, with the same iteration order
/// (ascending keys), the same `emplace`/`insert` semantics (an existing
/// key is never overwritten), and the same `==` and `<` (lexicographic
/// over the pairs), so canonical trigger sorts are unchanged.
///
/// Unlike `std::map`, iterators and references are invalidated by every
/// insert and erase, and by moving or swapping the object: inline pairs
/// move with it.
class Assignment {
 public:
  using value_type = std::pair<Value, Value>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  /// Pairs held without a heap allocation. Trigger bindings and
  /// satisfaction-search partials of typical dependencies fit.
  static constexpr uint32_t kInlineCapacity = 6;

  Assignment() = default;
  /// Like `std::map`'s initializer-list constructor: pairs may come in any
  /// order, and the first pair of a repeated key wins.
  Assignment(std::initializer_list<value_type> init) {
    reserve(init.size());
    for (const value_type& kv : init) emplace(kv.first, kv.second);
  }
  Assignment(const Assignment& other) { CopyFrom(other); }
  Assignment(Assignment&& other) noexcept { StealFrom(other); }
  Assignment& operator=(const Assignment& other) {
    if (this != &other) {
      size_ = 0;
      CopyFrom(other);
    }
    return *this;
  }
  Assignment& operator=(Assignment&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~Assignment() { Release(); }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Ensures room for `n` pairs without further allocation.
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  iterator find(const Value& key) {
    iterator it = LowerBound(key);
    return it != end() && it->first == key ? it : end();
  }
  const_iterator find(const Value& key) const {
    const_iterator it = LowerBound(key);
    return it != end() && it->first == key ? it : end();
  }
  size_t count(const Value& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const Value& key) const { return find(key) != end(); }

  Value& at(const Value& key) {
    iterator it = find(key);
    if (it == end()) throw std::out_of_range("Assignment::at");
    return it->second;
  }
  const Value& at(const Value& key) const {
    const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("Assignment::at");
    return it->second;
  }
  /// Inserts `Value()` for an absent key, like `std::map`.
  Value& operator[](const Value& key) {
    return emplace(key, Value()).first->second;
  }

  /// Inserts (key, value) unless the key is present; returns the pair for
  /// the key and whether it was inserted.
  std::pair<iterator, bool> emplace(const Value& key, const Value& value) {
    iterator it = LowerBound(key);
    if (it != end() && it->first == key) return {it, false};
    const size_t pos = static_cast<size_t>(it - data_);
    if (size_ == capacity_) Grow(size_t{capacity_} * 2);
    it = data_ + pos;
    std::move_backward(it, end(), end() + 1);
    *it = value_type(key, value);
    ++size_;
    return {it, true};
  }
  std::pair<iterator, bool> insert(const value_type& kv) {
    return emplace(kv.first, kv.second);
  }

  /// Removes the key if present; returns the number of pairs removed.
  size_t erase(const Value& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    std::move(it + 1, end(), it);
    --size_;
    return 1;
  }

  /// Bulk build: appends (key, value) without restoring key order. The key
  /// must be absent. Call `SortByKey()` once after the last append and
  /// before any lookup, so a large result costs one sort instead of one
  /// shifting insert per pair.
  void AppendUnsorted(const Value& key, const Value& value) {
    if (size_ == capacity_) Grow(size_t{capacity_} * 2);
    data_[size_++] = value_type(key, value);
  }
  void SortByKey() {
    std::sort(begin(), end(), [](const value_type& a, const value_type& b) {
      return a.first < b.first;
    });
  }

  friend bool operator==(const Assignment& a, const Assignment& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const Assignment& a,
                                          const Assignment& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  template <typename It>
  static It LowerBound(It first, It last, const Value& key) {
    return std::lower_bound(
        first, last, key,
        [](const value_type& kv, const Value& k) { return kv.first < k; });
  }
  iterator LowerBound(const Value& key) {
    return LowerBound(begin(), end(), key);
  }
  const_iterator LowerBound(const Value& key) const {
    return LowerBound(begin(), end(), key);
  }

  bool IsInline() const { return data_ == inline_; }

  void Grow(size_t n) {
    n = std::max<size_t>(n, kInlineCapacity * 2);
    value_type* heap = new value_type[n];
    std::copy(begin(), end(), heap);
    const uint32_t size = size_;
    Release();
    data_ = heap;
    size_ = size;
    capacity_ = static_cast<uint32_t>(n);
  }

  // Frees a heap spill and returns to (empty) inline storage.
  void Release() {
    if (!IsInline()) {
      delete[] data_;
      data_ = inline_;
      capacity_ = kInlineCapacity;
    }
    size_ = 0;
  }

  // Copies `other`'s pairs into this (empty) object.
  void CopyFrom(const Assignment& other) {
    reserve(other.size_);
    std::copy(other.begin(), other.end(), data_);
    size_ = other.size_;
  }

  // Takes `other`'s pairs, leaving it empty. This object holds no spill.
  void StealFrom(Assignment& other) {
    if (other.IsInline()) {
      std::copy(other.begin(), other.end(), inline_);
      size_ = other.size_;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineCapacity;
    }
    other.size_ = 0;
  }

  value_type* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  value_type inline_[kInlineCapacity];
};

}  // namespace qimap

#endif  // QIMAP_RELATIONAL_ASSIGNMENT_H_
