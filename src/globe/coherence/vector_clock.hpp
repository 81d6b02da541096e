// Vector clocks over client identifiers.
//
// A VectorClock maps each writing client to the highest *contiguous*
// sequence number of that client's writes known/applied. It serves three
// roles in the library:
//   * causal coherence: write dependencies and applicability tests,
//   * session guarantees: read-sets and write-sets (monotonic reads,
//     writes-follow-reads) are summarized as vector clocks,
//   * anti-entropy: replicas exchange clocks to compute missing records.
//
// Storage is a flat array of (client, seq) pairs kept sorted by client
// id, so merges and comparisons are linear, cache-local walks.
//
// The array is copy-on-write: it lives in one refcounted block (a small
// header followed by the entries inline, a single allocation), and a
// copy or assignment shares that block in O(1). A mutating call clones
// the block only when another clock still shares it, and only when the
// call really changes a value; an unshared block is mutated in place.
// A record's dependency clock is therefore held once per store, no
// matter how many write-log entries, History events and replies refer
// to it. The refcount is atomic, so clocks that share a block may live
// on different threads; one clock object is no more thread-safe than a
// std::vector.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "globe/coherence/write_id.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

class VectorClock {
 public:
  using Entry = std::pair<ClientId, std::uint64_t>;

  VectorClock() = default;
  VectorClock(const VectorClock& other) noexcept : rep_(other.rep_) {
    retain(rep_);
  }
  VectorClock(VectorClock&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  VectorClock& operator=(const VectorClock& other) noexcept {
    if (this != &other) {
      retain(other.rep_);
      release(std::exchange(rep_, other.rep_));
    }
    return *this;
  }
  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this != &other) {
      release(std::exchange(rep_, std::exchange(other.rep_, nullptr)));
    }
    return *this;
  }
  ~VectorClock() { release(rep_); }

  /// Sequence number recorded for `c` (0 if absent).
  [[nodiscard]] std::uint64_t get(ClientId c) const {
    const std::size_t i = find(c);
    return i < size() && at(i).first == c ? at(i).second : 0;
  }

  /// Sets the entry for `c`; removing it when v == 0 keeps clocks canonical.
  void set(ClientId c, std::uint64_t v) {
    const std::size_t i = find(c);
    if (i < size() && at(i).first == c) {
      if (at(i).second == v) return;
      if (v == 0) {
        erase_at(i);
      } else {
        own()[i].second = v;
      }
    } else if (v != 0) {
      insert_at(i, c, v);
    }
  }

  /// Advances the entry for `c` to at least `v`.
  void advance(ClientId c, std::uint64_t v) {
    if (v == 0) return;
    const std::size_t i = find(c);
    if (i < size() && at(i).first == c) {
      if (v > at(i).second) own()[i].second = v;
    } else {
      insert_at(i, c, v);
    }
  }

  /// Records a write: advances the writer's entry.
  void observe(const WriteId& w) { advance(w.client, w.seq); }

  /// Component-wise maximum with `other`: one linear merge over two
  /// sorted entry arrays. A clock that already dominates `other` is left
  /// untouched (and stays shared); an empty one shares `other`'s block.
  void merge(const VectorClock& other) {
    if (other.empty() || other.rep_ == rep_) return;
    if (empty()) {
      *this = other;
      return;
    }
    const std::span<const Entry> a = entries();
    const std::span<const Entry> b = other.entries();
    // First pass: the merged size, and whether any value rises.
    std::size_t n = 0;
    bool rises = false;
    for (std::size_t i = 0, j = 0; i < a.size() || j < b.size(); ++n) {
      if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
        ++i;
      } else if (i == a.size() || b[j].first < a[i].first) {
        ++j;
      } else {
        rises = rises || b[j].second > a[i].second;
        ++i;
        ++j;
      }
    }
    if (n == a.size() && !rises) return;
    if (n == a.size() && unique()) {
      // Same keys, unshared block: raise the values in place.
      Entry* out = rep_->entries();
      for (std::size_t i = 0, j = 0; j < b.size(); ++i) {
        if (out[i].first == b[j].first) {
          out[i].second = std::max(out[i].second, b[j].second);
          ++j;
        }
      }
    } else {
      Rep* r = allocate(n);
      Entry* out = r->entries();
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i].first < b[j].first) {
          ::new (out++) Entry(a[i++]);
        } else if (b[j].first < a[i].first) {
          ::new (out++) Entry(b[j++]);
        } else {
          ::new (out++) Entry(a[i].first, std::max(a[i].second, b[j].second));
          ++i;
          ++j;
        }
      }
      out = std::uninitialized_copy(a.begin() + i, a.end(), out);
      std::uninitialized_copy(b.begin() + j, b.end(), out);
      r->size = static_cast<std::uint32_t>(n);
      release(std::exchange(rep_, r));
    }
    // Every lookup below binary-searches on the sorted entries; the
    // check is O(n) per merge, so it rides the checked build only.
    GLOBE_DCHECK_MSG(sorted(), "merge broke the sorted-entry invariant");
  }

  /// Component-wise minimum with `other` — the stability-horizon fold.
  /// An entry absent on either side is 0, so it drops out entirely,
  /// keeping clocks canonical (no explicit zero entries).
  void floor_with(const VectorClock& other) {
    if (other.rep_ == rep_ || empty()) return;
    if (other.empty()) {
      release(std::exchange(rep_, nullptr));
      return;
    }
    const std::span<const Entry> a = entries();
    const std::span<const Entry> b = other.entries();
    // First pass: the common keys, and whether any value falls.
    std::size_t n = 0;
    bool falls = false;
    for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i].first < b[j].first) {
        ++i;
      } else if (b[j].first < a[i].first) {
        ++j;
      } else {
        falls = falls || b[j].second < a[i].second;
        ++n;
        ++i;
        ++j;
      }
    }
    if (n == a.size() && !falls) return;
    if (n == 0) {
      release(std::exchange(rep_, nullptr));
      return;
    }
    // An unshared block is compacted in place: the write position never
    // passes the read position.
    Rep* r = unique() ? rep_ : allocate(n);
    Entry* out = r->entries();
    for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i].first < b[j].first) {
        ++i;
      } else if (b[j].first < a[i].first) {
        ++j;
      } else {
        ::new (out++) Entry(a[i].first, std::min(a[i].second, b[j].second));
        ++i;
        ++j;
      }
    }
    r->size = static_cast<std::uint32_t>(n);
    if (r != rep_) release(std::exchange(rep_, r));
  }

  /// True if every entry of `other` is <= the corresponding entry here.
  /// Two-pointer walk over the sorted entries.
  [[nodiscard]] bool dominates(const VectorClock& other) const {
    if (other.rep_ == rep_) return true;
    const std::span<const Entry> mine = entries();
    auto a = mine.begin();
    for (const auto& [c, v] : other.entries()) {
      while (a != mine.end() && a->first < c) ++a;
      if (a == mine.end() || a->first != c || a->second < v) return false;
    }
    return true;
  }

  /// True if this and other are incomparable (concurrent).
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return !dominates(other) && !other.dominates(*this);
  }

  /// True if the write `w` is "covered": we have seen it.
  [[nodiscard]] bool covers(const WriteId& w) const {
    return get(w.client) >= w.seq;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return rep_ == nullptr ? 0 : rep_->size;
  }

  /// Sum of all entries; a scalar progress measure used by staleness
  /// metrics ("how many writes behind is this replica").
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [c, v] : entries()) sum += v;
    return sum;
  }

  /// The entries, sorted by client id. The view is valid until this
  /// clock is next mutated or assigned. Two clocks that share a block
  /// return the same data() pointer.
  [[nodiscard]] std::span<const Entry> entries() const {
    if (rep_ == nullptr) return {};
    return {rep_->entries(), rep_->size};
  }

  friend bool operator==(const VectorClock& x, const VectorClock& y) {
    if (x.rep_ == y.rep_) return true;
    const std::span<const Entry> a = x.entries();
    const std::span<const Entry> b = y.entries();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [c, v] : entries()) {
      if (!first) out += ",";
      first = false;
      out += std::to_string(c) + ":" + std::to_string(v);
    }
    return out + "}";
  }

  void encode(util::Writer& w) const {
    w.varint(size());
    for (const auto& [c, v] : entries()) {
      w.u32(c);
      w.varint(v);
    }
  }

  static VectorClock decode(util::Reader& r) {
    VectorClock vc;
    const std::uint64_t n = r.count(5);  // u32 client + varint value
    if (n == 0) return vc;
    // Every wire entry adds at most one, so the block never regrows, and
    // the fallback's set() mutates it in place: vc is its only handle.
    vc.rep_ = allocate(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const ClientId c = r.u32();
      const std::uint64_t v = r.varint();
      // Canonical senders emit sorted, nonzero entries, and for those
      // an append is exactly what set() does. Unsorted, duplicate or
      // zero entries still go through set().
      const std::size_t k = vc.rep_->size;
      if (v != 0 && (k == 0 || c > vc.at(k - 1).first)) {
        ::new (vc.rep_->entries() + k) Entry(c, v);
        ++vc.rep_->size;
      } else {
        vc.set(c, v);
      }
    }
    return vc;
  }

 private:
  // One allocation: this header, then `capacity` entries inline. Slots
  // past `size` are raw storage, written with placement new.
  struct alignas(Entry) Rep {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;

    Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
  };
  static_assert(std::is_trivially_destructible_v<Entry>);
  static_assert(sizeof(Rep) % alignof(Entry) == 0);

  static Rep* allocate(std::size_t capacity) {
    GLOBE_ASSERT(capacity <= std::numeric_limits<std::uint32_t>::max());
    void* p = ::operator new(sizeof(Rep) + capacity * sizeof(Entry));
    Rep* r = ::new (p) Rep;
    r->capacity = static_cast<std::uint32_t>(capacity);
    return r;
  }
  static void retain(Rep* r) {
    if (r != nullptr) ++r->refs;
  }
  static void release(Rep* r) {
    if (r != nullptr && --r->refs == 0) {
      r->~Rep();
      ::operator delete(r);
    }
  }

  // True when no other clock shares the block.
  [[nodiscard]] bool unique() const { return rep_->refs == 1; }
  [[nodiscard]] bool sorted() const {
    const std::span<const Entry> e = entries();
    return std::is_sorted(e.begin(), e.end(),
                          [](const Entry& x, const Entry& y) {
                            return x.first < y.first;
                          });
  }
  [[nodiscard]] const Entry& at(std::size_t i) const {
    return rep_->entries()[i];
  }
  // Index of the first entry with client >= c.
  [[nodiscard]] std::size_t find(ClientId c) const {
    const std::span<const Entry> e = entries();
    return static_cast<std::size_t>(
        std::lower_bound(e.begin(), e.end(), c,
                         [](const Entry& x, ClientId id) {
                           return x.first < id;
                         }) -
        e.begin());
  }

  // The entries, writable: clones the block first if it is shared.
  // Requires a non-empty clock.
  Entry* own() {
    if (!unique()) {
      const std::span<const Entry> e = entries();
      Rep* r = allocate(e.size());
      std::uninitialized_copy(e.begin(), e.end(), r->entries());
      r->size = rep_->size;
      release(std::exchange(rep_, r));
    }
    return rep_->entries();
  }

  void insert_at(std::size_t i, ClientId c, std::uint64_t v) {
    const std::size_t n = size();
    if (rep_ != nullptr && unique() && n < rep_->capacity) {
      Entry* d = rep_->entries();
      if (i == n) {
        ::new (d + n) Entry(c, v);
      } else {
        ::new (d + n) Entry(d[n - 1]);
        std::copy_backward(d + i, d + n - 1, d + n);
        d[i] = Entry(c, v);
      }
    } else {
      // Shared or full: copy into a fresh block with room to grow.
      const std::span<const Entry> e = entries();
      Rep* r = allocate(std::max<std::size_t>(4, 2 * n));
      Entry* out = std::uninitialized_copy(e.begin(), e.begin() + i,
                                           r->entries());
      ::new (out++) Entry(c, v);
      std::uninitialized_copy(e.begin() + i, e.end(), out);
      release(std::exchange(rep_, r));
    }
    rep_->size = static_cast<std::uint32_t>(n + 1);
  }

  void erase_at(std::size_t i) {
    Entry* d = own();
    std::copy(d + i + 1, d + size(), d + i);
    --rep_->size;
  }

  Rep* rep_ = nullptr;  // null: empty, no block
};

}  // namespace globe::coherence
