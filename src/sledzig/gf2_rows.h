// Incremental GF(2) forward elimination over packed rows, shared by the
// constraint-plan builder (which picks each equation's unknown) and the
// encoder (which solves for the unknowns' values).
//
// Rows belong to convolutional-code equations: the equation of encoder step
// n taps stream positions [n-6, n], columns are those positions relative to
// a per-cluster base, and rows arrive in non-decreasing step order.  A
// stored row has its pivot set and every earlier row's pivot clear, so a
// stored row whose step is more than 6 below a new equation's can never
// have its pivot in the new row: reduction only visits the rows of the last
// seven steps, however long the cluster.  Each stored row keeps just the
// word span it occupies, back to back in one arena; the buffers keep their
// capacity across reset(), so solving a plan's clusters allocates only
// while the largest cluster so far grows.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sledzig::core {

class Gf2Rows {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Starts an empty system over columns [0, width).
  void reset(std::size_t width) {
    pending_.assign(width / 64 + 1, 0);
    clear_pending();
    arena_.clear();
    rows_.clear();
    first_ = 0;
  }

  /// Sets column `col` of the pending row.
  void set(std::size_t col) {
    const std::size_t w = col / 64;
    pending_[w] |= std::uint64_t{1} << (col % 64);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }

  /// Flips the pending row's right-hand side by `bit` (0 or 1).
  void flip_rhs(unsigned bit) { pending_rhs_ ^= bit; }

  bool test(std::size_t col) const {
    return ((pending_[col / 64] >> (col % 64)) & 1u) != 0;
  }

  /// Reduces the pending row, the equation of encoder step `step`, against
  /// every stored row whose pivot it has set, in storage order.
  void reduce(std::size_t step) {
    while (first_ < rows_.size() && rows_[first_].step + 6 < step) ++first_;
    for (std::size_t r = first_; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      if (!test(row.pivot)) continue;
      const std::uint64_t* src = arena_.data() + row.offset;
      for (std::size_t w = row.lo; w <= row.hi; ++w) {
        pending_[w] ^= src[w - row.lo];
      }
      pending_rhs_ ^= row.rhs;
      lo_ = std::min(lo_, row.lo);
      hi_ = std::max(hi_, row.hi);
    }
  }

  /// Highest set column of the pending row, or kNone when it is zero.
  std::size_t highest() const {
    for (std::size_t w = hi_ + 1; w-- > lo_;) {
      if (pending_[w] != 0) {
        return w * 64 + 63 - static_cast<std::size_t>(
                                 std::countl_zero(pending_[w]));
      }
    }
    return kNone;
  }

  /// Stores the pending row of step `step` with pivot column `pivot` (a set
  /// column) and starts a fresh pending row.
  void keep(std::size_t step, std::size_t pivot) {
    std::size_t lo = lo_, hi = hi_;
    while (pending_[lo] == 0) ++lo;  // the pivot word is nonzero
    while (pending_[hi] == 0) --hi;
    rows_.push_back(Row{step, pivot, arena_.size(), lo, hi, pending_rhs_});
    arena_.insert(arena_.end(), pending_.begin() + static_cast<long>(lo),
                  pending_.begin() + static_cast<long>(hi) + 1);
    clear_pending();
  }

  /// Discards the pending row.
  void drop() { clear_pending(); }

  /// Solves a square system, one stored row per column, by back
  /// substitution from the last row up; calls assign(r, value) with the
  /// value of row r's pivot column.
  template <typename Assign>
  void back_substitute(Assign&& assign) {
    // The pending row is clear; it collects the solved values.
    for (std::size_t r = rows_.size(); r-- > 0;) {
      const Row& row = rows_[r];
      const std::uint64_t* src = arena_.data() + row.offset;
      std::uint64_t acc = 0;
      for (std::size_t w = row.lo; w <= row.hi; ++w) {
        acc ^= src[w - row.lo] & pending_[w];
      }
      const unsigned value =
          (row.rhs ^ static_cast<unsigned>(std::popcount(acc))) & 1u;
      if (value != 0) set(row.pivot);
      assign(r, value);
    }
    clear_pending();
  }

 private:
  struct Row {
    std::size_t step;
    std::size_t pivot;
    std::size_t offset;  // arena index of word `lo`
    std::size_t lo, hi;  // word span, inclusive
    unsigned rhs;
  };

  void clear_pending() {
    for (std::size_t w = lo_; w <= hi_ && w < pending_.size(); ++w) {
      pending_[w] = 0;
    }
    lo_ = pending_.size();
    hi_ = 0;
    pending_rhs_ = 0;
  }

  std::vector<std::uint64_t> pending_;
  std::size_t lo_ = 0, hi_ = 0;  // dirty word span; empty when lo_ > hi_
  unsigned pending_rhs_ = 0;
  std::vector<std::uint64_t> arena_;
  std::vector<Row> rows_;
  std::size_t first_ = 0;  // first stored row inside the 7-step window
};

}  // namespace sledzig::core
