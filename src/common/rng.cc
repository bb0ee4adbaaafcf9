#include "common/rng.h"

namespace sledzig::common {

void Mt19937_64::twist() {
  constexpr std::size_t kM = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9u;
  // Word k from its upper bit, the next word's lower 31 bits and the word
  // kM ahead (mod kN); `0 - (y & 1)` is all ones exactly when y is odd.
  const auto next = [](result_type cur, result_type succ, result_type far) {
    const result_type y = (cur & kUpper) | (succ & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x_[k] = next(x_[k], x_[k + 1], x_[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x_[k] = next(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  x_[kN - 1] = next(x_[kN - 1], x_[0], x_[kM - 1]);
  p_ = 0;
}

}  // namespace sledzig::common
