#ifndef FLOWER_COMMON_VEC_DEQUE_H_
#define FLOWER_COMMON_VEC_DEQUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace flower {

/// Power-of-two ring-buffer FIFO over contiguous storage.
///
/// Drop-in replacement for the `std::deque` queues on the simulation
/// hot path (Storm bolt input queues, Kinesis shard buffers). Unlike
/// `std::deque`, which allocates and frees fixed-size chunks as the
/// head and tail move, a VecDeque that has reached its steady-state
/// capacity never touches the allocator again — a requirement of the
/// zero-allocation-per-tick guard in bench/perf_micro.
///
/// T must be default-constructible and assignable (the queues hold POD
/// tuples/records). Capacity grows by doubling and never shrinks.
template <typename T>
class VecDeque {
 public:
  VecDeque() = default;

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  size_t capacity() const { return buf_.size(); }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  /// The newest element. Not empty.
  T& back() { return buf_[(head_ + count_ - 1) & mask_]; }

  /// i-th element from the front (0 = front). No bounds check.
  T& operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }

  void push_back(const T& v) {
    if (count_ == buf_.size()) Grow(count_ + 1);
    buf_[(head_ + count_) & mask_] = v;
    ++count_;
  }
  void push_back(T&& v) {
    if (count_ == buf_.size()) Grow(count_ + 1);
    buf_[(head_ + count_) & mask_] = std::move(v);
    ++count_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Removes the first `n` elements (n <= size()).
  void PopFront(size_t n) {
    head_ = (head_ + n) & mask_;
    count_ -= n;
  }

  /// Length of the contiguous run that starts at front(): the elements
  /// `&front()[0 .. FrontRun())` are adjacent in memory. 0 when empty;
  /// equal to size() unless the contents wrap around the ring.
  size_t FrontRun() const {
    return count_ < buf_.size() - head_ ? count_ : buf_.size() - head_;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

  /// Bulk-appends `n` elements from `src` (the span transfer used by
  /// Cluster::Tick): one capacity check, then at most two contiguous
  /// copies, up to the end of the ring and on from its start.
  void AppendRange(const T* src, size_t n) {
    if (n == 0) return;
    if (count_ + n > buf_.size()) Grow(count_ + n);
    const size_t tail = (head_ + count_) & mask_;
    const size_t first = std::min(n, buf_.size() - tail);
    std::copy(src, src + first, buf_.data() + tail);
    std::copy(src + first, src + n, buf_.data());
    count_ += n;
  }

  /// Appends every element of `other` (front to back). `other` must be
  /// a different queue.
  void AppendAll(const VecDeque& other) {
    const size_t first = other.FrontRun();
    if (first == 0) return;
    AppendRange(&other.front(), first);
    AppendRange(other.buf_.data(), other.count_ - first);
  }

 private:
  void Grow(size_t need) {
    size_t cap = buf_.empty() ? 16 : buf_.size();
    while (cap < need) cap *= 2;
    std::vector<T> fresh(cap);
    for (size_t i = 0; i < count_; ++i) {
      fresh[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(fresh);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
  size_t mask_ = 0;
};

}  // namespace flower

#endif  // FLOWER_COMMON_VEC_DEQUE_H_
