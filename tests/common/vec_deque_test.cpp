#include "common/vec_deque.h"

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace flower {
namespace {

TEST(VecDequeTest, StartsEmpty) {
  VecDeque<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(VecDequeTest, FifoOrder) {
  VecDeque<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(VecDequeTest, WrapsAroundWithoutLosingOrder) {
  VecDeque<int> q;
  // Interleave pushes and pops so the head walks around the ring many
  // times while the size stays below capacity (no growth after warmup).
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(q.front(), next_out);
      q.pop_front();
      ++next_out;
    }
  }
  size_t cap = q.capacity();
  while (!q.empty()) {
    ASSERT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.capacity(), cap);  // pop never shrinks.
}

TEST(VecDequeTest, GrowPreservesOrderAcrossWrap) {
  VecDeque<int> q;
  // Force a wrapped state, then grow: elements must come out in order.
  for (int i = 0; i < 16; ++i) q.push_back(i);
  for (int i = 0; i < 10; ++i) q.pop_front();
  for (int i = 16; i < 40; ++i) q.push_back(i);  // Wraps, then grows.
  for (int i = 10; i < 40; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
}

TEST(VecDequeTest, IndexingIsFifoRelative) {
  VecDeque<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  for (int i = 0; i < 7; ++i) q.pop_front();
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i) + 7);
  }
}

TEST(VecDequeTest, AppendRangeBulkTransfer) {
  VecDeque<int> q;
  q.push_back(-1);
  int batch[5] = {0, 1, 2, 3, 4};
  q.AppendRange(batch, 5);
  q.AppendRange(batch, 0);  // Empty append is a no-op.
  ASSERT_EQ(q.size(), 6u);
  EXPECT_EQ(q.front(), -1);
  for (size_t i = 1; i < 6; ++i) EXPECT_EQ(q[i], static_cast<int>(i) - 1);

  // An append that crosses the end of the ring continues at its start.
  VecDeque<int> w;
  for (int i = 0; i < 16; ++i) w.push_back(i);
  ASSERT_EQ(w.capacity(), 16u);
  w.PopFront(12);  // Head at slot 12; 4 slots to the end of the ring.
  int more[10] = {16, 17, 18, 19, 20, 21, 22, 23, 24, 25};
  w.AppendRange(more, 10);
  EXPECT_EQ(w.capacity(), 16u);
  EXPECT_LT(w.FrontRun(), w.size());  // The contents wrap.
  ASSERT_EQ(w.size(), 14u);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], static_cast<int>(i) + 12);
  }
  // An append that outgrows a wrapped ring keeps the order.
  int grow[20];
  for (int i = 0; i < 20; ++i) grow[i] = 26 + i;
  w.AppendRange(grow, 20);
  EXPECT_EQ(w.capacity(), 64u);
  ASSERT_EQ(w.size(), 34u);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], static_cast<int>(i) + 12);
  }

  // Random appends and pops against std::deque: every length, from
  // every head position, with and without growth.
  Rng rng(3);
  VecDeque<int> r;
  std::deque<int> ref;
  std::vector<int> src;
  int next = 0;
  for (int step = 0; step < 2000; ++step) {
    src.resize(static_cast<size_t>(rng.UniformInt(0, 40)));
    for (int& v : src) v = next++;
    r.AppendRange(src.data(), src.size());
    ref.insert(ref.end(), src.begin(), src.end());
    const size_t pop = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ref.size())));
    r.PopFront(pop);
    ref.erase(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(pop));
    ASSERT_EQ(r.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(r[i], ref[i]) << step;
  }
}

TEST(VecDequeTest, BackIsTheNewestElement) {
  VecDeque<int> q;
  for (int i = 0; i < 20; ++i) {
    q.push_back(i);
    EXPECT_EQ(q.back(), i);
    if (i % 3 == 0) q.pop_front();  // The head walks; back() follows.
  }
  q.back() = 99;
  EXPECT_EQ(q[q.size() - 1], 99);
}

TEST(VecDequeTest, ClearKeepsCapacity) {
  VecDeque<std::string> q;
  for (int i = 0; i < 33; ++i) q.push_back(std::to_string(i));
  size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back("again");
  EXPECT_EQ(q.front(), "again");
}

TEST(VecDequeTest, SteadyStateChurnDoesNotGrow) {
  VecDeque<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  size_t cap = q.capacity();
  for (int i = 0; i < 10000; ++i) {
    q.push_back(i);
    q.pop_front();
  }
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.size(), 8u);
}

}  // namespace
}  // namespace flower
