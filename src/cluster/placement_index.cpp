#include "cluster/placement_index.h"

#include <bit>

#include "util/assert.h"

namespace coda::cluster {

namespace {
constexpr size_t kWordBits = IdBitmap::kWordBits;
}  // namespace

void IdBitmap::reset(size_t capacity) {
  capacity_ = capacity;
  count_ = 0;
  const size_t words = (capacity + kWordBits - 1) / kWordBits;
  const size_t summary = (words + kWordBits - 1) / kWordBits;
  words_.assign(words, 0);
  summary_.assign(summary, 0);
}

void IdBitmap::insert(NodeId id) {
  CODA_ASSERT(id < capacity_);
  const size_t w = id / kWordBits;
  const uint64_t bit = 1ULL << (id % kWordBits);
  CODA_ASSERT((words_[w] & bit) == 0);
  if (words_[w] == 0) {
    summary_[w / kWordBits] |= 1ULL << (w % kWordBits);
  }
  words_[w] |= bit;
  ++count_;
}

void IdBitmap::erase(NodeId id) {
  CODA_ASSERT(id < capacity_);
  const size_t w = id / kWordBits;
  const uint64_t bit = 1ULL << (id % kWordBits);
  CODA_ASSERT((words_[w] & bit) != 0);
  words_[w] &= ~bit;
  if (words_[w] == 0) {
    summary_[w / kWordBits] &= ~(1ULL << (w % kWordBits));
  }
  --count_;
}

bool IdBitmap::contains(NodeId id) const {
  if (id >= capacity_) {
    return false;
  }
  return (words_[id / kWordBits] >> (id % kWordBits)) & 1ULL;
}

NodeId IdBitmap::next_at_least(NodeId from) const {
  if (count_ == 0 || from >= capacity_) {
    return kNone;
  }
  size_t w = from / kWordBits;
  const uint64_t first = words_[w] & (~0ULL << (from % kWordBits));
  if (first != 0) {
    return static_cast<NodeId>(w * kWordBits + std::countr_zero(first));
  }
  // Skip empty words via the summary level.
  ++w;
  while (w < words_.size()) {
    const size_t sw = w / kWordBits;
    const uint64_t sbits = summary_[sw] & (~0ULL << (w % kWordBits));
    if (sbits != 0) {
      const size_t nw = sw * kWordBits + std::countr_zero(sbits);
      return static_cast<NodeId>(nw * kWordBits +
                                 std::countr_zero(words_[nw]));
    }
    w = (sw + 1) * kWordBits;
  }
  return kNone;
}

void PlacementIndex::reset(int max_gpus, int max_cpus, size_t node_count) {
  CODA_ASSERT(max_gpus >= 0 && max_cpus >= 0);
  max_gpus_ = max_gpus;
  max_cpus_ = max_cpus;
  buckets_.assign(static_cast<size_t>(max_gpus + 1) * (max_cpus + 1),
                  IdBitmap{});
  cpu_marginal_.assign(static_cast<size_t>(max_cpus + 1), IdBitmap{});
  adjusted_.assign(static_cast<size_t>(max_cpus + 1), IdBitmap{});
  for (auto& b : buckets_) {
    b.reset(node_count);
  }
  for (auto& b : cpu_marginal_) {
    b.reset(node_count);
  }
  for (auto& b : adjusted_) {
    b.reset(node_count);
  }
  key_gpus_.assign(node_count, 0);
  key_cpus_.assign(node_count, 0);
  bias_.assign(node_count, 0);
  row_words_ = (static_cast<size_t>(max_cpus) + kWordBits) / kWordBits;
  occupied_.assign(static_cast<size_t>(max_gpus + 1) * row_words_, 0);
  for (NodeId id = 0; id < node_count; ++id) {
    buckets_[bucket_of(0, 0)].insert(id);
    cpu_marginal_[0].insert(id);
    adjusted_[0].insert(id);
  }
  set_occupied(0, 0, node_count > 0);
  ++generation_;
  ++stats_.rebuilds;
}

void PlacementIndex::node_changed(NodeId id, int free_gpus, int free_cpus) {
  CODA_ASSERT(id < key_gpus_.size());
  CODA_ASSERT(free_gpus >= 0 && free_gpus <= max_gpus_);
  CODA_ASSERT(free_cpus >= 0 && free_cpus <= max_cpus_);
  int& kg = key_gpus_[id];
  int& kc = key_cpus_[id];
  if (kg == free_gpus && kc == free_cpus) {
    return;
  }
  IdBitmap& from = buckets_[bucket_of(kg, kc)];
  from.erase(id);
  if (from.empty()) {
    set_occupied(kg, kc, false);
  }
  IdBitmap& to = buckets_[bucket_of(free_gpus, free_cpus)];
  to.insert(id);
  if (to.count() == 1) {
    set_occupied(free_gpus, free_cpus, true);
  }
  if (kc != free_cpus) {
    cpu_marginal_[kc].erase(id);
    cpu_marginal_[free_cpus].insert(id);
    const int old_adj = adjusted_of(kc, bias_[id]);
    const int new_adj = adjusted_of(free_cpus, bias_[id]);
    if (old_adj != new_adj) {
      adjusted_[old_adj].erase(id);
      adjusted_[new_adj].insert(id);
    }
  }
  kg = free_gpus;
  kc = free_cpus;
  ++generation_;
}

void PlacementIndex::set_cpu_bias(NodeId id, int bias) {
  CODA_ASSERT(id < bias_.size());
  CODA_ASSERT(bias >= 0);
  const int old_adj = adjusted_of(key_cpus_[id], bias_[id]);
  const int new_adj = adjusted_of(key_cpus_[id], bias);
  bias_[id] = bias;
  if (old_adj != new_adj) {
    adjusted_[old_adj].erase(id);
    adjusted_[new_adj].insert(id);
    ++generation_;
  }
}

void PlacementIndex::set_occupied(int free_gpus, int free_cpus,
                                  bool occupied) {
  const auto c = static_cast<size_t>(free_cpus);
  uint64_t& word = occupied_[static_cast<size_t>(free_gpus) * row_words_ +
                             c / kWordBits];
  const uint64_t bit = 1ULL << (c % kWordBits);
  word = occupied ? (word | bit) : (word & ~bit);
}

size_t PlacementIndex::collect_best_fit(int gpus, int cpus, IdRange range,
                                        size_t want,
                                        std::vector<NodeId>* out) const {
  ++stats_.probes;
  CODA_ASSERT(gpus >= 1 || cpus >= 1);
  if (gpus > max_gpus_ || cpus > max_cpus_) {
    return 0;
  }
  // Rows ascend in free GPUs and each row's set bits ascend in free cores:
  // the buckets visited are the non-empty ones of the full grid walk, in
  // the same order.
  const size_t first_word = static_cast<size_t>(cpus) / kWordBits;
  const uint64_t first_mask = ~0ULL << (static_cast<size_t>(cpus) % kWordBits);
  size_t appended = 0;
  for (int g = gpus; g <= max_gpus_ && appended < want; ++g) {
    const uint64_t* row = &occupied_[static_cast<size_t>(g) * row_words_];
    for (size_t w = first_word; w < row_words_ && appended < want; ++w) {
      uint64_t bits = row[w] & (w == first_word ? first_mask : ~0ULL);
      for (; bits != 0 && appended < want; bits &= bits - 1) {
        const int c = static_cast<int>(w * kWordBits) + std::countr_zero(bits);
        const IdBitmap& b = buckets_[bucket_of(g, c)];
        NodeId id = b.next_at_least(range.lo);
        while (id < range.hi && appended < want) {
          out->push_back(id);
          ++appended;
          id = b.next_at_least(id + 1);
        }
      }
    }
  }
  return appended;
}

NodeId PlacementIndex::best_adjusted_fit(int cpus) const {
  ++stats_.probes;
  for (int c = cpus; c <= max_cpus_; ++c) {
    const IdBitmap& b = adjusted_[c];
    if (!b.empty()) {
      return b.next_at_least(0);
    }
  }
  return kNone;
}

NodeId PlacementIndex::best_free_cpu_fit(int cpus) const {
  ++stats_.probes;
  for (int c = cpus; c <= max_cpus_; ++c) {
    const IdBitmap& b = cpu_marginal_[c];
    if (!b.empty()) {
      return b.next_at_least(0);
    }
  }
  return kNone;
}

void PlacementIndex::collect_eviction_candidates(
    int gpus, int cpus_below, IdRange range, std::vector<NodeId>* out) const {
  ++stats_.probes;
  if (gpus > max_gpus_) {
    return;
  }
  const int c_hi = cpus_below < max_cpus_ + 1 ? cpus_below : max_cpus_ + 1;
  for (int g = gpus; g <= max_gpus_; ++g) {
    for (int c = 0; c < c_hi; ++c) {
      const IdBitmap& b = buckets_[bucket_of(g, c)];
      if (b.empty()) {
        continue;
      }
      NodeId id = b.next_at_least(range.lo);
      while (id < range.hi) {
        out->push_back(id);
        id = b.next_at_least(id + 1);
      }
    }
  }
}

long long PlacementIndex::free_gpu_sum_below(int gpus) const {
  ++stats_.probes;
  const int g_hi = gpus < max_gpus_ + 1 ? gpus : max_gpus_ + 1;
  long long total = 0;
  for (int g = 1; g < g_hi; ++g) {
    size_t nodes_at_g = 0;
    for (int c = 0; c <= max_cpus_; ++c) {
      nodes_at_g += buckets_[bucket_of(g, c)].count();
    }
    total += static_cast<long long>(g) * static_cast<long long>(nodes_at_g);
  }
  return total;
}

}  // namespace coda::cluster
