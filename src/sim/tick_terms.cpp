#include "sim/tick_terms.h"

#include <algorithm>

#include "util/assert.h"

namespace coda::sim {

namespace {

constexpr auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };

}  // namespace

uint32_t TickTerms::add(cluster::JobId id, uint32_t cells) {
  CODA_ASSERT(cells > 0);
  uint32_t first = 0;
  if (cells < free_.size() && free_[cells] != kEnd) {
    first = static_cast<uint32_t>(free_[cells]);
    free_[cells] = cells_[first].cores;
    std::fill_n(cells_.begin() + first, cells, Cell{});
  } else {
    CODA_ASSERT(cells_.size() + cells <= static_cast<size_t>(INT32_MAX));
    first = static_cast<uint32_t>(cells_.size());
    cells_.resize(cells_.size() + cells);
  }
  added_.push_back(Entry{id, first, cells});
  return first;
}

void TickTerms::remove(cluster::JobId id) {
  const auto listed =
      std::lower_bound(order_.begin(), order_.end(), Entry{id}, by_id);
  if (listed != order_.end() && listed->id == id && listed->cells > 0) {
    release(*listed);
    listed->cells = 0;  // the next fold filters it out
    ++dead_;
    return;
  }
  const auto added = std::find_if(added_.begin(), added_.end(),
                                  [id](const Entry& e) { return e.id == id; });
  CODA_ASSERT_MSG(added != added_.end(), "removing a job not in the table");
  release(*added);
  *added = added_.back();
  added_.pop_back();
}

void TickTerms::release(const Entry& entry) {
  if (free_.size() <= entry.cells) {
    free_.resize(entry.cells + 1, kEnd);
  }
  cells_[entry.first].cores = free_[entry.cells];
  free_[entry.cells] = static_cast<int>(entry.first);
}

TickTerms::Sums TickTerms::fold() {
  if (dead_ > 0) {
    order_.erase(std::remove_if(order_.begin(), order_.end(),
                                [](const Entry& e) { return e.cells == 0; }),
                 order_.end());
    dead_ = 0;
  }
  if (!added_.empty()) {
    std::sort(added_.begin(), added_.end(), by_id);
    // Merge from the back into the grown list: every entry moves at most
    // once and no second buffer is needed. Ids are distinct (a removed
    // entry was filtered out above), so the order is total.
    size_t kept = order_.size();
    size_t fresh = added_.size();
    order_.resize(kept + fresh);
    for (size_t to = order_.size(); fresh > 0;) {
      if (kept > 0 && order_[kept - 1].id > added_[fresh - 1].id) {
        order_[--to] = order_[--kept];
      } else {
        order_[--to] = added_[--fresh];
      }
    }
    added_.clear();
  }
  // Cells without a GPU term add +0.0 and 0 to the GPU sums. That is
  // exact: under round-to-nearest a sum that starts at +0.0 is never -0.0,
  // and s + (+0.0) == s bit for bit for every other s.
  Sums sums;
  for (const Entry& e : order_) {
    const Cell* c = cells_.data() + e.first;
    for (uint32_t i = 0; i < e.cells; ++i) {
      sums.gpu_weighted += c[i].gpu_weighted;
      sums.gpus += c[i].gpus;
      sums.busy_cores += c[i].busy_cores;
      sums.cores += c[i].cores;
    }
  }
  return sums;
}

}  // namespace coda::sim
