// TickTerms: the metrics tick's per-job terms in one dense table.
//
// Every running job owns a run of stable cells. A leg's cell carries the
// leg's busy cores (the cpu_util_active numerator) and its cores; the
// first cell of a GPU job also carries gpu_util * gpus and the GPU count.
// A CPU job has one cell, for its front leg. The engine writes the cells
// whenever it updates a job's rate, and the tick folds them.
//
// The fold visits jobs in ascending id and each job's cells in leg order.
// Floating-point sums depend on order, and this is the order the pinned
// report bytes were produced in, so every sum keeps its bits. The order
// lives in an id-sorted entry list, brought up to date once per fold: the
// removed jobs are filtered out and the ones added since the last fold are
// merged in from the back, in place. Freed cell runs are kept on intrusive
// lists by length. Once the table's three vectors have grown to their
// high-water marks, neither a fold, an add nor a remove allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/resources.h"

namespace coda::sim {

class TickTerms {
 public:
  // The tick's four sums: gpu_util_active is gpu_weighted / gpus and
  // cpu_util_active is busy_cores / cores.
  struct Sums {
    double gpu_weighted = 0.0;
    int gpus = 0;
    double busy_cores = 0.0;
    int cores = 0;
  };

  // Gives job `id` `cells` zeroed cells and files it for the next fold.
  // Returns the index of its first cell, stable until remove(id). The job
  // must not be in the table.
  uint32_t add(cluster::JobId id, uint32_t cells);
  // Drops job `id` from the table; its cells may be handed out again.
  void remove(cluster::JobId id);

  // The GPU term of the job whose first cell is `first`.
  void set_gpu(uint32_t first, double gpu_util, int gpus) {
    Cell& c = cells_[first];
    c.gpu_weighted = gpu_util * gpus;
    c.gpus = gpus;
  }
  // The busy cores and cores of one cell.
  void set_cores(uint32_t cell, double busy_cores, int cores) {
    Cell& c = cells_[cell];
    c.busy_cores = busy_cores;
    c.cores = cores;
  }

  Sums fold();

  size_t jobs() const { return order_.size() - dead_ + added_.size(); }

 private:
  struct Cell {
    double gpu_weighted = 0.0;
    double busy_cores = 0.0;
    int gpus = 0;
    int cores = 0;
  };
  struct Entry {
    cluster::JobId id = 0;
    uint32_t first = 0;
    uint32_t cells = 0;  // 0 marks an entry of order_ removed since a fold
  };

  // A free run's first cell links to the next free run of its length
  // through `cores` (kEnd ends the list); the rest of a free run is dead.
  static constexpr int kEnd = -1;

  // Files the entry's cells as free.
  void release(const Entry& entry);

  std::vector<Cell> cells_;
  // The first free run of each length, or kEnd: a job's run is handed to
  // the next job with as many cells.
  std::vector<int> free_;
  // Every job in the table as of the last fold, by ascending id.
  std::vector<Entry> order_;
  size_t dead_ = 0;           // entries of order_ removed since
  std::vector<Entry> added_;  // added since, in no particular order
};

}  // namespace coda::sim
