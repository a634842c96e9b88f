// Placement requests that found no placement, shared by the FIFO and DRF
// kicks so a request that cannot fit is refused without a search.
//
// A kick only starts jobs, so free capacity only shrinks while it runs, and
// feasibility is monotone in every field of a request: a request that needs
// at least as many nodes, GPUs per node and cores per node as one that
// failed must fail too. The memo therefore refuses every request that is
// componentwise >= a recorded failure. It stays valid across kicks for as
// long as the placement index's generation stays where the last kick left
// it, i.e. until the index records a change.
//
// CODA keeps its own exact-match memos: its eviction path can overshoot,
// so its searches are not monotone in the request.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/placement.h"

namespace coda::sched {

class FailedShapes {
 public:
  // Opens a kick at the index's current generation: every failure is
  // forgotten unless the index has not changed since end() was last called.
  void begin(uint64_t generation) {
    if (generation != generation_) {
      failed_.clear();
    }
  }

  // Closes a kick; its failures hold until the generation moves.
  void end(uint64_t generation) { generation_ = generation; }

  // True when `request` needs at least as much, in every field, as a
  // request that failed.
  bool refuses(const PlacementRequest& request) const {
    for (const PlacementRequest& f : failed_) {
      if (covers(f, request)) {
        return true;
      }
    }
    return false;
  }

  // Records a failed request the memo did not already refuse. The ones it
  // covers are dropped, so the memo holds only minimal failures.
  void add(const PlacementRequest& request) {
    std::erase_if(failed_, [&request](const PlacementRequest& f) {
      return covers(request, f);
    });
    failed_.push_back(request);
  }

 private:
  // Whether every field of `big` is >= the same field of `small`.
  static bool covers(const PlacementRequest& small,
                     const PlacementRequest& big) {
    return big.nodes >= small.nodes &&
           big.gpus_per_node >= small.gpus_per_node &&
           big.cpus_per_node >= small.cpus_per_node;
  }

  std::vector<PlacementRequest> failed_;
  uint64_t generation_ = ~0ULL;
};

}  // namespace coda::sched
