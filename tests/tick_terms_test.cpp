// Equivalence suite for the metrics tick's dense term table
// (src/sim/tick_terms.h).
//
// The oracle is the tick's old job walk: running jobs in a std::map by id,
// a GPU job adding gpu_util * gpus and then every leg's busy cores, a CPU
// job its front leg. Seeded sequences of starts, finishes, resizes and rate
// changes drive the table and the oracle side by side, and after every
// step (one simulated tick) the four sums must agree bit for bit. Steps
// also start and finish a job between two ticks, and stop and restart a
// job under the same id between two ticks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "sim/tick_terms.h"
#include "util/rng.h"

namespace coda::sim {
namespace {

struct Leg {
  double busy_cores = 0.0;
  int cpus = 0;
};

struct OracleJob {
  bool gpu_job = false;
  int gpus = 0;
  double gpu_util = 0.0;
  std::vector<Leg> legs;
  uint32_t first = 0;  // the job's first cell in the table
};

using Running = std::map<cluster::JobId, OracleJob>;

TickTerms::Sums oracle_fold(const Running& running) {
  TickTerms::Sums s;
  for (const auto& [id, job] : running) {
    if (job.gpu_job) {
      s.gpu_weighted += job.gpu_util * job.gpus;
      s.gpus += job.gpus;
      for (const Leg& leg : job.legs) {
        s.busy_cores += leg.busy_cores;
        s.cores += leg.cpus;
      }
    } else {
      s.busy_cores += job.legs.front().busy_cores;
      s.cores += job.legs.front().cpus;
    }
  }
  return s;
}

// What ClusterEngine::store_tick_terms writes for the job.
void store(TickTerms* table, const OracleJob& job) {
  if (!job.gpu_job) {
    table->set_cores(job.first, job.legs.front().busy_cores,
                     job.legs.front().cpus);
    return;
  }
  table->set_gpu(job.first, job.gpu_util, job.gpus);
  for (size_t i = 0; i < job.legs.size(); ++i) {
    table->set_cores(job.first + static_cast<uint32_t>(i),
                     job.legs[i].busy_cores, job.legs[i].cpus);
  }
}

// Busy cores spread over several magnitudes, so that a sum taken in
// another order would round differently.
double busy(util::Rng& rng, int cpus) {
  return cpus * rng.uniform() * (rng.bernoulli(0.2) ? 1e-7 : 1.0) +
         (rng.bernoulli(0.05) ? 1e6 * rng.uniform() : 0.0);
}

void rerate(util::Rng& rng, OracleJob* job) {
  job->gpu_util = job->gpu_job ? rng.uniform() : 0.0;
  for (Leg& leg : job->legs) {
    leg.busy_cores = busy(rng, leg.cpus);
  }
}

class Harness {
 public:
  explicit Harness(uint64_t seed) : rng_(seed) {}

  void start(cluster::JobId id) {
    OracleJob job;
    job.gpu_job = rng_.bernoulli(0.5);
    const auto legs = job.gpu_job ? rng_.uniform_int(1, 8) : 1;
    for (int64_t i = 0; i < legs; ++i) {
      job.legs.push_back(Leg{0.0, static_cast<int>(rng_.uniform_int(1, 28))});
    }
    job.gpus = job.gpu_job ? static_cast<int>(legs * rng_.uniform_int(1, 4))
                           : 0;
    rerate(rng_, &job);
    job.first = table_.add(id, job.gpu_job ? static_cast<uint32_t>(legs) : 1);
    store(&table_, job);
    ASSERT_TRUE(running_.emplace(id, job).second);
  }

  void finish(cluster::JobId id) {
    ASSERT_EQ(running_.erase(id), 1u);
    table_.remove(id);
  }

  void resize(OracleJob* job) {
    Leg& leg = job->legs[static_cast<size_t>(
        rng_.uniform_int(0, static_cast<int64_t>(job->legs.size()) - 1))];
    leg.cpus = static_cast<int>(rng_.uniform_int(1, 28));
    rerate(rng_, job);
    store(&table_, *job);
  }

  // One step between two ticks: a few random operations, then the tick.
  void step() {
    const int64_t ops = rng_.uniform_int(0, 6);
    for (int64_t i = 0; i < ops; ++i) {
      const double pick = rng_.uniform();
      if (pick < 0.35 || running_.empty()) {
        start(free_id());
      } else {
        auto it = std::next(running_.begin(),
                            rng_.uniform_int(0, static_cast<int64_t>(
                                                    running_.size()) -
                                                    1));
        if (pick < 0.6) {
          finish(it->first);
        } else if (pick < 0.8) {
          resize(&it->second);
        } else {
          rerate(rng_, &it->second);
          store(&table_, it->second);
        }
      }
    }
    tick();
  }

  void tick() {
    const TickTerms::Sums got = table_.fold();
    const TickTerms::Sums want = oracle_fold(running_);
    ++ticks_;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.gpu_weighted),
              std::bit_cast<uint64_t>(want.gpu_weighted))
        << "tick " << ticks_;
    EXPECT_EQ(got.gpus, want.gpus) << "tick " << ticks_;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.busy_cores),
              std::bit_cast<uint64_t>(want.busy_cores))
        << "tick " << ticks_;
    EXPECT_EQ(got.cores, want.cores) << "tick " << ticks_;
    EXPECT_EQ(table_.jobs(), running_.size()) << "tick " << ticks_;
  }

  // An id not running now: fresh or a finished job's, so ids arrive out
  // of order and come back.
  cluster::JobId free_id() {
    for (;;) {
      const auto id = static_cast<cluster::JobId>(rng_.uniform_int(0, 400));
      if (running_.count(id) == 0) {
        return id;
      }
    }
  }

  Running& running() { return running_; }
  util::Rng& rng() { return rng_; }

 private:
  util::Rng rng_;
  TickTerms table_;
  Running running_;
  int ticks_ = 0;
};

TEST(TickTermsEquivalence, SeededSequencesMatchTheRunningMapWalk) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    for (int i = 0; i < 400 && !testing::Test::HasFailure(); ++i) {
      h.step();
      if (i % 50 == 25) {
        // Started and finished between two ticks.
        const cluster::JobId id = h.free_id();
        h.start(id);
        h.finish(id);
        h.tick();
        // Stopped and restarted under the same id between two ticks: an
        // evicted job that the scheduler starts again at once.
        if (h.running().empty()) {
          h.start(h.free_id());
        }
        auto it = std::next(h.running().begin(),
                            h.rng().uniform_int(
                                0, static_cast<int64_t>(h.running().size()) -
                                       1));
        const cluster::JobId again = it->first;
        h.finish(again);
        h.start(again);
        h.finish(again);
        h.start(again);
        h.tick();
      }
    }
    EXPECT_GT(h.running().size(), 0u);
  }
}

TEST(TickTermsEquivalence, EmptyTableFoldsToZeros) {
  TickTerms table;
  const TickTerms::Sums s = table.fold();
  EXPECT_EQ(std::bit_cast<uint64_t>(s.gpu_weighted), 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(s.busy_cores), 0u);
  EXPECT_EQ(s.gpus, 0);
  EXPECT_EQ(s.cores, 0);
}

}  // namespace
}  // namespace coda::sim
