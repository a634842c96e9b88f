// Property test for the engine's job table (src/sim/job_table.h).
//
// The oracle is what the engine kept before the table: std::maps keyed by
// job id for the records, the pending-since times, the preserved work and
// the running jobs. Seeded sequences drive the table and the oracle side by
// side through the engine's lifecycle steps (inject, arrive, start,
// preempt with and without kept progress, finish, abandon), with ids
// injected ascending (a trace load), descending and interleaved (SUBMITs
// that name their own ids, some below earlier ones). After every step the
// lookups, the counts and the id-ordered walk must agree with the oracle,
// and every slot must still sit at the address it was appended at.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/job_table.h"
#include "util/rng.h"

namespace coda::sim {
namespace {

struct OracleJob {
  double submit_time = 0.0;
  bool arrived = false;
  const JobTable::Slot* slot = nullptr;  // where add() put it
};

struct Oracle {
  std::map<cluster::JobId, OracleJob> records;
  std::map<cluster::JobId, double> pending_since;
  std::map<cluster::JobId, double> remaining;
  std::map<cluster::JobId, uint32_t> running;  // id -> run handle
};

enum class Ids { kAscending, kDescending, kInterleaved };

// The id sequence a trace load (ascending) or a stream of explicit-id
// SUBMITs (descending, interleaved) would inject. Interleaved ids mix a
// rising run, ids below everything so far, huge ids and multiples of 2^20
// (which a hash on the low bits would pile into one bucket).
class IdSource {
 public:
  IdSource(Ids kind, util::Rng* rng) : kind_(kind), rng_(rng) {}

  cluster::JobId next(const Oracle& oracle) {
    for (;;) {
      const cluster::JobId id = draw();
      if (oracle.records.count(id) == 0) {
        return id;
      }
    }
  }

 private:
  cluster::JobId draw() {
    switch (kind_) {
      case Ids::kAscending:
        return ++rising_;
      case Ids::kDescending:
        return falling_--;
      case Ids::kInterleaved:
        break;
    }
    switch (rng_->uniform_int(0, 3)) {
      case 0:
        rising_ += static_cast<cluster::JobId>(rng_->uniform_int(1, 3));
        return rising_;
      case 1:
        return static_cast<cluster::JobId>(rng_->uniform_int(1, 1000));
      case 2:
        return ~cluster::JobId{0} -
               static_cast<cluster::JobId>(rng_->uniform_int(0, 1000));
      default:
        return static_cast<cluster::JobId>(rng_->uniform_int(1, 4000))
               << 20;
    }
  }

  Ids kind_;
  util::Rng* rng_;
  cluster::JobId rising_ = 5000;
  cluster::JobId falling_ = 1000000;
};

// Every lookup, count and walk of the table against the oracle.
void expect_matches(const JobTable& table, const Oracle& oracle,
                    util::Rng* rng, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(table.size(), oracle.records.size());
  EXPECT_EQ(table.running_count(), oracle.running.size());

  for (const auto& [id, job] : oracle.records) {
    const JobTable::Slot* slot = table.find(id);
    ASSERT_EQ(slot, job.slot) << "job " << id << " moved or went missing";
    EXPECT_EQ(slot->id(), id);
    EXPECT_EQ(&table.at(id), &slot->record);
    EXPECT_EQ(slot->record.submit_time, job.submit_time);

    const auto pend = oracle.pending_since.find(id);
    EXPECT_EQ(slot->pending(), pend != oracle.pending_since.end()) << id;
    if (pend != oracle.pending_since.end()) {
      EXPECT_EQ(slot->pending_since(), pend->second) << id;
    }
    const auto rem = oracle.remaining.find(id);
    EXPECT_EQ(slot->has_remaining(), rem != oracle.remaining.end()) << id;
    if (rem != oracle.remaining.end()) {
      EXPECT_EQ(slot->remaining(), rem->second) << id;
    }
    const auto run = oracle.running.find(id);
    EXPECT_EQ(slot->running(), run != oracle.running.end()) << id;
    EXPECT_EQ(slot->run(),
              run != oracle.running.end() ? run->second : JobTable::kNone)
        << id;
  }

  // Ids the table does not hold: near held ones, and anywhere.
  for (int i = 0; i < 8; ++i) {
    const cluster::JobId probe =
        static_cast<cluster::JobId>(rng->uniform_int(0, 1 << 30));
    EXPECT_EQ(table.find(probe) == nullptr,
              oracle.records.count(probe) == 0) << probe;
  }

  // The walks, in the map's (ascending id) order.
  auto expected = oracle.records.begin();
  for (const auto& [id, record] : table) {
    ASSERT_NE(expected, oracle.records.end());
    EXPECT_EQ(id, expected->first);
    EXPECT_EQ(&record, &expected->second.slot->record);
    ++expected;
  }
  EXPECT_EQ(expected, oracle.records.end());
  const std::vector<uint32_t>& order = table.by_id();
  ASSERT_EQ(order.size(), oracle.records.size());
  expected = oracle.records.begin();
  for (uint32_t s : order) {
    EXPECT_EQ(&table.slot(s), expected->second.slot);
    ++expected;
  }
}

// A uniformly drawn key of `m`; `m` must not be empty.
template <typename Map>
cluster::JobId pick(const Map& m, util::Rng* rng) {
  auto it = m.begin();
  std::advance(it, rng->uniform_int(0, static_cast<int64_t>(m.size()) - 1));
  return it->first;
}

void run_sequence(uint64_t seed, Ids kind) {
  util::Rng rng(seed);
  IdSource ids(kind, &rng);
  JobTable table;
  Oracle oracle;
  std::vector<uint32_t> free_runs;
  uint32_t next_run = 0;
  double now = 0.0;

  for (int step = 0; step < 500; ++step) {
    now += rng.uniform(0.0, 10.0);
    std::map<cluster::JobId, bool> unarrived;
    for (const auto& [id, job] : oracle.records) {
      if (!job.arrived) {
        unarrived[id] = true;
      }
    }
    const int action = static_cast<int>(rng.uniform_int(0, 7));
    if (action <= 1 || oracle.records.empty()) {
      // Inject one job; a second add of an id already held is refused.
      workload::JobSpec spec;
      spec.id = ids.next(oracle);
      JobTable::Slot* slot = table.add(spec);
      ASSERT_NE(slot, nullptr);
      slot->record.submit_time = now;
      oracle.records[spec.id] = OracleJob{now, false, slot};
      if (rng.bernoulli(0.2)) {
        spec.id = pick(oracle.records, &rng);
        EXPECT_EQ(table.add(spec), nullptr);
      }
    } else if (action == 2 && !unarrived.empty()) {
      const cluster::JobId id = pick(unarrived, &rng);
      oracle.records[id].arrived = true;
      table.set_pending(*table.find(id), now);
      oracle.pending_since[id] = now;
    } else if (action == 3 && !oracle.pending_since.empty()) {
      // Start: preserved work stays, as start_job reads it without
      // erasing it.
      const cluster::JobId id = pick(oracle.pending_since, &rng);
      uint32_t run = next_run;
      if (!free_runs.empty()) {
        run = free_runs.back();
        free_runs.pop_back();
      } else {
        ++next_run;
      }
      JobTable::Slot& slot = *table.find(id);
      table.clear_pending(slot);
      table.set_run(slot, run);
      oracle.pending_since.erase(id);
      oracle.running[id] = run;
    } else if (action >= 4 && action <= 6 && !oracle.running.empty()) {
      const cluster::JobId id = pick(oracle.running, &rng);
      JobTable::Slot& slot = *table.find(id);
      free_runs.push_back(slot.run());
      table.clear_run(slot);
      oracle.running.erase(id);
      if (action == 4) {
        // Preempted, progress kept.
        const double work = rng.uniform(0.0, 1e6);
        table.set_remaining(slot, work);
        oracle.remaining[id] = work;
      } else if (action == 5) {
        // Evicted: a checkpointing job keeps its checkpoint, another loses
        // everything.
        if (rng.bernoulli(0.5)) {
          const double ckpt = rng.uniform(0.0, 1e6);
          table.set_remaining(slot, ckpt);
          oracle.remaining[id] = ckpt;
        } else {
          table.clear_remaining(slot);
          oracle.remaining.erase(id);
        }
      }
      if (action == 6) {
        // Finished.
        table.clear_remaining(slot);
        oracle.remaining.erase(id);
        slot.record.completed = true;
      } else {
        table.set_pending(slot, now);
        oracle.pending_since[id] = now;
      }
    } else if (action == 7 && !oracle.pending_since.empty()) {
      // Abandoned by the retry policy.
      const cluster::JobId id = pick(oracle.pending_since, &rng);
      JobTable::Slot& slot = *table.find(id);
      table.clear_pending(slot);
      table.clear_remaining(slot);
      slot.record.abandoned = true;
      oracle.pending_since.erase(id);
      oracle.remaining.erase(id);
    }
    expect_matches(table, oracle, &rng,
                   "seed " + std::to_string(seed) + " step " +
                       std::to_string(step));
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(JobTableProperty, AscendingIdsMatchTheMapOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_sequence(seed, Ids::kAscending);
  }
}

TEST(JobTableProperty, DescendingIdsMatchTheMapOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_sequence(seed, Ids::kDescending);
  }
}

TEST(JobTableProperty, InterleavedIdsMatchTheMapOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_sequence(seed, Ids::kInterleaved);
  }
}

// reserve() sizes the index once; lookups and the walk are unchanged by it.
TEST(JobTableProperty, ReserveKeepsLookupsAndOrder) {
  JobTable table;
  table.reserve(3000);
  std::set<cluster::JobId> ids;
  util::Rng rng(9);
  for (int i = 0; i < 3000; ++i) {
    workload::JobSpec spec;
    spec.id =
        static_cast<cluster::JobId>(rng.uniform_int(1, int64_t{1} << 40));
    if (ids.insert(spec.id).second) {
      ASSERT_NE(table.add(spec), nullptr);
    }
  }
  ASSERT_EQ(table.size(), ids.size());
  auto expected = ids.begin();
  for (const auto& [id, record] : table) {
    EXPECT_EQ(id, *expected);
    EXPECT_EQ(table.find(id)->id(), id);
    ++expected;
  }
}

}  // namespace
}  // namespace coda::sim
