// Tripwires that keep the experiment-config surface area honest.
//
// Every knob in sim::ExperimentConfig must be listed in the
// CODA_EXPERIMENT_CONFIG_FIELDS table (src/sim/experiment.h). The journal
// header writer and parser expand it (a missing field makes a non-default
// session replay under the wrong config), and so does experiment_cache_key
// (a missing field makes the cache return a stale report for a changed
// config).
//
// The table cannot see a new struct field automatically, so this test
// fails the build when a config struct changes size on the reference
// platform (x86-64 Linux, the CI target). If a static_assert below fires:
//
//   1. add the new field to CODA_EXPERIMENT_CONFIG_FIELDS (journal and
//      cache key pick it up; bump kExpectedV2Fields below),
//   2. update the sizeof constant here.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "service/journal.h"
#include "service/server.h"
#include "sim/experiment.h"

namespace coda {
namespace {

#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(sched::RetryPolicy) == 32,
              "RetryPolicy changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(sim::FailureConfig) == 24,
              "FailureConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(cluster::NodeConfig) == 40,
              "NodeConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(cluster::ClusterConfig) == 104,
              "ClusterConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(sim::EngineConfig) == 144,
              "EngineConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(core::AllocatorConfig) == 48,
              "AllocatorConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(core::EliminatorConfig) == 56,
              "EliminatorConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(core::CodaConfig) == 144,
              "CodaConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
static_assert(sizeof(sim::ExperimentConfig) == 360,
              "ExperimentConfig changed: list the field in "
              "CODA_EXPERIMENT_CONFIG_FIELDS (sim/experiment.h)");
// The service-side structs are not journaled, but their knobs are wired
// through from_env() / codad flag parsing and documented in DESIGN.md §8 —
// growing them must prompt a pass over both.
static_assert(sizeof(service::ServiceLimits) == 20,
              "ServiceLimits changed: wire the knob through from_env() and "
              "document it (DESIGN.md service section)");
static_assert(sizeof(service::ServerConfig) == 592,
              "ServerConfig changed: wire the knob through codad's flag "
              "parser and document it (DESIGN.md service section)");
#endif

// The number of `config.` lines the v2 journal header carries.
constexpr int kExpectedV2Fields = 43;

TEST(ConfigCoverage, V2HeaderCarriesEveryField) {
  service::SessionSpec session;
  session.config.horizon_s = 3600.0;
  const std::string header = service::serialize_session_header(session);

  std::set<std::string> keys;
  std::istringstream lines(header);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, 7, "config.") != 0) {
      continue;
    }
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    EXPECT_GT(line.size(), space + 1) << "empty value for " << key;
  }
  EXPECT_EQ(static_cast<int>(keys.size()), kExpectedV2Fields);
}

// A default-config header must parse back to a default config: every
// serialized value is accepted by its own parser, and removing a field
// from the writer trips the parser's completeness check.
TEST(ConfigCoverage, DefaultHeaderRoundTrips) {
  service::SessionSpec session;
  session.config.horizon_s = 7200.0;
  const std::string header = service::serialize_session_header(session);
  auto parsed = service::parse_journal(header);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(service::serialize_session_header(parsed->session), header);
}

}  // namespace
}  // namespace coda
