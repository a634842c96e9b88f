#include "perfmodel/train_perf.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/assert.h"
#include "util/strings.h"

namespace coda::perfmodel {

namespace {

// Utilization decay per core held beyond the saturation knee (Fig. 3: GPU
// utilization "drops slightly" past the optimum — framework worker threads
// beyond the pipeline's needs add scheduling noise).
constexpr double kOverAllocDecayPerCore = 0.004;

// The engine's contended-evaluation scans never exceed this core count (the
// reference knee scan searched 1..64).
constexpr int kKneeScanMax = 64;

// Contention factors are continuous, but in practice the contention model
// emits a small recurring set of values (1.0 exactly on every uncontended
// node). The memo key keeps the EXACT factor bits; only the hash drops the
// low `kQuantMantissaBits` mantissa bits (epsilon ~2^-32 relative) so that
// factors differing by noise-level ulps share a bucket. Because equality is
// exact, quantization can only affect bucket collisions — never which value
// a lookup returns — so memoized results are bit-identical by construction.
constexpr int kQuantMantissaBits = 20;

uint64_t bits_of(double x) {
  uint64_t b;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

uint64_t quantize_bits(uint64_t b) {
  return b & ~((uint64_t{1} << kQuantMantissaBits) - 1);
}

uint64_t mix_hash(uint64_t h, uint64_t v) {
  // splitmix64-style mixing.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::string TrainConfig::name() const {
  return util::strfmt("%dN%dG", nodes, nodes * gpus_per_node);
}

TrainConfig config_1n1g(int batch_size) {
  return TrainConfig{1, 1, batch_size};
}

TrainConfig config_1n4g(int batch_size) {
  return TrainConfig{1, 4, batch_size};
}

TrainConfig config_2n4g(int batch_size) {
  return TrainConfig{2, 2, batch_size};
}

size_t TrainPerf::InvKeyHash::operator()(const InvKey& k) const {
  uint64_t h = 0x243f6a8885a308d3ull;
  h = mix_hash(h, static_cast<uint64_t>(k.model));
  h = mix_hash(h, static_cast<uint64_t>(k.nodes));
  h = mix_hash(h, static_cast<uint64_t>(k.gpus_per_node));
  h = mix_hash(h, static_cast<uint64_t>(k.batch_size));
  h = mix_hash(h, k.net_bits);
  return static_cast<size_t>(h);
}

size_t TrainPerf::EvalKeyHash::operator()(const EvalKey& k) const {
  uint64_t h = 0x13198a2e03707344ull;
  h = mix_hash(h, static_cast<uint64_t>(k.cores));
  h = mix_hash(h, quantize_bits(k.prep_bits));
  h = mix_hash(h, quantize_bits(k.gpu_bits));
  return static_cast<size_t>(h);
}

double TrainPerf::batch_ratio(ModelId id, const TrainConfig& cfg) const {
  const ModelParams& p = model_params(id);
  const int bs = cfg.batch_size > 0 ? cfg.batch_size : p.default_batch;
  return static_cast<double>(bs) / p.default_batch;
}

// --------------------------------------------------------------- reference
// The original unmemoized arithmetic. Every cached quantity below is
// produced by these exact expressions (same operations, same order), which
// is what makes the memoized path bit-identical; the equivalence suite
// asserts it stays that way.

double TrainPerf::ref_prep_time(ModelId id, const TrainConfig& cfg, int cores,
                                const ContentionFactors& contention) const {
  CODA_ASSERT(cores >= 1);
  CODA_ASSERT(cfg.nodes >= 1 && cfg.gpus_per_node >= 1);
  const ModelParams& p = model_params(id);
  const double bs = batch_ratio(id, cfg);
  // Parallelizable prep work on one node: one data pipeline per local GPU,
  // with partially-shared decode/augmentation across GPUs (sub-linear
  // per-model growth slope, Sec. IV-B2).
  const double gpu_scale =
      1.0 + p.multi_gpu_prep_slope * (cfg.gpus_per_node - 1);
  double work = p.prep_work_core_s * std::pow(bs, p.prep_bs_exp) * gpu_scale;
  if (cfg.nodes > 1) {
    // Network-gated input pipeline: in multi-node runs the loader idles at
    // global synchronization barriers, so the effective per-iteration CPU
    // work observed is far smaller (Sec. IV-B2: measured multi-node CPU
    // demand collapses to <= 2 cores).
    work *= p.multi_node_prep_scale;
  }
  const int usable = std::min(cores, p.prep_parallel_limit);
  const double t = p.prep_serial_s + work / usable;
  return t * std::max(1.0, contention.prep_inflation);
}

double TrainPerf::ref_gpu_phase_time(
    ModelId id, const TrainConfig& cfg,
    const ContentionFactors& contention) const {
  const ModelParams& p = model_params(id);
  const double bs = batch_ratio(id, cfg);
  double t = p.gpu_time_s * std::pow(bs, p.gpu_bs_exp);
  if (cfg.nodes > 1) {
    // Exposed gradient-synchronization cost over the 10 Gb/s interconnect
    // (calibrated to the paper's 25-30% degradation vs 1N4G). Slower links
    // expose proportionally more of the communication.
    const double link_scale = 1.25 / std::max(cfg.net_gbps, 1e-3);
    t *= 1.0 + (p.multi_node_slowdown - 1.0) * link_scale;
  }
  return t * std::max(1.0, contention.gpu_inflation);
}

double TrainPerf::ref_iter_time(ModelId id, const TrainConfig& cfg, int cores,
                                const ContentionFactors& contention) const {
  const ModelParams& p = model_params(id);
  const double prep = ref_prep_time(id, cfg, cores, contention);
  const double gpu = ref_gpu_phase_time(id, cfg, contention);
  const double body = p.pipelined ? std::max(prep, gpu) : prep + gpu;
  return body + p.overhead_s;
}

int TrainPerf::ref_saturation_cores(ModelId id, const TrainConfig& cfg,
                                    const ContentionFactors& contention,
                                    int max_cores) const {
  const double gpu = ref_gpu_phase_time(id, cfg, contention);
  for (int c = 1; c <= max_cores; ++c) {
    if (ref_prep_time(id, cfg, c, contention) <= gpu) {
      return c;
    }
  }
  return max_cores;
}

double TrainPerf::ref_gpu_utilization(
    ModelId id, const TrainConfig& cfg, int cores,
    const ContentionFactors& contention) const {
  const double gpu = ref_gpu_phase_time(id, cfg, contention);
  const double iter = ref_iter_time(id, cfg, cores, contention);
  const int knee =
      ref_saturation_cores(id, cfg, contention, /*max_cores=*/kKneeScanMax);
  const double decay =
      1.0 - kOverAllocDecayPerCore * std::max(0, cores - knee);
  // util_ceiling: even a perfectly-fed GPU tops out below 100% SM
  // utilization (kernel efficiency differs per model, Fig. 3).
  const double ceiling = model_params(id).util_ceiling;
  return std::clamp(gpu / iter * decay * ceiling, 0.0, 1.0);
}

int TrainPerf::ref_optimal_cores(ModelId id, const TrainConfig& cfg,
                                 int max_cores, double tolerance) const {
  CODA_ASSERT(max_cores >= 1);
  double best = 0.0;
  for (int c = 1; c <= max_cores; ++c) {
    best = std::max(best, ref_gpu_utilization(id, cfg, c, {}));
  }
  for (int c = 1; c <= max_cores; ++c) {
    if (ref_gpu_utilization(id, cfg, c, {}) >= best * (1.0 - tolerance)) {
      return c;
    }
  }
  CODA_UNREACHABLE("optimal_cores: no core count reached best utilization");
}

double TrainPerf::ref_mem_bw_demand_gbps(ModelId id, const TrainConfig& cfg,
                                         int cores) const {
  const ModelParams& p = model_params(id);
  const double bs = batch_ratio(id, cfg);
  const double per_gpu = p.mem_bw_gbps * std::pow(bs, p.mem_bs_exp);
  const int opt = ref_optimal_cores(id, cfg);
  const double rate_scale =
      ref_iter_time(id, cfg, opt) / ref_iter_time(id, cfg, cores);
  return per_gpu * cfg.gpus_per_node * std::min(1.0, rate_scale);
}

double TrainPerf::ref_pcie_demand_gbps(ModelId id, const TrainConfig& cfg,
                                       int cores) const {
  const ModelParams& p = model_params(id);
  const double bs = batch_ratio(id, cfg);
  const double per_gpu = p.pcie_gbps * std::pow(bs, p.mem_bs_exp);
  const int opt = ref_optimal_cores(id, cfg);
  const double rate_scale =
      ref_iter_time(id, cfg, opt) / ref_iter_time(id, cfg, cores);
  return per_gpu * cfg.gpus_per_node * std::min(1.0, rate_scale);
}

// ------------------------------------------------------------- memoization

const TrainPerf::Invariants& TrainPerf::invariants(
    ModelId id, const TrainConfig& cfg) const {
  InvKey key;
  key.model = static_cast<int>(id);
  key.nodes = cfg.nodes;
  key.gpus_per_node = cfg.gpus_per_node;
  key.batch_size = cfg.batch_size;
  key.net_bits = bits_of(cfg.net_gbps);
  if (last_entry_ != nullptr && key == last_key_) {
    return *last_entry_;
  }
  auto it = interned_.find(key);
  if (it == interned_.end()) {
    CODA_ASSERT(cfg.nodes >= 1 && cfg.gpus_per_node >= 1);
    auto inv = std::make_unique<Invariants>();
    const ModelParams& p = model_params(id);
    const double bs = batch_ratio(id, cfg);
    // Same expression chain as ref_prep_time / ref_gpu_phase_time so the
    // cached values carry identical bits.
    const double gpu_scale =
        1.0 + p.multi_gpu_prep_slope * (cfg.gpus_per_node - 1);
    double work = p.prep_work_core_s * std::pow(bs, p.prep_bs_exp) * gpu_scale;
    if (cfg.nodes > 1) {
      work *= p.multi_node_prep_scale;
    }
    inv->prep_work = work;
    double gpu = p.gpu_time_s * std::pow(bs, p.gpu_bs_exp);
    if (cfg.nodes > 1) {
      const double link_scale = 1.25 / std::max(cfg.net_gbps, 1e-3);
      gpu *= 1.0 + (p.multi_node_slowdown - 1.0) * link_scale;
    }
    inv->gpu_base = gpu;
    inv->mem_per_gpu = p.mem_bw_gbps * std::pow(bs, p.mem_bs_exp);
    inv->pcie_per_gpu = p.pcie_gbps * std::pow(bs, p.mem_bs_exp);
    inv->evals.reserve(128);
    ++stats_.invariant_builds;
    it = interned_.emplace(key, std::move(inv)).first;
  }
  last_key_ = key;
  last_entry_ = it->second.get();
  return *last_entry_;
}

int TrainPerf::saturation_cores_fast(const ModelParams& p,
                                     const Invariants& inv,
                                     const ContentionFactors& contention,
                                     int max_cores) const {
  // Reference predicate, over cached invariants:
  //   prep(c) = (serial + work / min(c, limit)) * max(1, prep_inflation)
  //   knee    = smallest c in 1..max with prep(c) <= gpu, else max.
  // prep(c) is (weakly) monotone nonincreasing in c — FP division and
  // addition are monotone — so a closed-form candidate plus a short exact
  // walk lands on the same index the linear scan would.
  const double pi = std::max(1.0, contention.prep_inflation);
  const double gpu = inv.gpu_base * std::max(1.0, contention.gpu_inflation);
  const auto prep_at = [&](int c) {
    const int usable = std::min(c, p.prep_parallel_limit);
    const double t = p.prep_serial_s + inv.prep_work / usable;
    return t * pi;
  };
  if (prep_at(1) <= gpu) {
    return 1;
  }
  const int limit = std::min(max_cores, p.prep_parallel_limit);
  if (prep_at(limit) > gpu) {
    // Early exit: prep is constant past the parallel limit, so no core
    // count in range fits under the GPU phase.
    return max_cores;
  }
  // Closed form: prep(c) <= gpu  <=>  work / c <= gpu / pi - serial.
  const double headroom = gpu / pi - p.prep_serial_s;
  int c = headroom > 0.0
              ? static_cast<int>(std::ceil(inv.prep_work / headroom))
              : limit;
  c = std::clamp(c, 2, limit);
  // FP rounding can put the candidate one step off the scan's answer;
  // walk with the exact predicate (monotone, so this terminates at the
  // true boundary in a step or two).
  while (c > 1 && prep_at(c - 1) <= gpu) {
    --c;
  }
  while (c < limit && prep_at(c) > gpu) {
    ++c;
  }
  return c;
}

const TrainPerf::EvalEntry& TrainPerf::evaluate(
    ModelId id, const TrainConfig& cfg, int cores,
    const ContentionFactors& contention) const {
  CODA_ASSERT(cores >= 1);
  const Invariants& inv = invariants(id, cfg);
  // invariants() is the only interned_ mutator, so inv stays valid while we
  // insert into its eval map (node-based containers, stable addresses).
  auto& evals = const_cast<Invariants&>(inv).evals;
  EvalKey key;
  key.cores = cores;
  key.prep_bits = bits_of(contention.prep_inflation);
  key.gpu_bits = bits_of(contention.gpu_inflation);
  auto it = evals.find(key);
  if (it != evals.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  const ModelParams& p = model_params(id);
  EvalEntry e;
  // Bit-identical to ref_prep_time / ref_gpu_phase_time / ref_iter_time /
  // ref_gpu_utilization, with the batch-power products replayed from the
  // invariant table and the knee scan replaced by the closed form.
  const int usable = std::min(cores, p.prep_parallel_limit);
  const double t = p.prep_serial_s + inv.prep_work / usable;
  e.prep = t * std::max(1.0, contention.prep_inflation);
  e.gpu = inv.gpu_base * std::max(1.0, contention.gpu_inflation);
  const double body = p.pipelined ? std::max(e.prep, e.gpu) : e.prep + e.gpu;
  e.iter = body + p.overhead_s;
  const int knee = saturation_cores_fast(p, inv, contention, kKneeScanMax);
  const double decay =
      1.0 - kOverAllocDecayPerCore * std::max(0, cores - knee);
  e.util = std::clamp(e.gpu / e.iter * decay * p.util_ceiling, 0.0, 1.0);
  return evals.emplace(key, e).first->second;
}

// ------------------------------------------------------------- public API

double TrainPerf::prep_time(ModelId id, const TrainConfig& cfg, int cores,
                            const ContentionFactors& contention) const {
  return evaluate(id, cfg, cores, contention).prep;
}

double TrainPerf::gpu_phase_time(ModelId id, const TrainConfig& cfg,
                                 const ContentionFactors& contention) const {
  const Invariants& inv = invariants(id, cfg);
  return inv.gpu_base * std::max(1.0, contention.gpu_inflation);
}

double TrainPerf::iter_time(ModelId id, const TrainConfig& cfg, int cores,
                            const ContentionFactors& contention) const {
  return evaluate(id, cfg, cores, contention).iter;
}

double TrainPerf::gpu_utilization(ModelId id, const TrainConfig& cfg,
                                  int cores,
                                  const ContentionFactors& contention) const {
  return evaluate(id, cfg, cores, contention).util;
}

double TrainPerf::throughput(ModelId id, const TrainConfig& cfg, int cores,
                             const ContentionFactors& contention) const {
  return 1.0 / iter_time(id, cfg, cores, contention);
}

double TrainPerf::samples_per_second(
    ModelId id, const TrainConfig& cfg, int cores,
    const ContentionFactors& contention) const {
  const ModelParams& p = model_params(id);
  const int bs = cfg.batch_size > 0 ? cfg.batch_size : p.default_batch;
  // Every GPU consumes one batch per iteration (data parallelism).
  return throughput(id, cfg, cores, contention) * bs * cfg.total_gpus();
}

double TrainPerf::mem_bw_demand_gbps(ModelId id, const TrainConfig& cfg,
                                     int cores) const {
  // Per-GPU peak demand at the optimal allocation, scaled by batch size
  // (Fig. 6) and by the achieved iteration rate: a core-starved job issues
  // iterations more slowly and therefore moves less data per second.
  const Invariants& inv = invariants(id, cfg);
  if (inv.opt_cores < 0) {
    optimal_cores(id, cfg);  // fills opt_cores/iter_at_opt
  }
  const double rate_scale =
      inv.iter_at_opt / evaluate(id, cfg, cores, {}).iter;
  return inv.mem_per_gpu * cfg.gpus_per_node * std::min(1.0, rate_scale);
}

double TrainPerf::pcie_demand_gbps(ModelId id, const TrainConfig& cfg,
                                   int cores) const {
  const Invariants& inv = invariants(id, cfg);
  if (inv.opt_cores < 0) {
    optimal_cores(id, cfg);
  }
  const double rate_scale =
      inv.iter_at_opt / evaluate(id, cfg, cores, {}).iter;
  return inv.pcie_per_gpu * cfg.gpus_per_node * std::min(1.0, rate_scale);
}

double TrainPerf::llc_demand_mb(ModelId id, const TrainConfig& cfg) const {
  return model_params(id).llc_mb * cfg.gpus_per_node;
}

int TrainPerf::optimal_cores(ModelId id, const TrainConfig& cfg,
                             int max_cores, double tolerance) const {
  CODA_ASSERT(max_cores >= 1);
  constexpr int kDefaultMaxCores = 28;
  constexpr double kDefaultTolerance = 0.01;
  const bool default_args =
      max_cores == kDefaultMaxCores && tolerance == kDefaultTolerance;
  const Invariants& inv = invariants(id, cfg);
  if (default_args && inv.opt_cores >= 0) {
    return inv.opt_cores;
  }
  double best = 0.0;
  for (int c = 1; c <= max_cores; ++c) {
    best = std::max(best, evaluate(id, cfg, c, {}).util);
  }
  for (int c = 1; c <= max_cores; ++c) {
    if (evaluate(id, cfg, c, {}).util >= best * (1.0 - tolerance)) {
      if (default_args) {
        auto& mut = const_cast<Invariants&>(inv);
        mut.opt_cores = c;
        mut.iter_at_opt = evaluate(id, cfg, c, {}).iter;
      }
      return c;
    }
  }
  CODA_UNREACHABLE("optimal_cores: no core count reached best utilization");
}

}  // namespace coda::perfmodel
