#include "cluster/node.h"

#include <algorithm>

#include "cluster/placement_index.h"
#include "util/strings.h"

namespace coda::cluster {

void Node::publish_free() {
  if (index_ != nullptr) {
    index_->node_changed(id_, free_gpus(), free_cpus());
  }
}

namespace {

// The first allocation whose job is not below `job`.
template <typename Allocations>
auto first_not_below(Allocations& allocations, JobId job) {
  return std::lower_bound(
      allocations.begin(), allocations.end(), job,
      [](const Allocation& a, JobId id) { return a.job < id; });
}

}  // namespace

std::vector<Allocation>::const_iterator Node::find(JobId job) const {
  const auto it = first_not_below(allocations_, job);
  return it != allocations_.end() && it->job == job ? it
                                                    : allocations_.end();
}

void Node::set_failed(bool failed) {
  failed_ = failed;
  publish_free();
}

util::Status Node::allocate(JobId job, int cpus, int gpus) {
  if (cpus < 0 || gpus < 0 || (cpus == 0 && gpus == 0)) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "allocation must request a positive amount"};
  }
  if (failed_) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       util::strfmt("node %u has failed", id_)};
  }
  const auto at = first_not_below(allocations_, job);
  if (at != allocations_.end() && at->job == job) {
    return util::Error{
        util::ErrorCode::kFailedPrecondition,
        util::strfmt("job %llu already allocated on node %u",
                     static_cast<unsigned long long>(job), id_)};
  }
  if (!can_fit(cpus, gpus)) {
    return util::Error{
        util::ErrorCode::kResourceExhausted,
        util::strfmt("node %u cannot fit %d cpus / %d gpus (free %d/%d)", id_,
                     cpus, gpus, free_cpus(), free_gpus())};
  }
  allocations_.insert(at, Allocation{job, cpus, gpus});
  used_ += ResourceVector{cpus, gpus};
  if (used_totals_ != nullptr) {
    *used_totals_ += ResourceVector{cpus, gpus};
  }
  publish_free();
  return util::Status::Ok();
}

util::Status Node::resize_cpus(JobId job, int new_cpus) {
  const auto it = first_not_below(allocations_, job);
  if (it == allocations_.end() || it->job != job) {
    return util::Error{util::ErrorCode::kNotFound,
                       util::strfmt("job %llu not on node %u",
                                    static_cast<unsigned long long>(job),
                                    id_)};
  }
  if (new_cpus < 0) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "cpu count must be non-negative"};
  }
  const int delta = new_cpus - it->cpus;
  if (delta > free_cpus()) {
    return util::Error{
        util::ErrorCode::kResourceExhausted,
        util::strfmt("node %u cannot grow job by %d cpus (free %d)", id_,
                     delta, free_cpus())};
  }
  it->cpus = new_cpus;
  used_.cpus += delta;
  if (used_totals_ != nullptr) {
    used_totals_->cpus += delta;
  }
  publish_free();
  return util::Status::Ok();
}

util::Status Node::release(JobId job) {
  const auto it = first_not_below(allocations_, job);
  if (it == allocations_.end() || it->job != job) {
    return util::Error{util::ErrorCode::kNotFound,
                       util::strfmt("job %llu not on node %u",
                                    static_cast<unsigned long long>(job),
                                    id_)};
  }
  used_ -= ResourceVector{it->cpus, it->gpus};
  CODA_ASSERT(used_.non_negative());
  if (used_totals_ != nullptr) {
    *used_totals_ -= ResourceVector{it->cpus, it->gpus};
  }
  allocations_.erase(it);
  publish_free();
  return util::Status::Ok();
}

util::Result<Allocation> Node::allocation_of(JobId job) const {
  const auto it = find(job);
  if (it == allocations_.end()) {
    return util::Error{util::ErrorCode::kNotFound,
                       util::strfmt("job %llu not on node %u",
                                    static_cast<unsigned long long>(job),
                                    id_)};
  }
  return *it;
}

std::vector<JobId> Node::gpu_jobs() const {
  std::vector<JobId> out;
  for (const Allocation& alloc : allocations_) {
    if (alloc.gpus > 0) {
      out.push_back(alloc.job);
    }
  }
  return out;
}

std::vector<JobId> Node::cpu_only_jobs() const {
  std::vector<JobId> out;
  for (const Allocation& alloc : allocations_) {
    if (alloc.gpus == 0) {
      out.push_back(alloc.job);
    }
  }
  return out;
}

}  // namespace coda::cluster
