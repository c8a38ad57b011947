/**
 * @file
 * The four benchmark workloads.  Each runs set-up (several times,
 * reporting the median), then whole rounds of the same operations
 * for the configured number of seconds, then the output checks, and
 * fills an Outcome with the end-to-end metrics every workload reports
 * (setup_s, rows_per_s, nll_nats, peak_rss_mb).  A traced run then
 * calls probeLayers on its final model for the per-layer metrics.
 */

#ifndef E2EBENCH_WORKLOADS_HPP
#define E2EBENCH_WORKLOADS_HPP

#include "harness.hpp"

namespace e2e {

/** CD-1 through train::Session with a checkpoint published per epoch. */
Outcome runTrainCd(const RunConfig &config, Tracer &tracer);

/** The BGF machine, epoch by epoch, priced by hw::bgfActivityCost. */
Outcome runTrainBgf(const RunConfig &config, Tracer &tracer);

/**
 * An in-process net::NetServer over a CD-trained model: unique
 * requests (@p hot false) or 99% repeats of a 16-request warm set.
 */
Outcome runServe(const RunConfig &config, Tracer &tracer, bool hot);

/**
 * The per-layer probes (traced runs only): one public call of each
 * layer at the benchmark's shape, timed in spans, on @p model.
 */
void probeLayers(const RunConfig &config, Tracer &tracer, Outcome &out,
                 const Inputs &inputs, const ising::rbm::Rbm &model);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HPP
