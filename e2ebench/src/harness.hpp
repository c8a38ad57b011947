/**
 * @file
 * Shared pieces of the end-to-end benchmark: run configuration, the
 * per-run outcome (checks, counts, metrics), the in-memory span
 * tracer, the seeded inputs and the independent reference math the
 * output checks compare against.
 *
 * Everything here lives outside the library: the benchmark calls the
 * library's public entry points and times them from the outside, so a
 * change to the program can never change how it is measured.
 */

#ifndef E2EBENCH_HARNESS_HPP
#define E2EBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "rbm/rbm.hpp"

namespace e2e {

/** Monotonic nanoseconds (steady clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median of @p values (mean of the middle pair for even counts). */
double median(std::vector<double> values);

/** Linear-interpolated quantile q in [0, 1] of @p values. */
double quantile(std::vector<double> values, double q);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** CPUs this process may run on (the affinity mask: what nproc says). */
unsigned cpuCount();

/**
 * Machine-wide CPU time counters from /proc/stat (jiffies): total and
 * the part the hypervisor gave to other guests (steal).  Zero when
 * the file cannot be read.
 */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuTimes readCpuTimes();

/** One command-line invocation of a workload. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< timed window length
    bool trace = false;     ///< per-layer (traced) run
    std::string workDir;    ///< scratch directory for archives
    std::string traceDir;   ///< where the span file is written
    unsigned cpus = 1;      ///< CPUs the process may use (reported)
};

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Per-run counts and context for the log (requests sent, ok, shed,
     *  epochs, generator lateness, ...); not part of the result line. */
    std::vector<Metric> counts;
    std::vector<std::string> failures;

    /** Record an output check; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);
    void e2e(std::string name, double value, std::string unit);
    void layer(std::string name, double value, std::string unit);
    void count(std::string name, double value, std::string unit = "count");
};

/**
 * In-memory span recorder.  A span carries a name, start, end, the
 * index of its parent span (-1 for a root) and an id shared by every
 * span of one epoch or one request.  Disabled tracers record nothing
 * and read no clock, so the untraced run pays nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::uint64_t id = 0;
        std::int64_t parent = -1;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    std::int64_t begin(const char *name, std::uint64_t id,
                       std::int64_t parent = -1);
    /** Close span @p index (no-op for -1). */
    void end(std::int64_t index);
    /** Record a span whose times were taken elsewhere. */
    std::int64_t add(const char *name, std::uint64_t id,
                     std::int64_t parent, std::uint64_t startNs,
                     std::uint64_t endNs);

    /** Median duration (ms) of the spans named @p name (0 when none). */
    double medianMs(std::string_view name) const;

    /** Write all spans as JSON lines; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span over one scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t id = 0,
               std::int64_t parent = -1)
        : tracer_(tracer), index_(tracer.begin(name, id, parent))
    {
    }
    ~ScopedSpan() { tracer_.end(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

/** Table 1 MNIST row: 784 visible, 200 hidden. */
constexpr std::size_t kVisible = 784;
constexpr std::size_t kHidden = 200;
constexpr std::size_t kTrainRows = 1500;
constexpr std::size_t kHeldOutRows = 500;

/** The seeded inputs every workload draws from. */
struct Inputs
{
    ising::data::Dataset train;    ///< 1500 binarized synthetic MNIST rows
    ising::data::Dataset heldOut;  ///< 500 more rows from the same draw
};

/**
 * Generate the inputs for @p seed through the library's Table 1
 * dataset generator (binarized at 0.5): the first 1500 rows train, the
 * remaining 500 are held out.
 */
Inputs makeInputs(std::uint64_t seed);

/**
 * A fresh 784x200 model: small random weights drawn from @p seed, zero
 * hidden biases, and visible biases at the logits of the training
 * rows' pixel frequencies (the usual RBM initialisation: the model
 * starts at the independent-pixel base rate and training has to
 * improve on it).
 */
ising::rbm::Rbm initialModel(std::uint64_t seed,
                             const ising::data::Dataset &train);

/** Laplace-smoothed on-frequency of every pixel over @p rows. */
std::vector<double> pixelFrequencies(const ising::data::Dataset &rows);

/**
 * Held-out average log-likelihood (nats) of the independent-pixel
 * model fitted to the training rows' pixel frequencies: the base rate
 * any trained RBM must beat.  Computed here, apart from the library.
 */
double independentPixelLogProb(const ising::data::Dataset &train,
                               const ising::data::Dataset &heldOut);

/**
 * Held-out negative average log-likelihood (nats) of @p model from
 * the library's AIS estimator: 64 chains x 200 temperatures, base rate
 * from the training rows, fixed estimator seed.
 */
double heldOutNll(const ising::rbm::Rbm &model, const Inputs &inputs);

/**
 * Output check shared by every workload: the held-out NLL @p nll of
 * the workload's final model is finite and beats the independent-pixel
 * base rate (which is logged as a count).
 */
void checkQuality(Outcome &out, const std::string &workload, double nll,
                  const Inputs &inputs);

/** True when the two models hold bit-identical parameters. */
bool sameParameters(const ising::rbm::Rbm &a, const ising::rbm::Rbm &b);

/** splitmix64 finalizer (seed derivation). */
std::uint64_t mix64(std::uint64_t x);

} // namespace e2e

#endif // E2EBENCH_HARNESS_HPP
