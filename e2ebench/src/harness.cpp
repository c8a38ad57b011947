/**
 * @file
 * Shared benchmark pieces: statistics, tracer, inputs, references.
 */

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "data/registry.hpp"
#include "rbm/ais.hpp"
#include "util/rng.hpp"

namespace e2e {

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

CpuTimes
readCpuTimes()
{
    CpuTimes times;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    if (cpu != "cpu")
        return times;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(stat >> value))
            return CpuTimes{};
        times.total += value;
        if (field == 7)
            times.steal = value;
    }
    return times;
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    failures.push_back(what);
}

void
Outcome::e2e(std::string name, double value, std::string unit)
{
    endToEnd.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::layer(std::string name, double value, std::string unit)
{
    perLayer.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::count(std::string name, double value, std::string unit)
{
    counts.push_back({std::move(name), value, std::move(unit)});
}

std::int64_t
Tracer::begin(const char *name, std::uint64_t id, std::int64_t parent)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, id, parent, nowNs(), 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::end(std::int64_t index)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].endNs = nowNs();
}

std::int64_t
Tracer::add(const char *name, std::uint64_t id, std::int64_t parent,
            std::uint64_t startNs, std::uint64_t endNs)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, id, parent, startNs, endNs});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

double
Tracer::medianMs(std::string_view name) const
{
    std::vector<double> ms;
    for (const Span &span : spans_)
        if (span.endNs >= span.startNs && name == span.name)
            ms.push_back(static_cast<double>(span.endNs - span.startNs) /
                         1e6);
    return median(std::move(ms));
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,"
                     "\"parent\":%lld,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                     i, s.name, static_cast<unsigned long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs));
    }
    return std::fclose(f) == 0;
}

namespace {

ising::data::Dataset
rowSlice(const ising::data::Dataset &all, std::size_t begin,
         std::size_t count)
{
    ising::data::Dataset out;
    out.name = all.name;
    out.numClasses = all.numClasses;
    out.samples.reset(count, all.dim());
    std::memcpy(out.samples.data(), all.sample(begin),
                count * all.dim() * sizeof(float));
    out.labels.assign(all.labels.begin() + static_cast<long>(begin),
                      all.labels.begin() + static_cast<long>(begin + count));
    return out;
}

} // namespace

Inputs
makeInputs(std::uint64_t seed)
{
    const ising::data::Dataset all = ising::data::binarizeThreshold(
        ising::data::makeBenchmarkData("MNIST", kTrainRows + kHeldOutRows,
                                       seed));
    Inputs inputs;
    inputs.train = rowSlice(all, 0, kTrainRows);
    inputs.heldOut = rowSlice(all, kTrainRows, kHeldOutRows);
    return inputs;
}

ising::rbm::Rbm
initialModel(std::uint64_t seed, const ising::data::Dataset &train)
{
    ising::rbm::Rbm model(kVisible, kHidden);
    ising::util::Rng rng(mix64(seed ^ 0x696e6974ull));
    model.initRandom(rng);
    const std::vector<double> p = pixelFrequencies(train);
    for (std::size_t i = 0; i < kVisible; ++i)
        model.visibleBias()[i] = static_cast<float>(std::log(p[i] / (1.0 - p[i])));
    return model;
}

std::vector<double>
pixelFrequencies(const ising::data::Dataset &rows)
{
    std::vector<double> p(rows.dim(), 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::size_t i = 0; i < rows.dim(); ++i)
            p[i] += rows.sample(r)[i] > 0.5f ? 1.0 : 0.0;
    for (double &x : p)
        x = (x + 1.0) / (static_cast<double>(rows.size()) + 2.0);
    return p;
}

double
independentPixelLogProb(const ising::data::Dataset &train,
                        const ising::data::Dataset &heldOut)
{
    const std::size_t dim = train.dim();
    const std::vector<double> p = pixelFrequencies(train);
    std::vector<double> logOn(dim), logOff(dim);
    for (std::size_t i = 0; i < dim; ++i) {
        logOn[i] = std::log(p[i]);
        logOff[i] = std::log1p(-p[i]);
    }
    double total = 0.0;
    for (std::size_t r = 0; r < heldOut.size(); ++r)
        for (std::size_t i = 0; i < dim; ++i)
            total += heldOut.sample(r)[i] > 0.5f ? logOn[i] : logOff[i];
    return total / static_cast<double>(heldOut.size());
}

double
heldOutNll(const ising::rbm::Rbm &model, const Inputs &inputs)
{
    ising::rbm::AisConfig config;
    config.numChains = 64;
    config.numBetas = 200;
    ising::util::Rng rng(0x414953ull);  // fixed: the estimate is a pure
                                        // function of the model
    ising::rbm::AisEstimator ais(config, rng);
    return -ais.averageLogProb(model, inputs.train, inputs.heldOut);
}

void
checkQuality(Outcome &out, const std::string &workload, double nll,
             const Inputs &inputs)
{
    const double baseNll =
        -independentPixelLogProb(inputs.train, inputs.heldOut);
    out.check(std::isfinite(nll) && nll < baseNll,
              workload + ": held-out NLL " + std::to_string(nll) +
                  " nats does not beat the independent-pixel base rate " +
                  std::to_string(baseNll));
    out.count("base_rate_nll_nats", baseNll, "nats");
}

bool
sameParameters(const ising::rbm::Rbm &a, const ising::rbm::Rbm &b)
{
    const auto same = [](const float *x, const float *y, std::size_t n) {
        return std::memcmp(x, y, n * sizeof(float)) == 0;
    };
    return a.numVisible() == b.numVisible() &&
           a.numHidden() == b.numHidden() &&
           same(a.weights().data(), b.weights().data(),
                a.weights().size()) &&
           same(a.visibleBias().data(), b.visibleBias().data(),
                a.visibleBias().size()) &&
           same(a.hiddenBias().data(), b.hiddenBias().data(),
                a.hiddenBias().size());
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace e2e
