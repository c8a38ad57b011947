/**
 * @file
 * e2ebench: run one benchmark workload and print its metrics.
 *
 *   e2ebench --workload train-cd|train-bgf|serve-miss|serve-hot
 *            --seed N --seconds S --trace 0|1 --work-dir DIR
 *            [--trace-dir DIR]
 *
 * With --trace 0 the result line carries the end-to-end metrics; with
 * --trace 1 the run records spans around the library calls of its
 * window, then runs the layer probes (layer_probes.cpp), and the result
 * line carries the per-layer metrics (the end-to-end figures of the
 * traced run are printed above it, so the tracing overhead can be read
 * off against an untraced run).  The last line of
 * standard output is always one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * The exit code is 0 only when every output check passed.
 */

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload "
                 "train-cd|train-bgf|serve-miss|serve-hot --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-dir DIR]\n");
    std::exit(2);
}

/** JSON string body (names and units are plain ASCII identifiers). */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
metricsJson(const std::vector<e2e::Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", " : "") + quoted(metrics[i].name) +
               ": {\"value\": " + value +
               ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    return out + "}";
}

void
printTable(const char *title, const std::vector<e2e::Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const e2e::Metric &m : metrics)
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::RunConfig config;
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            config.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            config.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            config.trace = value == "1";
        } else if (flag == "--work-dir") {
            config.workDir = value;
        } else if (flag == "--trace-dir") {
            config.traceDir = value;
        } else {
            usage();
        }
    }
    if (argc % 2 == 0 || !haveWorkload || config.workDir.empty() ||
        !(config.seconds > 0))
        usage();
    config.cpus = e2e::cpuCount();
    config.workDir += "/" + config.workload + "-" +
                      std::to_string(::getpid());
    std::filesystem::create_directories(config.workDir);

    e2e::Tracer tracer(config.trace);
    e2e::Outcome outcome;
    const e2e::CpuTimes cpuBefore = e2e::readCpuTimes();
    try {
        if (config.workload == "train-cd")
            outcome = e2e::runTrainCd(config, tracer);
        else if (config.workload == "train-bgf")
            outcome = e2e::runTrainBgf(config, tracer);
        else if (config.workload == "serve-miss")
            outcome = e2e::runServe(config, tracer, false);
        else if (config.workload == "serve-hot")
            outcome = e2e::runServe(config, tracer, true);
        else
            usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s: %s\n", config.workload.c_str(),
                     e.what());
        std::filesystem::remove_all(config.workDir);
        return 1;
    }
    std::filesystem::remove_all(config.workDir);
    // How much of the machine the hypervisor gave away during the run:
    // a run taken in a noisy episode shows it here.
    const e2e::CpuTimes cpuAfter = e2e::readCpuTimes();
    if (cpuAfter.total > cpuBefore.total)
        outcome.count("host_steal_pct",
                      100.0 * static_cast<double>(cpuAfter.steal -
                                                  cpuBefore.steal) /
                          static_cast<double>(cpuAfter.total -
                                              cpuBefore.total),
                      "%");
    if (outcome.attempted == 0)
        outcome.check(false, "no operation was attempted");

    std::printf("workload %s seed %" PRIu64 " seconds %g trace %d cpus %u\n",
                config.workload.c_str(), config.seed, config.seconds,
                config.trace ? 1 : 0, config.cpus);
    printTable(config.trace ? "end-to-end (traced run; reference only)"
                            : "end-to-end",
               outcome.endToEnd);
    if (config.trace) {
        printTable("per-layer", outcome.perLayer);
        const std::string traceFile =
            config.traceDir.empty()
                ? std::string()
                : config.traceDir + "/" + config.workload + "-seed" +
                      std::to_string(config.seed) + ".jsonl";
        if (!traceFile.empty()) {
            std::filesystem::create_directories(config.traceDir);
            outcome.check(tracer.write(traceFile),
                          "could not write the span file " + traceFile);
            std::printf("spans: %s\n", traceFile.c_str());
        }
    }
    printTable("counts", outcome.counts);
    for (const std::string &failure : outcome.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                outcome.correct ? "true" : "false", outcome.attempted,
                outcome.failed,
                metricsJson(config.trace ? outcome.perLayer
                                         : outcome.endToEnd)
                    .c_str());
    return outcome.correct ? 0 : 1;
}
