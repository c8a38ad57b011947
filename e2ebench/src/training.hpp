/**
 * @file
 * The training set-up the train-* workloads and the layer probes share:
 * CD-1 through train::Session, and the BGF machine's configuration.
 */

#ifndef E2EBENCH_TRAINING_HPP
#define E2EBENCH_TRAINING_HPP

#include <cstdint>
#include <string>

#include "accel/bgf.hpp"
#include "exec/thread_pool.hpp"
#include "train/session.hpp"
#include "train/strategies.hpp"

#include "harness.hpp"

namespace e2e {

constexpr double kLearningRate = 0.1;
constexpr std::size_t kBatch = 50;
constexpr int kAnneal = 5;
constexpr std::size_t kParticles = 8;

inline ising::train::TrainOptions
cdOptions(std::uint64_t seed, ising::exec::ThreadPool *pool)
{
    ising::train::TrainOptions options;
    options.trainer = ising::train::Trainer::CdK;
    options.batchSize = kBatch;
    options.seed = seed;
    options.pool = pool;
    return options;
}

inline ising::train::SessionConfig
cdSession(std::uint64_t seed, int epochs, const std::string &path)
{
    using namespace ising;
    train::SessionConfig config;
    config.schedule.epochs = epochs;
    config.schedule.learningRate = train::Ramp(kLearningRate);
    config.schedule.weightDecay = train::Ramp(
        train::defaultWeightDecay(rbm::ModelFamily::Rbm));
    config.schedule.kStart = config.schedule.kEnd = 1;
    config.seed = seed;
    config.name = "e2e-cd";
    config.backendTag = "cd";
    config.checkpointPath = path;
    config.checkpointEvery = path.empty() ? 0 : 1;
    return config;
}

/** The paper's BGF scaling: pump step = software alpha / batch size. */
inline ising::accel::BgfConfig
bgfConfig(std::uint64_t seed)
{
    ising::accel::BgfConfig config;
    config.learningRate = kLearningRate / static_cast<double>(kBatch);
    config.annealSteps = kAnneal;
    config.numParticles = kParticles;
    config.analog.variationSeed = seed * 7919 + 13;
    return config;
}

/** Seed of the BGF machine's fabrication draw for a run seed. */
inline std::uint64_t
bgfFabricationSeed(std::uint64_t seed)
{
    return mix64(seed ^ 0x666162ull);
}

} // namespace e2e

#endif // E2EBENCH_TRAINING_HPP
