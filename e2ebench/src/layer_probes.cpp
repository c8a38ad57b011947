/**
 * @file
 * The per-layer probes of a traced run.
 *
 * Every workload's traced run ends with the same probes, after its
 * timed window and its output checks, on its own final model and
 * inputs, so each result line carries the same per-layer metrics
 * whichever workload ran.  A probe times one public library call at
 * the benchmark's shape in spans and reports the median: the layers a
 * workload does not drive in its timed window are measured all the
 * same, and a per-layer figure never reads 0 because a workload
 * skipped its layer.
 */

#include <cstring>
#include <filesystem>
#include <future>
#include <numeric>
#include <stdexcept>

#include "engine/registry.hpp"
#include "engine/server.hpp"
#include "ising/analog.hpp"
#include "linalg/bits.hpp"
#include "net/frame.hpp"
#include "rbm/cd_trainer.hpp"
#include "rbm/sampling_backend.hpp"
#include "rbm/serialize.hpp"
#include "training.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace ising;

namespace {

constexpr std::uint64_t kReps = 300;
constexpr int kArchiveReps = 3;
/** Rows per batch of the serving kernel probe. */
constexpr std::size_t kKernelRows = 64;
/** Requests as the serve-* workloads send them: 4 packed rows. */
constexpr std::size_t kRequestRows = 4;
/** In-process engine probe: groups of requests, one flush each. */
constexpr std::size_t kGroup = 256;
constexpr std::size_t kGroups = 50;
constexpr std::size_t kCacheBytes = 512u << 10;
const char *const kProbeModel = "probe";

/** rbm, linalg and exec: CD minibatches, a half-sweep, the pool. */
void
probeCd(const RunConfig &config, Tracer &tracer, Outcome &out,
        const Inputs &inputs, const rbm::Rbm &model, exec::ThreadPool &single)
{
    // rbm: CdTrainer::trainBatch over one epoch's minibatches.
    {
        rbm::Rbm trained = model;
        rbm::CdConfig cd;
        cd.learningRate = kLearningRate;
        cd.batchSize = kBatch;
        cd.weightDecay = train::defaultWeightDecay(rbm::ModelFamily::Rbm);
        rbm::CdTrainer trainer(trained, cd);
        util::Rng rng = train::Session::epochRng(config.seed, 0);
        std::vector<std::size_t> order(inputs.train.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order.data(), order.size());
        for (std::size_t b = 0; b + kBatch <= order.size(); b += kBatch) {
            const std::vector<std::size_t> batch(
                order.begin() + static_cast<long>(b),
                order.begin() + static_cast<long>(b + kBatch));
            ScopedSpan span(tracer, "rbm.CdTrainer::trainBatch", b / kBatch);
            trainer.trainBatch(inputs.train, batch, rng);
        }
        out.layer("rbm.cd_batch_ms",
                  tracer.medianMs("rbm.CdTrainer::trainBatch"), "ms");
    }

    // linalg: one batched half-sweep at 50x784 -> 200.
    {
        rbm::SoftwareGibbsBackend backend(model);
        linalg::Matrix v(kBatch, kVisible), h, ph;
        std::memcpy(v.data(), inputs.train.sample(0),
                    kBatch * kVisible * sizeof(float));
        std::vector<util::Rng> rngs;
        for (std::size_t r = 0; r < kBatch; ++r)
            rngs.push_back(util::Rng::stream(config.seed, r));
        for (std::uint64_t rep = 0; rep < kReps; ++rep) {
            ScopedSpan span(tracer, "linalg.sampleHiddenBatch", rep);
            backend.sampleHiddenBatch(v, h, ph, rngs.data());
        }
        out.layer("linalg.half_sweep_us",
                  tracer.medianMs("linalg.sampleHiddenBatch") * 1e3, "us");
    }

    // exec: one epoch on a 1-worker pool over the default pool.
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
        for (exec::ThreadPool *pool : {&single, &exec::globalPool()}) {
            train::Session session(
                train::makeRbmStrategy(model, inputs.train,
                                       cdOptions(config.seed, pool)),
                cdSession(config.seed, 1, ""));
            ScopedSpan span(tracer,
                            pool == &single ? "exec.epoch.1-worker"
                                            : "exec.epoch.default-pool",
                            rep);
            session.run();
        }
    }
    out.layer("exec.epoch_speedup",
              tracer.medianMs("exec.epoch.1-worker") /
                  tracer.medianMs("exec.epoch.default-pool"),
              "x");
    out.count("pool_workers",
              static_cast<double>(exec::globalPool().numWorkers()));
}

/** accel and ising: BGF samples, the fabric's anneal and pump. */
void
probeBgf(const RunConfig &config, Tracer &tracer, Outcome &out,
         const Inputs &inputs, const rbm::Rbm &model)
{
    const accel::BgfConfig bgf = bgfConfig(config.seed);
    util::Rng fabrication(bgfFabricationSeed(config.seed));
    accel::BoltzmannGradientFollower machine(kVisible, kHidden, bgf,
                                             fabrication);
    machine.initialize(model);
    util::Rng rng = train::Session::epochRng(config.seed, 0);
    for (std::uint64_t i = 0; i < kReps; ++i) {
        ScopedSpan span(tracer, "accel.trainSample", i);
        machine.trainSample(inputs.train.sample(i), rng);
    }
    out.layer("accel.bgf_sample_us",
              tracer.medianMs("accel.trainSample") * 1e3, "us");

    util::Rng fabRng(bgfFabricationSeed(config.seed));
    machine::AnalogConfig analog = bgf.analog;
    analog.pumpStep = bgf.learningRate;
    machine::AnalogFabric fabric(kVisible, kHidden, analog, fabRng);
    fabric.program(model);
    linalg::Vector v, h;
    fabric.clampVisible(inputs.train.sample(0), v);
    fabric.sampleHidden(v, h, rng);
    for (std::uint64_t i = 0; i < kReps; ++i) {
        ScopedSpan span(tracer, "ising.AnalogFabric::anneal", i);
        fabric.anneal(kAnneal, v, h, rng);
    }
    for (std::uint64_t i = 0; i < kReps; ++i) {
        ScopedSpan span(tracer, "ising.AnalogFabric::pumpUpdate", i);
        fabric.pumpUpdate(v, h, (i & 1) ? -1 : +1, rng);
    }
    out.layer("ising.anneal_us",
              tracer.medianMs("ising.AnalogFabric::anneal") * 1e3, "us");
    out.layer("ising.pump_us",
              tracer.medianMs("ising.AnalogFabric::pumpUpdate") * 1e3, "us");
}

/**
 * rbm: save and reload the model as a served archive; the archive is
 * left at @p path for the serving probes.
 */
void
probeArchive(const RunConfig &config, Tracer &tracer, Outcome &out,
             const rbm::Rbm &model, const std::string &path)
{
    rbm::Checkpoint ckpt;
    ckpt.meta.name = kProbeModel;
    ckpt.meta.backend = "cd";
    ckpt.meta.seed = config.seed;
    ckpt.model = model;
    for (int rep = 0; rep < kArchiveReps; ++rep) {
        {
            ScopedSpan span(tracer, "rbm.saveCheckpoint",
                            static_cast<std::uint64_t>(rep));
            rbm::saveCheckpoint(ckpt, path);
        }
        ScopedSpan span(tracer, "rbm.loadCheckpointFile",
                        static_cast<std::uint64_t>(rep));
        rbm::loadCheckpointFile(path);
    }
    out.layer("rbm.save_ms", tracer.medianMs("rbm.saveCheckpoint"), "ms");
    out.layer("rbm.load_ms", tracer.medianMs("rbm.loadCheckpointFile"), "ms");
    out.layer("rbm.archive_mb",
              static_cast<double>(std::filesystem::file_size(path)) /
                  (1024.0 * 1024.0),
              "MB");
}

/** linalg, engine and net: the serving kernels, server and codec. */
void
probeServing(const RunConfig &config, Tracer &tracer, Outcome &out,
             const Inputs &inputs, const std::string &registryDir,
             exec::ThreadPool &single)
{
    linalg::BitMatrix heldOut(inputs.heldOut.size(), kVisible);
    for (std::size_t r = 0; r < inputs.heldOut.size(); ++r)
        heldOut.packRowFrom(r, inputs.heldOut.sample(r));

    engine::ModelRegistry registry(registryDir, &single);
    const auto got = registry.tryGet(kProbeModel);
    if (!got.ok())
        throw std::runtime_error("probe: registry load failed: " +
                                 got.status().message());
    const std::shared_ptr<const engine::Model> model = got.value();

    // linalg: the packed featurize and reconstruct kernels.
    {
        linalg::BitMatrix in(kKernelRows, kVisible);
        for (std::size_t r = 0; r < kKernelRows; ++r)
            in.copyRowFrom(r, heldOut, r);
        std::vector<util::Rng> rngs;
        for (std::size_t r = 0; r < kKernelRows; ++r)
            rngs.push_back(util::Rng::stream(config.seed, r));
        engine::BatchScratch scratch;
        linalg::Matrix result;
        for (std::uint64_t rep = 0; rep < kReps; ++rep) {
            {
                ScopedSpan span(tracer, "engine.Model::featurizeRowsPacked",
                                rep);
                model->featurizeRowsPacked(in, result, scratch);
            }
            ScopedSpan span(tracer, "engine.Model::reconstructRowsPacked",
                            rep);
            model->reconstructRowsPacked(in, rngs.data(), result, scratch);
        }
        out.layer("linalg.serve_kernel_us_per_row",
                  (tracer.medianMs("engine.Model::featurizeRowsPacked") +
                   tracer.medianMs("engine.Model::reconstructRowsPacked")) /
                      2.0 * 1e3 / static_cast<double>(kKernelRows),
                  "us");
    }

    // engine: submit + flush of unique 4-row requests, featurize and
    // reconstruct alternating, as serve-miss sends them.
    std::vector<engine::Request> requests;
    util::Rng draw(mix64(config.seed ^ 0x70726f6265ull));
    for (std::size_t q = 0; q < kGroups * kGroup; ++q) {
        engine::Request req;
        req.model = kProbeModel;
        req.op = q % 2 == 0 ? engine::Op::Featurize : engine::Op::Reconstruct;
        req.seed = mix64(config.seed + q);
        req.packed = true;
        req.packedInput.reset(kRequestRows, kVisible);
        for (std::size_t r = 0; r < kRequestRows; ++r)
            req.packedInput.copyRowFrom(r, heldOut,
                                        draw.uniformInt(heldOut.rows()));
        requests.push_back(std::move(req));
    }
    std::vector<net::Request> frames(2);  // a featurize and a reconstruct
    for (std::size_t k = 0; k < frames.size(); ++k) {
        const engine::Request &req = requests[k];
        net::Request &frame = frames[k];
        frame.model = kProbeModel;
        frame.op = req.op;
        frame.seed = req.seed;
        frame.payload = net::PayloadKind::Packed;
        frame.rows = kRequestRows;
        frame.cols = kVisible;
        const std::size_t wpr = heldOut.wordsPerRow();
        frame.words.resize(kRequestRows * wpr);
        for (std::size_t r = 0; r < kRequestRows; ++r)
            std::memcpy(&frame.words[r * wpr], req.packedInput.row(r),
                        wpr * sizeof(std::uint64_t));
    }
    std::vector<net::Response> replies(frames.size());
    {
        engine::ServerConfig serverConfig;
        serverConfig.cacheBytes = kCacheBytes;
        engine::Server server(registry, serverConfig);
        std::vector<std::future<engine::Response>> futures;
        for (std::size_t g = 0; g < kGroups; ++g) {
            futures.clear();
            ScopedSpan span(tracer, "engine.Server::submit+flush", g);
            for (std::size_t q = 0; q < kGroup; ++q)
                futures.push_back(
                    server.submit(std::move(requests[g * kGroup + q])));
            server.flush();
            for (std::size_t q = 0; q < kGroup; ++q) {
                const engine::Response res = futures[q].get();
                if (!res.status.ok())
                    throw std::runtime_error("probe: engine request failed: " +
                                             res.status.message());
                if (g == 0 && q < replies.size()) {
                    net::Response &reply = replies[q];
                    reply.rows = static_cast<std::uint32_t>(res.output.rows());
                    reply.cols = static_cast<std::uint32_t>(res.output.cols());
                    reply.floats.assign(res.output.data(),
                                        res.output.data() +
                                            res.output.size());
                }
            }
        }
        out.layer("engine.us_per_request",
                  tracer.medianMs("engine.Server::submit+flush") * 1e3 /
                      static_cast<double>(kGroup),
                  "us");
    }
    for (std::uint64_t i = 0; i < 2000; ++i) {
        ScopedSpan span(tracer, "engine.ModelRegistry::tryGet", i);
        if (!registry.tryGet(kProbeModel).ok())
            throw std::runtime_error("probe: registry lookup failed");
    }
    out.layer("engine.registry_get_us",
              tracer.medianMs("engine.ModelRegistry::tryGet") * 1e3, "us");

    // net: the four codec calls of one request and its reply.
    net::Request decodedReq;
    net::Response decodedRes;
    std::string reqBytes, resBytes;
    for (std::uint64_t q = 0; q < 2000; ++q) {
        net::Request &frame = frames[q % frames.size()];
        net::Response &reply = replies[q % frames.size()];
        frame.id = reply.id = static_cast<std::uint32_t>(q);
        ScopedSpan span(tracer, "net.codec", q);
        reqBytes.clear();
        net::encodeRequest(frame, reqBytes);
        net::decodeRequest(reqBytes.data() + 4, reqBytes.size() - 4,
                           decodedReq);
        resBytes.clear();
        net::encodeResponse(reply, resBytes);
        net::decodeResponse(resBytes.data() + 4, resBytes.size() - 4,
                            decodedRes);
    }
    out.layer("net.codec_us", tracer.medianMs("net.codec") * 1e3, "us");
}

} // namespace

void
probeLayers(const RunConfig &config, Tracer &tracer, Outcome &out,
            const Inputs &inputs, const rbm::Rbm &model)
{
    const std::int64_t root = tracer.begin("probe", 0);
    exec::ThreadPool single(1);
    probeCd(config, tracer, out, inputs, model, single);
    probeBgf(config, tracer, out, inputs, model);
    const std::string registryDir = config.workDir + "/probe";
    std::filesystem::create_directories(registryDir);
    probeArchive(config, tracer, out, model,
                 registryDir + "/" + kProbeModel + ".ckpt");
    probeServing(config, tracer, out, inputs, registryDir, single);
    tracer.end(root);
}

} // namespace e2e
