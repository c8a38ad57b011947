/**
 * @file
 * Live-canary gate tests: the seeded traffic splitter is a pure
 * function of the request seed; shadow execution never moves a
 * client-visible byte; the shadow runs the picked members as one
 * coalesced, packed batch and scores each of them; the latency verdict
 * judges a window's median, never one sample; a clean candidate
 * auto-promotes through the atomic-swap path after its clean streak; a
 * divergent candidate is quarantined with capped backoff while the
 * incumbent (and its archive) keep serving untouched; and per-request
 * deadlines resolve
 * DEADLINE_EXCEEDED before any kernel work, at admission and at
 * flush, without perturbing the requests they were coalesced with.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/promote.hpp"
#include "engine/server.hpp"
#include "rbm/serialize.hpp"
#include "util/fault.hpp"

using namespace ising;
using engine::ModelRegistry;
using engine::Op;
using engine::Request;
using engine::Response;
using engine::Server;
using engine::ServerConfig;
using engine::StatusCode;
using rbm::Checkpoint;

namespace {

namespace fs = std::filesystem;

/** Input-copying RBM (diagonal latch): near-zero reconstruction
 *  error, so it is distinguishable from a model that ignores input. */
rbm::Rbm
copyRbm(std::size_t dim, float w = 16.0f)
{
    rbm::Rbm model(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
        model.weights()(i, i) = w;
        model.visibleBias()[i] = -w / 2;
        model.hiddenBias()[i] = -w / 2;
    }
    return model;
}

/** Zero-weight model: reconstructs 0.5 regardless of input. */
rbm::Rbm
blankRbm(std::size_t dim)
{
    return rbm::Rbm(dim, dim);
}

Checkpoint
makeCkpt(rbm::Rbm model, int epoch)
{
    Checkpoint ckpt;
    ckpt.meta.name = "canary";
    ckpt.meta.backend = "cd";
    ckpt.meta.seed = 5;
    ckpt.meta.epoch = epoch;
    ckpt.model = std::move(model);
    return ckpt;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

class CanaryGateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::FaultInjector::instance().reset();
        dir_ = (fs::temp_directory_path() /
                ("isingrbm_test_canary_" + std::to_string(::getpid()) +
                 "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        util::FaultInjector::instance().reset();
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &file) const
    {
        return (fs::path(dir_) / file).string();
    }

    /** The fixed live corpus: reconstruction requests with distinct
     *  seeds (distinct seeds = distinct splitter draws). */
    std::vector<Request>
    corpus(std::size_t n, std::size_t dim) const
    {
        std::vector<Request> out;
        for (std::size_t q = 0; q < n; ++q) {
            Request req;
            req.model = "m";
            req.op = Op::Reconstruct;
            req.seed = 1000 + q;
            req.input = engine::canaryProbe(2, dim, req.seed);
            out.push_back(std::move(req));
        }
        return out;
    }

    /** The corpus as wire-packed requests (the net front end's form:
     *  no float plane at all). */
    std::vector<Request>
    packedCorpus(std::size_t n, std::size_t rows, std::size_t dim) const
    {
        std::vector<Request> out;
        for (std::size_t q = 0; q < n; ++q) {
            Request req;
            req.model = "m";
            req.op = Op::Reconstruct;
            req.seed = 2000 + q;
            const linalg::Matrix rowsIn =
                engine::canaryProbe(rows, dim, req.seed);
            req.packed = true;
            req.packedInput.reset(rows, dim);
            for (std::size_t r = 0; r < rows; ++r)
                req.packedInput.packRowFrom(r, rowsIn.row(r));
            out.push_back(std::move(req));
        }
        return out;
    }

    std::string dir_;
};

bool
sameBytes(const linalg::Matrix &a, const linalg::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

} // namespace

// ------------------------------------------------- traffic splitter

TEST(CanarySplitter, IsAPureFunctionOfTheSeed)
{
    // Edges: 0 never shadows, 1 always does, out-of-range clamps.
    for (const std::uint64_t seed : {0ull, 1ull, 77ull, ~0ull}) {
        EXPECT_FALSE(engine::canaryShadowSelected(seed, 0.0));
        EXPECT_FALSE(engine::canaryShadowSelected(seed, -0.5));
        EXPECT_TRUE(engine::canaryShadowSelected(seed, 1.0));
        EXPECT_TRUE(engine::canaryShadowSelected(seed, 2.0));
    }
    // Deterministic: the same (seed, fraction) always answers the
    // same -- the property that makes the shadow set independent of
    // arrival interleaving, coalescing shape and worker count.
    for (std::uint64_t seed = 0; seed < 256; ++seed)
        EXPECT_EQ(engine::canaryShadowSelected(seed, 0.3),
                  engine::canaryShadowSelected(seed, 0.3));
    // Monotone in the fraction: a request shadowed at f stays
    // shadowed at every f' > f (raising the dial only adds traffic).
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
        if (engine::canaryShadowSelected(seed, 0.2)) {
            EXPECT_TRUE(engine::canaryShadowSelected(seed, 0.6))
                << seed;
        }
    }
    // The split hits the dialed fraction on a large seed population.
    std::size_t picked = 0;
    for (std::uint64_t seed = 0; seed < 20000; ++seed)
        picked += engine::canaryShadowSelected(seed, 0.25);
    EXPECT_GT(picked, 20000 * 0.20);
    EXPECT_LT(picked, 20000 * 0.30);
}

// -------------------------------------------------- latency verdict

TEST(CanaryLatencyVerdict, OneOutlierInAFullWindowDoesNotBreach)
{
    // One scheduler stall makes one group look 100x slower; the median
    // of the window does not move.
    EXPECT_FALSE(engine::canaryLatencyBreached({1.0, 1.2, 100.0, 0.9},
                                               4, 8.0));
    EXPECT_FALSE(engine::canaryLatencyBreached({100.0, 1.0, 1.0, 1.0},
                                               4, 8.0));
    // Two stalls in four are a tie, not a majority.
    EXPECT_FALSE(engine::canaryLatencyBreached({100.0, 1.0, 100.0, 1.0},
                                               4, 8.0));
}

TEST(CanaryLatencyVerdict, UniformlySlowWindowBreaches)
{
    EXPECT_TRUE(engine::canaryLatencyBreached({10.0, 10.0, 10.0, 10.0},
                                              4, 8.0));
    // A strict majority above the multiple is enough.
    EXPECT_TRUE(engine::canaryLatencyBreached({1.0, 10.0, 10.0, 10.0},
                                              4, 8.0));
    EXPECT_TRUE(engine::canaryLatencyBreached(
        {1.0, 1.0, 10.0, 10.0, 10.0}, 5, 8.0));
    // A multiple of 0 disables the verdict.
    EXPECT_FALSE(engine::canaryLatencyBreached({10.0, 10.0, 10.0, 10.0},
                                               4, 0.0));
}

TEST(CanaryLatencyVerdict, PartialWindowGivesNoVerdict)
{
    EXPECT_FALSE(engine::canaryLatencyBreached({}, 4, 8.0));
    EXPECT_FALSE(engine::canaryLatencyBreached({10.0, 10.0, 10.0}, 4,
                                               8.0));
    EXPECT_FALSE(engine::canaryLatencyBreached({10.0}, 0, 8.0));
    // ...until the window fills.
    EXPECT_TRUE(engine::canaryLatencyBreached({10.0}, 1, 8.0));
}

// ---------------------------------------------- promote / quarantine

TEST_F(CanaryGateTest, CleanCandidateAutoPromotesAndBytesHold)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    // Canary-off baseline first, while the archive is pristine.
    const auto live = corpus(8, 6);
    std::vector<Response> expected;
    {
        ModelRegistry fresh(dir_);
        Server plain(fresh);
        expected = plain.serve(live);
    }

    // The candidate carries the incumbent's exact weights (epoch 2),
    // so every shadow diverges by 0.0 -- and served bytes stay
    // byte-stable across the auto-promote itself.
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());
    ASSERT_TRUE(registry.candidate("m") != nullptr);
    EXPECT_EQ(registry.candidatePath("m"), cand);

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 4;
    Server server(registry, config);

    std::vector<Response> got;
    for (const Request &req : live)
        got.push_back(std::move(server.serve({req}).front()));
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output))
            << "request " << q << " moved bytes under the canary";
    }

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryShadows, config.canary.minShadows);
    EXPECT_EQ(stats.canaryQuarantines, 0u);
    EXPECT_EQ(stats.canaryPromotions, 1u);
    EXPECT_EQ(stats.canaryState, 3u);  // promoted
    EXPECT_EQ(stats.canaryLastDivergence, 0.0);
    EXPECT_GE(stats.promotions, 1u);

    // The swap went through the atomic publish: the archive verifies,
    // a fresh registry loads the candidate, and the staged slot is
    // cleared.
    auto now = registry.tryGet("m");
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now.value()->meta().epoch, 2);
    EXPECT_TRUE(registry.candidate("m") == nullptr);
    ModelRegistry reopened(dir_);
    auto cold = reopened.tryGet("m");
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.value()->meta().epoch, 2);
}

TEST_F(CanaryGateTest, DivergentCandidateIsQuarantinedNotPromoted)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string archive = registry.pathFor("m");
    const std::string before = slurp(archive);

    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    const auto live = corpus(8, 6);
    std::vector<Response> expected;
    {
        ModelRegistry fresh(dir_);
        Server plain(fresh);
        expected = plain.serve(live);
    }

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 2;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 60000;  // stay quarantined
    Server server(registry, config);

    std::vector<Response> got;
    for (const Request &req : live)
        got.push_back(std::move(server.serve({req}).front()));
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output))
            << "request " << q
            << ": a divergent shadow moved client bytes";
    }

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryShadows, 1u);
    EXPECT_GE(stats.canaryDivergenceBreaches, 1u);
    EXPECT_EQ(stats.canaryQuarantines, 1u);
    EXPECT_EQ(stats.canaryPromotions, 0u);
    EXPECT_EQ(stats.canaryState, 2u);  // quarantined (long backoff)
    EXPECT_GT(stats.canaryLastDivergence, 0.05);
    EXPECT_GE(stats.rollbacks, 1u);

    // The incumbent archive is byte-for-byte untouched and the
    // incumbent keeps serving.
    EXPECT_EQ(slurp(archive), before);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
}

TEST_F(CanaryGateTest, QuarantineBacksOffThenResumesShadowing)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 1;
    config.canary.quarantineMaxMs = 2;
    Server server(registry, config);

    const auto live = corpus(6, 6);
    server.serve({live[0]});
    ASSERT_EQ(server.stats().canaryQuarantines, 1u);
    const std::size_t shadowsAfterFirst = server.stats().canaryShadows;

    // Traffic inside the backoff window is not shadowed...
    server.serve({live[1]});
    // ...but once the window lapses shadowing resumes (with a zeroed
    // streak) and the still-divergent candidate re-breaches.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.serve({live[2]});
    const Server::Stats stats = server.stats();
    EXPECT_GT(stats.canaryShadows, shadowsAfterFirst);
    EXPECT_GE(stats.canaryQuarantines, 2u);
    EXPECT_EQ(stats.canaryPromotions, 0u);
}

TEST_F(CanaryGateTest, ObserveOnlyGateNeverPromotes)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 2;
    config.canary.autoPromote = false;
    Server server(registry, config);

    for (const Request &req : corpus(6, 6))
        ASSERT_TRUE(server.serve({req}).front().status.ok());

    const Server::Stats stats = server.stats();
    EXPECT_GE(stats.canaryCleanStreak, config.canary.minShadows);
    EXPECT_EQ(stats.canaryPromotions, 0u);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
    EXPECT_TRUE(registry.candidate("m") != nullptr);  // still staged
}

TEST_F(CanaryGateTest, PartialFractionShadowsOnlySelectedSeeds)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    const double fraction = 0.4;
    const auto live = corpus(16, 6);
    std::size_t selected = 0;
    for (const Request &req : live)
        selected += engine::canaryShadowSelected(req.seed, fraction);
    ASSERT_GT(selected, 0u);
    ASSERT_LT(selected, live.size());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = fraction;
    config.canary.minShadows = live.size() + 1;  // never promotes here
    Server server(registry, config);
    for (const Request &req : live)
        ASSERT_TRUE(server.serve({req}).front().status.ok());

    // Exactly the splitter-selected requests were shadowed: the gate
    // and the pure function agree request for request.
    EXPECT_EQ(server.stats().canaryShadows, selected);
    EXPECT_EQ(server.stats().canaryPromotions, 0u);
}

// --------------------------------------------------- coalesced shadow

TEST_F(CanaryGateTest, CoalescedPackedShadowScoresEachPickedMember)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    // Six 3-row wire-packed requests at a 4-row batch depth: submit
    // auto-flushes every second request, so each flush is one 6-row
    // group in two chunks, and the second member straddles them.
    const auto live = packedCorpus(6, 3, 6);
    const double fraction = 0.5;
    std::size_t selected = 0, shadowedGroups = 0;
    for (std::size_t q = 0; q < live.size(); q += 2) {
        const std::size_t picks =
            engine::canaryShadowSelected(live[q].seed, fraction) +
            engine::canaryShadowSelected(live[q + 1].seed, fraction);
        selected += picks;
        shadowedGroups += picks > 0;
    }
    ASSERT_GT(selected, 0u);
    ASSERT_LT(selected, live.size());

    ServerConfig off;
    off.maxBatchRows = 4;
    Server plain(registry, off);
    const auto expected = plain.serve(live);

    ServerConfig config = off;
    config.canary.model = "m";
    config.canary.fraction = fraction;
    config.canary.minShadows = 2;
    config.canary.autoPromote = false;
    Server server(registry, config);
    const auto got = server.serve(live);
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output)) << q;
    }

    // The byte-copy candidate scores exactly zero, once per picked
    // member, and the shadow adds no incumbent kernel work.
    const Server::Stats stats = server.stats();
    const Server::Stats base = plain.stats();
    EXPECT_EQ(stats.canaryShadows, selected);
    EXPECT_EQ(stats.canaryCleanStreak, selected);
    EXPECT_EQ(stats.canaryDivergenceNano.count(), selected);
    EXPECT_EQ(stats.canaryDivergenceNano.max(), 0u);
    EXPECT_EQ(stats.canaryLastDivergence, 0.0);
    EXPECT_EQ(stats.canaryQuarantines, 0u);
    // One candidate run per group with a pick, however many it has.
    EXPECT_EQ(stats.shadowLatencyNs.count(), shadowedGroups);
    EXPECT_EQ(stats.groups, 3u);
    EXPECT_EQ(stats.kernelBatches, base.kernelBatches);
    EXPECT_EQ(stats.kernelBatches, 6u);  // 3 groups x ceil(6 / 4)
    EXPECT_EQ(stats.scratchResizes, base.scratchResizes);
    EXPECT_EQ(stats.rows, base.rows);
}

TEST_F(CanaryGateTest, CoalescedPackedShadowStopsAtFirstDivergentMember)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("blank.ckpt");
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    const auto live = packedCorpus(6, 3, 6);
    ServerConfig off;
    off.maxBatchRows = 4;
    Server plain(registry, off);
    const auto expected = plain.serve(live);

    ServerConfig config = off;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.maxDivergence = 0.05;
    config.canary.quarantineMinMs = 60000;  // stay quarantined
    Server server(registry, config);
    const auto got = server.serve(live);
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output)) << q;
    }

    // Both members of the first group ran through the candidate, but
    // the first one breached, so scoring stopped there; the quarantine
    // then kept the later groups from shadowing.
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.canaryShadows, 1u);
    EXPECT_EQ(stats.canaryDivergenceBreaches, 1u);
    EXPECT_EQ(stats.canaryQuarantines, 1u);
    EXPECT_EQ(stats.canaryCleanStreak, 0u);
    EXPECT_EQ(stats.canaryState, 2u);
    EXPECT_GT(stats.canaryLastDivergence, 0.05);
    EXPECT_EQ(stats.kernelBatches, plain.stats().kernelBatches);
}

TEST_F(CanaryGateTest, SlowCandidateNeverPromotesBeforeTheWindowFills)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    ServerConfig config;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.minShadows = 4;
    config.canary.maxLatencyMultiple = 1e-9;  // every shadow is slow
    Server server(registry, config);

    // One flush, one group: eight clean shadows fill the streak, but
    // the window holds one ratio -- no verdict, and no promote either.
    const auto live = corpus(11, 6);
    server.serve({live.begin(), live.begin() + 8});
    Server::Stats stats = server.stats();
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.canaryCleanStreak, 8u);
    EXPECT_EQ(stats.canaryPromotions, 0u);
    EXPECT_EQ(stats.canaryLatencyBreaches, 0u);
    EXPECT_EQ(stats.canaryState, 1u);  // still shadowing

    // Three more groups fill the window, and its median breaches.
    for (std::size_t q = 8; q < live.size(); ++q)
        server.serve({live[q]});
    stats = server.stats();
    EXPECT_EQ(stats.canaryPromotions, 0u);
    EXPECT_EQ(stats.canaryLatencyBreaches, 1u);
    EXPECT_EQ(stats.canaryQuarantines, 1u);
}

TEST_F(CanaryGateTest, WiderCandidateSharingScratchLeavesBytesAlone)
{
    // The shadow reuses the incumbent's scratch; a candidate with a
    // wider hidden layer reshapes it between incumbent runs, and the
    // served bytes must not notice.
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    rbm::Rbm wide(6, 11);
    util::Rng rng(3);
    wide.initRandom(rng, 0.5f);
    const std::string cand = path("wide.ckpt");
    rbm::saveCheckpoint(makeCkpt(std::move(wide), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    auto live = packedCorpus(6, 3, 6);
    for (Request &req : corpus(6, 6))
        live.push_back(std::move(req));
    ServerConfig off;
    off.maxBatchRows = 4;
    Server plain(registry, off);
    const auto expected = plain.serve(live);

    ServerConfig config = off;
    config.canary.model = "m";
    config.canary.fraction = 1.0;
    config.canary.maxDivergence = 1e9;  // never quarantine
    config.canary.autoPromote = false;
    Server server(registry, config);
    const auto got = server.serve(live);
    for (std::size_t q = 0; q < live.size(); ++q) {
        ASSERT_TRUE(got[q].status.ok()) << q;
        EXPECT_TRUE(sameBytes(got[q].output, expected[q].output)) << q;
    }
    EXPECT_EQ(server.stats().canaryShadows, live.size());
    EXPECT_EQ(server.stats().canaryQuarantines, 0u);
}

// ----------------------------------------------- staging validation

TEST_F(CanaryGateTest, StageCandidateRejectsTornAndMismatchedFiles)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    // Torn candidate bytes never reach the gate.
    const std::string torn = path("torn.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), torn);
    {
        const std::string bytes = slurp(torn);
        std::ofstream os(torn, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(registry.stageCandidate("m", torn).ok());
    EXPECT_TRUE(registry.candidate("m") == nullptr);

    // An input-dim mismatch against the resolvable incumbent is
    // rejected before any traffic could shadow through it.
    const std::string wrong = path("wrong.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(7), 2), wrong);
    EXPECT_FALSE(registry.stageCandidate("m", wrong).ok());
    EXPECT_TRUE(registry.candidate("m") == nullptr);

    // Restaging replaces; clearing drops.
    const std::string good = path("good.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), good);
    ASSERT_TRUE(registry.stageCandidate("m", good).ok());
    ASSERT_TRUE(registry.candidate("m") != nullptr);
    registry.clearCandidate("m");
    EXPECT_TRUE(registry.candidate("m") == nullptr);
}

TEST_F(CanaryGateTest, PromoteStagedRefusesACandidateChangedOnDisk)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    const std::string cand = path("cand.ckpt");
    rbm::saveCheckpoint(makeCkpt(copyRbm(6), 2), cand);
    ASSERT_TRUE(registry.stageCandidate("m", cand).ok());

    // The file is overwritten after staging (a trainer lapping the
    // gate): publishing the *staged* bytes would resurrect a model
    // nobody validated, so the promote must refuse and unstage.
    rbm::saveCheckpoint(makeCkpt(blankRbm(6), 3), cand);
    auto result = registry.promoteStaged("m");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::FailedPrecondition);
    EXPECT_TRUE(registry.candidate("m") == nullptr);
    auto still = registry.tryGet("m");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value()->meta().epoch, 1);
}

// ----------------------------------------------------- deadlines

TEST_F(CanaryGateTest, ExpiredAtSubmitSkipsAllKernelWork)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));
    Server server(registry);

    Request req;
    req.model = "m";
    req.op = Op::Reconstruct;
    req.seed = 9;
    req.input = engine::canaryProbe(2, 6, 9);
    req.deadlineNs = 1;  // steady-clock epoch: expired long ago
    const Response res = std::move(server.serve({req}).front());
    EXPECT_EQ(res.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(res.output.rows(), 0u);

    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.kernelBatches, 0u);  // no kernel ever ran
    EXPECT_EQ(stats.rows, 0u);
    EXPECT_EQ(stats.rejected, 0u);  // expiry is not a malformed request
}

TEST_F(CanaryGateTest, ExpiryInQueueDoesNotPerturbCoflushedBytes)
{
    ModelRegistry registry(dir_);
    registry.put("m", makeCkpt(copyRbm(6), 1));

    Request keep;
    keep.model = "m";
    keep.op = Op::Reconstruct;
    keep.seed = 21;
    keep.input = engine::canaryProbe(3, 6, 21);

    Server clean(registry);
    const Response alone = std::move(clean.serve({keep}).front());
    ASSERT_TRUE(alone.status.ok());

    Server server(registry);
    auto keepFuture = server.submit(keep);
    Request doomed = keep;
    doomed.seed = 22;
    doomed.deadlineNs = engine::steadyNowNs() + 1000000;  // 1 ms
    auto doomedFuture = server.submit(std::move(doomed));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.flush();

    const Response kept = keepFuture.get();
    const Response expired = doomedFuture.get();
    EXPECT_EQ(expired.status.code(), StatusCode::DeadlineExceeded);
    ASSERT_TRUE(kept.status.ok());
    EXPECT_TRUE(sameBytes(kept.output, alone.output));
    EXPECT_EQ(server.stats().deadlineExpired, 1u);

    // A generous deadline, by contrast, rides through untouched.
    Request relaxed = keep;
    relaxed.deadlineNs =
        engine::steadyNowNs() + 60ull * 1000 * 1000 * 1000;
    const Response easy =
        std::move(server.serve({std::move(relaxed)}).front());
    ASSERT_TRUE(easy.status.ok());
    EXPECT_TRUE(sameBytes(easy.output, alone.output));
}
