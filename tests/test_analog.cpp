/**
 * @file
 * Tests for the analog fabric behavioral model, including the
 * behavioral-vs-ideal and behavioral-vs-BRIM cross-validations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "accel/bgf.hpp"
#include "ising/analog.hpp"
#include "ising/bipartite.hpp"
#include "ising/brim.hpp"
#include "rbm/rbm.hpp"

using namespace ising;
using machine::AnalogConfig;
using machine::AnalogFabric;
using util::Rng;

namespace {

rbm::Rbm
randomModel(std::size_t m, std::size_t n, std::uint64_t seed,
            float scale = 0.5f)
{
    rbm::Rbm model(m, n);
    Rng rng(seed);
    model.initRandom(rng, scale);
    for (std::size_t i = 0; i < m; ++i)
        model.visibleBias()[i] = static_cast<float>(rng.gaussian(0, 0.3));
    for (std::size_t j = 0; j < n; ++j)
        model.hiddenBias()[j] = static_cast<float>(rng.gaussian(0, 0.3));
    return model;
}

AnalogConfig
idealConfig()
{
    AnalogConfig cfg;
    cfg.idealComponents = true;
    return cfg;
}

} // namespace

TEST(AnalogFabric, ProgramReadoutRoundTripIdeal)
{
    Rng rng(1);
    const rbm::Rbm model = randomModel(12, 8, 2);
    AnalogFabric fabric(12, 8, idealConfig(), rng);
    fabric.program(model);
    rbm::Rbm out;
    fabric.readOut(out);
    EXPECT_EQ(out.weights(), model.weights());
    EXPECT_EQ(out.visibleBias(), model.visibleBias());
}

TEST(AnalogFabric, ProgramReadoutWithinQuantization)
{
    Rng rng(2);
    const rbm::Rbm model = randomModel(10, 6, 3);
    AnalogConfig cfg;  // 8-bit converters, weightMax 2.0
    AnalogFabric fabric(10, 6, cfg, rng);
    fabric.program(model);
    rbm::Rbm out;
    fabric.readOut(out);
    const double lsb = 2.0 * cfg.weightMax / 255.0;
    for (std::size_t i = 0; i < model.weights().size(); ++i)
        EXPECT_NEAR(out.weights().data()[i], model.weights().data()[i],
                    lsb + 1e-6);
}

TEST(AnalogFabric, IdealHiddenSamplingMatchesRbmConditional)
{
    // Statistical check: ideal fabric sampling frequencies match the
    // exact P(h_j=1|v) of the programmed RBM.
    Rng rng(3);
    const rbm::Rbm model = randomModel(8, 4, 4, 0.8f);
    AnalogFabric fabric(8, 4, idealConfig(), rng);
    fabric.program(model);

    linalg::Vector v(8);
    for (std::size_t i = 0; i < 8; ++i)
        v[i] = (i % 2) ? 1.0f : 0.0f;
    linalg::Vector ph;
    model.hiddenProbs(v.data(), ph);

    std::vector<double> freq(4, 0.0);
    linalg::Vector h;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 4; ++j)
            freq[j] += h[j];
    }
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(freq[j] / trials, ph[j], 0.015) << j;
}

TEST(AnalogFabric, IdealVisibleSamplingMatchesRbmConditional)
{
    Rng rng(4);
    const rbm::Rbm model = randomModel(6, 5, 5, 0.8f);
    AnalogFabric fabric(6, 5, idealConfig(), rng);
    fabric.program(model);

    linalg::Vector h(5);
    h[0] = h[3] = 1.0f;
    linalg::Vector pv;
    model.visibleProbs(h.data(), pv);

    std::vector<double> freq(6, 0.0);
    linalg::Vector v;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleVisible(h, v, rng);
        for (std::size_t i = 0; i < 6; ++i)
            freq[i] += v[i];
    }
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(freq[i] / trials, pv[i], 0.015) << i;
}

TEST(AnalogFabric, CircuitSamplingCloseToIdeal)
{
    // With default (non-ideal) components, sampling frequencies may
    // deviate but must stay close -- the Cadence-validation claim.
    Rng rng(5);
    const rbm::Rbm model = randomModel(8, 4, 6, 0.6f);
    AnalogConfig cfg;  // non-ideal defaults, no noise
    AnalogFabric fabric(8, 4, cfg, rng);
    fabric.program(model);

    linalg::Vector v(8);
    for (std::size_t i = 0; i < 8; ++i)
        v[i] = (i < 4) ? 1.0f : 0.0f;
    linalg::Vector ph;
    model.hiddenProbs(v.data(), ph);

    std::vector<double> freq(4, 0.0);
    linalg::Vector h;
    const int trials = 30000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 4; ++j)
            freq[j] += h[j];
    }
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(freq[j] / trials, ph[j], 0.06) << j;
}

TEST(AnalogFabric, ClampQuantizesThroughDtc)
{
    Rng rng(6);
    AnalogConfig cfg;
    cfg.dtcBits = 2;  // coarse: levels 0, 1/3, 2/3, 1
    AnalogFabric fabric(4, 2, cfg, rng);
    const float data[4] = {0.4f, 0.9f, 0.0f, 1.0f};
    linalg::Vector v;
    fabric.clampVisible(data, v);
    EXPECT_NEAR(v[0], 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(v[1], 1.0f, 1e-6);
}

TEST(AnalogFabric, PumpUpdateTouchesOnlyActiveCouplers)
{
    Rng rng(7);
    const rbm::Rbm model = randomModel(5, 4, 8, 0.2f);
    AnalogFabric fabric(5, 4, idealConfig(), rng);
    fabric.program(model);
    const linalg::Matrix before = fabric.rawWeights();

    linalg::Vector v(5), h(4);
    v[1] = 1.0f;
    h[2] = 1.0f;
    fabric.pumpUpdate(v, h, +1, rng);
    const linalg::Matrix &after = fabric.rawWeights();
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            if (i == 1 && j == 2)
                EXPECT_GT(after(i, j), before(i, j));
            else
                EXPECT_EQ(after(i, j), before(i, j)) << i << "," << j;
        }
    }
}

TEST(AnalogFabric, PumpDirectionSigns)
{
    Rng rng(8);
    AnalogConfig cfg = idealConfig();
    cfg.pumpStep = 0.01;
    AnalogFabric fabric(3, 3, cfg, rng);
    rbm::Rbm zero(3, 3);
    fabric.program(zero);
    linalg::Vector v(3, 1.0f), h(3, 1.0f);
    fabric.pumpUpdate(v, h, +1, rng);
    EXPECT_NEAR(fabric.rawWeights()(0, 0), 0.01f, 1e-6);
    fabric.pumpUpdate(v, h, -1, rng);
    fabric.pumpUpdate(v, h, -1, rng);
    EXPECT_NEAR(fabric.rawWeights()(0, 0), -0.01f, 1e-6);
}

TEST(AnalogFabric, BiasCouplersFollowActiveUnits)
{
    Rng rng(9);
    AnalogConfig cfg = idealConfig();
    cfg.pumpStep = 0.02;
    AnalogFabric fabric(3, 2, cfg, rng);
    rbm::Rbm zero(3, 2);
    fabric.program(zero);
    linalg::Vector v(3), h(2);
    v[0] = 1.0f;  // only visible 0 active; no hidden active
    fabric.pumpUpdate(v, h, +1, rng);
    EXPECT_NEAR(fabric.rawVisibleBias()[0], 0.02f, 1e-6);
    EXPECT_EQ(fabric.rawVisibleBias()[1], 0.0f);
    EXPECT_EQ(fabric.rawHiddenBias()[0], 0.0f);
}

TEST(AnalogFabric, StaticVariationIsFrozen)
{
    // Two fabrics with the same variationSeed behave identically.
    AnalogConfig cfg;
    cfg.noise.rmsVariation = 0.2;
    cfg.variationSeed = 42;
    Rng rngA(10), rngB(10);
    const rbm::Rbm model = randomModel(6, 4, 11);
    AnalogFabric a(6, 4, cfg, rngA), b(6, 4, cfg, rngB);
    a.program(model);
    b.program(model);
    linalg::Vector v(6, 1.0f), ha, hb;
    a.sampleHidden(v, ha, rngA);
    b.sampleHidden(v, hb, rngB);
    EXPECT_EQ(ha, hb);
}

TEST(AnalogFabric, DynamicNoiseAddsSamplingVariance)
{
    // A strongly biased unit flips essentially never without noise but
    // occasionally with 30% dynamic noise.
    // Mixed-sign couplings: the summed current is small but the
    // per-coupler noise power is large, so dynamic noise visibly
    // perturbs the sample while the noiseless unit is stable.
    Rng rng(12);
    rbm::Rbm model(4, 2);
    for (std::size_t j = 0; j < 2; ++j)
        model.hiddenBias()[j] = 4.0f;  // P(h=1) ~ 0.982
    for (std::size_t i = 0; i < 4; ++i)
        model.weights()(i, 0) = (i % 2) ? 4.0f : -4.0f;

    auto flipRate = [&](double rmsNoise) {
        AnalogConfig cfg = idealConfig();
        cfg.noise.rmsNoise = rmsNoise;
        AnalogFabric fabric(4, 2, cfg, rng);
        fabric.program(model);
        linalg::Vector v(4, 1.0f), h;
        int zeros = 0;
        const int trials = 20000;
        for (int t = 0; t < trials; ++t) {
            fabric.sampleHidden(v, h, rng);
            zeros += h[0] < 0.5f;
        }
        return static_cast<double>(zeros) / trials;
    };
    EXPECT_GT(flipRate(0.5), flipRate(0.0) + 0.01);
}

TEST(AnalogFabric, BehavioralMatchesBrimAt32x32)
{
    // The paper validates its behavioral models against a 32x32-node
    // Cadence BGF.  Here: embed a random 32x32 RBM as an Ising
    // instance, draw clamped-visible hidden marginals from the BRIM
    // transient simulator (with Langevin noise) and from the
    // behavioral fabric, and require positive agreement between the
    // per-unit marginals.
    Rng rng(13);
    rbm::Rbm model(32, 32);
    model.initRandom(rng, 0.8f);

    // Behavioral marginals.
    AnalogFabric fabric(32, 32, idealConfig(), rng);
    fabric.program(model);
    linalg::Vector v(32);
    for (std::size_t i = 0; i < 32; ++i)
        v[i] = (i % 3 == 0) ? 1.0f : 0.0f;
    std::vector<double> behavioral(32, 0.0);
    linalg::Vector h;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        fabric.sampleHidden(v, h, rng);
        for (std::size_t j = 0; j < 32; ++j)
            behavioral[j] += h[j];
    }
    for (auto &x : behavioral)
        x /= trials;

    // Transient-simulator marginals with visible nodes clamped.
    const machine::RbmEmbedding emb = machine::embedRbm(model);
    machine::BrimConfig bcfg;
    bcfg.dt = 0.05;
    bcfg.temperature = 0.6;
    machine::BrimSimulator sim(emb.model, bcfg, rng);
    std::vector<double> transient(32, 0.0);
    const int reads = 400;
    for (std::size_t i = 0; i < 32; ++i)
        sim.clampNode(emb.layout.visibleNode(i), v[i] > 0.5f ? 1.0 : -1.0);
    for (int r = 0; r < reads; ++r) {
        for (int s = 0; s < 40; ++s)
            sim.step(0.0);
        const auto spins = sim.spins();
        for (std::size_t j = 0; j < 32; ++j)
            transient[j] += spins[emb.layout.hiddenNode(j)] > 0 ? 1.0 : 0.0;
    }
    for (auto &x : transient)
        x /= reads;

    // The two marginal profiles must correlate strongly.
    double meanB = 0.0, meanT = 0.0;
    for (std::size_t j = 0; j < 32; ++j) {
        meanB += behavioral[j];
        meanT += transient[j];
    }
    meanB /= 32;
    meanT /= 32;
    double cov = 0.0, varB = 0.0, varT = 0.0;
    for (std::size_t j = 0; j < 32; ++j) {
        cov += (behavioral[j] - meanB) * (transient[j] - meanT);
        varB += (behavioral[j] - meanB) * (behavioral[j] - meanB);
        varT += (transient[j] - meanT) * (transient[j] - meanT);
    }
    const double corr = cov / std::sqrt(varB * varT + 1e-12);
    EXPECT_GT(corr, 0.5);
}

// ------------------------------------------------- sweep bit-identity
//
// The fabric's settle sweep runs input-major over its coupler array
// and a transposed mirror of it.  These tests hold it, bit for bit,
// to the plain per-output definition below, written from public
// pieces only.  Ideal, noiseless components keep the reference free
// of anything a native build could contract into an FMA, so the
// comparison is exact in portable and native builds alike.

namespace {

/**
 * Per-output reference of the ideal, noiseless settle sweep: each
 * node's current is its bias coupler plus the sum, in ascending input
 * order, of the float coupler products -- (v * w) * g into a hidden
 * node with the bias first, (w * g) * h into a visible node with the
 * bias last -- then an ideal sigmoid and one uniform draw.
 */
class ReferenceSweep
{
  public:
    explicit ReferenceSweep(const AnalogFabric &fabric) : fabric_(fabric)
    {
        // Re-draw the fabrication lottery in the constructor's order:
        // coupler gains, then visible and hidden bias gains.
        const AnalogConfig &cfg = fabric.config();
        const double rms = cfg.noise.rmsVariation;
        const std::size_t m = fabric.numVisible(), n = fabric.numHidden();
        Rng fab(cfg.variationSeed);
        gains_.materialize(m, n, rms, fab);
        const auto biasGain = [&] {
            return rms > 0 ? static_cast<float>(std::max(
                                 0.05, 1.0 + fab.gaussian(0.0, rms)))
                           : 1.0f;
        };
        for (std::size_t i = 0; i < m; ++i)
            biasGainV_.push_back(biasGain());
        for (std::size_t j = 0; j < n; ++j)
            biasGainH_.push_back(biasGain());
    }

    void
    sampleHidden(const linalg::Vector &v, linalg::Vector &h, Rng &rng) const
    {
        const linalg::Matrix &w = fabric_.rawWeights();
        h.resize(fabric_.numHidden());
        for (std::size_t j = 0; j < h.size(); ++j) {
            double act = fabric_.rawHiddenBias()[j] * biasGainH_[j];
            for (std::size_t i = 0; i < v.size(); ++i) {
                const float c = v[i] * w(i, j) * gains_.gain(i, j);
                act += c;
            }
            h[j] = latch(act, rng);
        }
    }

    void
    sampleVisible(const linalg::Vector &h, linalg::Vector &v,
                  Rng &rng) const
    {
        const linalg::Matrix &w = fabric_.rawWeights();
        v.resize(fabric_.numVisible());
        for (std::size_t i = 0; i < v.size(); ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < h.size(); ++j) {
                const float c = w(i, j) * gains_.gain(i, j) * h[j];
                acc += c;
            }
            const double bias = fabric_.rawVisibleBias()[i] * biasGainV_[i];
            v[i] = latch(acc + bias, rng);
        }
    }

    void
    anneal(int steps, linalg::Vector &v, linalg::Vector &h, Rng &rng) const
    {
        for (int s = 0; s < steps; ++s) {
            sampleVisible(h, v, rng);
            sampleHidden(v, h, rng);
        }
    }

  private:
    float
    latch(double act, Rng &rng) const
    {
        const machine::SigmoidUnit ideal(fabric_.config().sigmoidGain, 0.0,
                                         0.0);
        return rng.uniform() < ideal.transfer(act) ? 1.0f : 0.0f;
    }

    const AnalogFabric &fabric_;
    machine::VariationField gains_;
    std::vector<float> biasGainV_, biasGainH_;
};

/** A binary (p = 0.3) or fractional state of @p size units. */
linalg::Vector
randomState(std::size_t size, bool fractional, Rng &rng)
{
    linalg::Vector x(size);
    for (std::size_t i = 0; i < size; ++i)
        x[i] = fractional ? static_cast<float>(rng.uniform())
                          : (rng.uniform() < 0.3 ? 1.0f : 0.0f);
    return x;
}

/**
 * Drive the fabric and the reference through every sweep entry point
 * from equal RNG states and require equal latched bits and equal RNG
 * consumption.
 */
void
expectSweepsMatchReference(const AnalogFabric &fabric, bool fractional,
                           std::uint64_t seed)
{
    const ReferenceSweep ref(fabric);
    Rng inputs(seed);
    for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(trial);
        Rng a(seed + 100 + trial), b(seed + 100 + trial);
        const linalg::Vector v =
            randomState(fabric.numVisible(), fractional, inputs);
        const linalg::Vector h =
            randomState(fabric.numHidden(), fractional, inputs);
        linalg::Vector outA, outB;

        fabric.sampleHidden(v, outA, a);
        ref.sampleHidden(v, outB, b);
        EXPECT_EQ(outA, outB);

        fabric.sampleVisible(h, outA, a);
        ref.sampleVisible(h, outB, b);
        EXPECT_EQ(outA, outB);

        linalg::Vector vA, vB, hA = h, hB = h;
        fabric.anneal(3, vA, hA, a);
        ref.anneal(3, vB, hB, b);
        EXPECT_EQ(vA, vB);
        EXPECT_EQ(hA, hB);
        EXPECT_EQ(a.next(), b.next());
    }
}

} // namespace

TEST(AnalogFabricSweep, MatchesReferenceThroughPumpProgramAndRestore)
{
    // Odd sizes leave remainders after any vector width.
    const std::size_t m = 37, n = 23;
    for (const double variation : {0.0, 0.15}) {
        for (const bool fractional : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "variation " << variation << " fractional "
                         << fractional);
            AnalogConfig cfg = idealConfig();
            cfg.noise.rmsVariation = variation;
            cfg.pumpStep = 0.05;
            cfg.variationSeed = 77;
            Rng rng(40);
            AnalogFabric fabric(m, n, cfg, rng);
            fabric.program(randomModel(m, n, 41, 0.8f));
            expectSweepsMatchReference(fabric, fractional, 1);

            // Pump events move couplers in both copies of the array.
            for (int e = 0; e < 5; ++e) {
                const linalg::Vector v = randomState(m, false, rng);
                const linalg::Vector h = randomState(n, false, rng);
                fabric.pumpUpdate(v, h, (e % 2) ? -1 : +1, rng);
            }
            expectSweepsMatchReference(fabric, fractional, 2);

            fabric.program(randomModel(m, n, 42, 0.8f));
            expectSweepsMatchReference(fabric, fractional, 3);

            const rbm::Rbm raw = randomModel(m, n, 43, 1.5f);
            fabric.restoreRaw(raw.weights(), raw.visibleBias(),
                              raw.hiddenBias());
            expectSweepsMatchReference(fabric, fractional, 4);
        }
    }
}

TEST(AnalogFabricSweep, IdealNoiselessBgfRunDigestIsPinned)
{
    // A short ideal, noiseless BGF run: nothing in it can be contracted
    // into an FMA, so its final coupler state is the same in portable
    // and native builds.  The digest was captured before the sweep
    // moved to the input-major kernel and its transposed mirror.
    const std::size_t m = 48, n = 20;
    rbm::Rbm init(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            init.weights()(i, j) = 0.05f * static_cast<float>(
                static_cast<int>((i * 7 + j * 13) % 17) - 8);
    for (std::size_t i = 0; i < m; ++i)
        init.visibleBias()[i] =
            0.1f * static_cast<float>(static_cast<int>(i % 5) - 2);
    for (std::size_t j = 0; j < n; ++j)
        init.hiddenBias()[j] = -0.05f * static_cast<float>(j % 3);

    accel::BgfConfig cfg;
    cfg.learningRate = 0.01;
    cfg.annealSteps = 3;
    cfg.numParticles = 4;
    cfg.analog.idealComponents = true;
    Rng fab(21), rng(22);
    accel::BoltzmannGradientFollower bgf(m, n, cfg, fab);
    bgf.initialize(init);
    std::vector<float> x(m);
    for (int s = 0; s < 300; ++s) {
        for (std::size_t i = 0; i < m; ++i)
            x[i] = rng.uniform() < 0.3 ? 1.0f : 0.0f;
        bgf.trainSample(x.data(), rng);
    }

    // FNV-1a over the raw coupler state.
    std::uint64_t digest = 14695981039346656037ull;
    const auto mix = [&digest](const float *p, std::size_t count) {
        const auto *bytes = reinterpret_cast<const unsigned char *>(p);
        for (std::size_t k = 0; k < count * sizeof(float); ++k) {
            digest ^= bytes[k];
            digest *= 1099511628211ull;
        }
    };
    const AnalogFabric &f = bgf.fabric();
    mix(f.rawWeights().data(), f.rawWeights().size());
    mix(f.rawVisibleBias().data(), m);
    mix(f.rawHiddenBias().data(), n);
    EXPECT_EQ(digest, 0xaf69afa893e90d3dull);
    EXPECT_EQ(rng.next(), 0xb731913ffb9dcb0eull);
}
