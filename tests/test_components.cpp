/**
 * @file
 * Tests for the Appendix B circuit component behavioral models.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ising/components.hpp"
#include "ising/noise.hpp"
#include "util/math.hpp"

using namespace ising::machine;
using ising::util::Rng;

TEST(SigmoidUnit, IdealMatchesLogistic)
{
    const SigmoidUnit su(1.0, 0.0, 0.0);
    for (double x = -6.0; x <= 6.0; x += 0.5)
        EXPECT_NEAR(su.transfer(x), ising::util::sigmoid(x), 1e-12) << x;
}

TEST(SigmoidUnit, GainControlsSlope)
{
    const SigmoidUnit lo(0.5, 0.0, 0.0), hi(3.0, 0.0, 0.0);
    // At x=1 the higher-gain curve is farther from 0.5.
    EXPECT_GT(hi.transfer(1.0), lo.transfer(1.0));
    EXPECT_LT(hi.transfer(-1.0), lo.transfer(-1.0));
}

TEST(SigmoidUnit, OffsetShiftsCenter)
{
    const SigmoidUnit su(1.0, 2.0, 0.0);
    EXPECT_NEAR(su.transfer(2.0), 0.5, 1e-12);
}

TEST(SigmoidUnit, RailCompressionKeepsAwayFromRails)
{
    const SigmoidUnit su(1.0, 0.0, 0.1);
    EXPECT_GT(su.transfer(-100.0), 0.04);
    EXPECT_LT(su.transfer(100.0), 0.96);
    EXPECT_NEAR(su.transfer(0.0), 0.5, 1e-12);  // center preserved
}

TEST(SigmoidUnit, MonotoneEverywhere)
{
    const SigmoidUnit su(1.3, 0.2, 0.05);
    double prev = su.transfer(-10.0);
    for (double x = -9.9; x <= 10.0; x += 0.1) {
        const double cur = su.transfer(x);
        ASSERT_GE(cur, prev);
        prev = cur;
    }
}

TEST(DiodeRng, LevelsInUnitInterval)
{
    const DiodeRng gen(0.29);
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double l = gen.level(rng);
        ASSERT_GE(l, 0.0);
        ASSERT_LE(l, 1.0);
    }
}

TEST(DiodeRng, CenteredAtHalf)
{
    const DiodeRng gen(0.29);
    Rng rng(2);
    double mean = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        mean += gen.level(rng);
    EXPECT_NEAR(mean / n, 0.5, 0.01);
}

TEST(DiodeRng, InducedSamplingLawApproximatelyCorrect)
{
    // P(level < p) should be close to p in the mid-range -- that is
    // what makes comparator sampling approximately Bernoulli(p).
    const DiodeRng gen(0.29);
    Rng rng(3);
    for (double p : {0.3, 0.5, 0.7}) {
        int hits = 0;
        const int n = 40000;
        for (int i = 0; i < n; ++i)
            hits += gen.level(rng) < p;
        EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.06) << p;
    }
}

TEST(Comparator, FiresOnLevelBelowProbability)
{
    Comparator comp(0.0);
    EXPECT_TRUE(comp.fire(0.8, 0.5));
    EXPECT_FALSE(comp.fire(0.2, 0.5));
}

TEST(Comparator, OffsetShiftsThreshold)
{
    Rng rng(4);
    Comparator comp(0.5);  // huge sigma to force visible offset
    comp.calibrateOffset(rng);
    // Behavior must still be monotone in p.
    int fired = 0;
    for (double p = 0.0; p <= 1.0; p += 0.01)
        fired += comp.fire(p, 0.5);
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 101);
}

TEST(Dtc, QuantizesToGrid)
{
    const Dtc dtc(8);
    const double q = dtc.convert(0.5);
    EXPECT_NEAR(q, 0.5, 1.0 / 255.0);
    EXPECT_DOUBLE_EQ(dtc.convert(0.0), 0.0);
    EXPECT_DOUBLE_EQ(dtc.convert(1.0), 1.0);
}

TEST(Dtc, ClampsOutOfRange)
{
    const Dtc dtc(8);
    EXPECT_DOUBLE_EQ(dtc.convert(-0.4), 0.0);
    EXPECT_DOUBLE_EQ(dtc.convert(1.7), 1.0);
}

TEST(Dtc, LowResolutionIsCoarser)
{
    const Dtc fine(8), coarse(2);
    // 2-bit converter has only 4 levels: 0, 1/3, 2/3, 1.
    EXPECT_NEAR(coarse.convert(0.4), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(fine.convert(0.4), 0.4, 1.0 / 255.0);
}

TEST(Adc, RoundTripWithinLsb)
{
    const Adc adc(8, 2.0);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double w = rng.uniform(-2.0, 2.0);
        EXPECT_NEAR(adc.convert(w), w, adc.lsb() / 2.0 + 1e-12);
    }
}

TEST(Adc, SaturatesAtFullScale)
{
    const Adc adc(8, 1.0);
    EXPECT_DOUBLE_EQ(adc.convert(5.0), 1.0);
    EXPECT_DOUBLE_EQ(adc.convert(-5.0), -1.0);
}

TEST(Adc, LsbMatchesResolution)
{
    const Adc adc8(8, 1.0), adc4(4, 1.0);
    EXPECT_NEAR(adc8.lsb(), 2.0 / 255.0, 1e-12);
    EXPECT_NEAR(adc4.lsb(), 2.0 / 15.0, 1e-12);
}

TEST(ChargePump, MovesInRequestedDirection)
{
    const ChargePump pump(0.01, 1.0, 0.0);
    EXPECT_GT(pump.apply(0.0, +1, 1.0), 0.0);
    EXPECT_LT(pump.apply(0.0, -1, 1.0), 0.0);
}

TEST(ChargePump, LinearStepWhenIdeal)
{
    const ChargePump pump(0.01, 1.0, 0.0);
    EXPECT_NEAR(pump.apply(0.3, +1, 1.0), 0.31, 1e-12);
    EXPECT_NEAR(pump.apply(0.3, -1, 1.0), 0.29, 1e-12);
}

TEST(ChargePump, GainScalesStep)
{
    const ChargePump pump(0.01, 1.0, 0.0);
    EXPECT_NEAR(pump.apply(0.0, +1, 2.0), 0.02, 1e-12);
    EXPECT_NEAR(pump.apply(0.0, +1, 0.5), 0.005, 1e-12);
}

TEST(ChargePump, StepShrinksNearRails)
{
    const ChargePump pump(0.01, 1.0, 0.8);
    const double stepAtZero = pump.apply(0.0, +1, 1.0) - 0.0;
    const double stepNearRail = pump.apply(0.9, +1, 1.0) - 0.9;
    EXPECT_GT(stepAtZero, stepNearRail);
    EXPECT_GT(stepNearRail, 0.0);
}

TEST(ChargePump, SaturatesAtWMax)
{
    const ChargePump pump(0.5, 1.0, 0.0);
    double w = 0.9;
    for (int i = 0; i < 10; ++i)
        w = pump.apply(w, +1, 1.0);
    EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(ChargePump, RowUpdateIsApplyOnFiringCouplers)
{
    // The vectorized row update must return exactly what apply() does,
    // coupler by coupler, in this build: with a nonlinear pump a
    // contracted (fused) shrink term would show here as a bit flip.
    const ChargePump pump(0.013, 1.5, 0.5);
    Rng rng(3);
    const std::size_t n = 45;  // remainders after any vector width
    std::vector<float> w(n), gain(n), fire(n);
    for (std::size_t j = 0; j < n; ++j) {
        w[j] = static_cast<float>(rng.uniform(-2.0, 2.0));  // some > wMax
        gain[j] = static_cast<float>(rng.uniform(0.5, 1.5));
        fire[j] = rng.uniform() < 0.5 ? 1.0f : 0.0f;
    }
    for (const int direction : {+1, -1}) {
        for (const bool varied : {false, true}) {
            std::vector<float> row = w;
            pump.applyRow(row.data(), varied ? gain.data() : nullptr,
                          fire.data(), n, direction);
            for (std::size_t j = 0; j < n; ++j) {
                const float expected =
                    fire[j] > 0.5f
                        ? static_cast<float>(pump.apply(
                              w[j], direction, varied ? gain[j] : 1.0))
                        : w[j];
                EXPECT_EQ(row[j], expected)
                    << "j " << j << " direction " << direction
                    << " varied " << varied;
            }
        }
    }
}

TEST(NoiseSpec, PaperGridHasSixCombos)
{
    const auto grid = paperNoiseGrid();
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_TRUE(grid[0].isNoiseless());
    EXPECT_DOUBLE_EQ(grid[5].rmsVariation, 0.30);
    EXPECT_DOUBLE_EQ(grid[5].rmsNoise, 0.30);
}

TEST(VariationField, DisabledWhenRmsZero)
{
    VariationField field;
    Rng rng(6);
    field.materialize(10, 10, 0.0, rng);
    EXPECT_FALSE(field.enabled());
    EXPECT_FLOAT_EQ(field.gain(3, 4), 1.0f);
}

TEST(VariationField, RmsCalibrated)
{
    VariationField field;
    Rng rng(7);
    field.materialize(200, 200, 0.1, rng);
    ASSERT_TRUE(field.enabled());
    double mean = 0.0, var = 0.0;
    const std::size_t n = 200 * 200;
    for (std::size_t i = 0; i < 200; ++i)
        for (std::size_t j = 0; j < 200; ++j)
            mean += field.gain(i, j);
    mean /= n;
    for (std::size_t i = 0; i < 200; ++i)
        for (std::size_t j = 0; j < 200; ++j) {
            const double d = field.gain(i, j) - mean;
            var += d * d;
        }
    var /= n;
    EXPECT_NEAR(mean, 1.0, 0.005);
    EXPECT_NEAR(std::sqrt(var), 0.1, 0.01);
}

TEST(VariationField, GainsNeverNegative)
{
    VariationField field;
    Rng rng(8);
    field.materialize(100, 100, 0.5, rng);  // extreme mismatch
    for (std::size_t i = 0; i < 100; ++i)
        for (std::size_t j = 0; j < 100; ++j)
            ASSERT_GE(field.gain(i, j), 0.05f);
}
