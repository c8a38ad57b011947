/**
 * @file
 * The paper's analytic BGF claims, asserted.
 *
 * The Table 3, Fig. 5 and Fig. 6 benches print the reproduction beside
 * the paper's figures; this test holds each figure to a stated relative
 * tolerance through the same hw:: calls the benches make.  The
 * tolerance is the claim: a model change that breaks one is a bug in
 * the change, not a reason to widen the bound.  README's "Paper claims
 * under test" table records each tolerance and the known energy gap.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hw/devices.hpp"
#include "hw/energy.hpp"
#include "hw/timing.hpp"

using namespace ising::hw;

namespace {

double
geomean(const std::vector<double> &values)
{
    double acc = 0.0;
    for (const double v : values)
        acc += std::log(v);
    return std::exp(acc / static_cast<double>(values.size()));
}

/** |repo / paper - 1|. */
double
relativeGap(double repo, double paper)
{
    return std::fabs(repo / paper - 1.0);
}

/** Geomean over the Fig. 5 workloads of baseline / BGF. */
template <typename Ratio>
double
geomeanOverWorkloads(Ratio ratio)
{
    std::vector<double> ratios;
    for (const Workload &w : figure5Workloads())
        ratios.push_back(ratio(w));
    return geomean(ratios);
}

} // namespace

TEST(PaperClaims, Table3BgfDensityAndEfficiency)
{
    const std::vector<AcceleratorMetrics> rows = table3Metrics(1600);
    ASSERT_FALSE(rows.empty());
    const AcceleratorMetrics &bgf = rows.back();
    EXPECT_EQ(bgf.name.rfind("BGF", 0), 0u) << bgf.name;
    // Paper: 119 TOPS/mm^2 and 3657 TOPS/W for the 1600x1600 array.
    EXPECT_LE(relativeGap(bgf.topsPerMm2, 119.0), 0.05) << bgf.topsPerMm2;
    EXPECT_LE(relativeGap(bgf.topsPerW, 3657.0), 0.01) << bgf.topsPerW;
}

TEST(PaperClaims, Fig5GeomeanExecutionTimeOverBgf)
{
    const TimingModel timing;
    const DeviceModel tpu = tpuV1();
    const double tpuOverBgf = geomeanOverWorkloads([&](const Workload &w) {
        return timing.digitalTime(tpu, w).total() /
               timing.bgfTime(w).total();
    });
    const double gsOverBgf = geomeanOverWorkloads([&](const Workload &w) {
        return timing.gsTime(tpu, w).total() / timing.bgfTime(w).total();
    });
    // Paper: BGF is 29x faster than the TPU and 14.5x faster than GS.
    EXPECT_LE(relativeGap(tpuOverBgf, 29.0), 0.05) << tpuOverBgf;
    EXPECT_LE(relativeGap(gsOverBgf, 14.5), 0.10) << gsOverBgf;
}

TEST(PaperClaims, Fig6GeomeanEnergyOverBgf)
{
    const TimingModel timing;
    const EnergyModel energy(timing);
    const DeviceModel tpu = tpuV1();
    const double tpuOverBgf = geomeanOverWorkloads([&](const Workload &w) {
        return energy.digitalEnergy(tpu, w).total() /
               energy.bgfEnergy(w).total();
    });
    // Paper: "~1000x" with no finer figure; the model lands at about
    // 1660x, so the claim held is the order of magnitude, within 2x.
    EXPECT_GE(tpuOverBgf, 1000.0 / 2.0) << tpuOverBgf;
    EXPECT_LE(tpuOverBgf, 1000.0 * 2.0) << tpuOverBgf;
}
