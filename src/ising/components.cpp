/**
 * @file
 * Circuit component behavioral implementations.
 */

#include "ising/components.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/math.hpp"

namespace ising::machine {

SigmoidUnit::SigmoidUnit(double gain, double offset, double railCompress)
    : gain_(gain), offset_(offset), railCompress_(railCompress)
{
}

double
SigmoidUnit::transfer(double x) const
{
    // Ideal logistic at the configured gain/offset.
    const double ideal = util::sigmoid(gain_ * (x - offset_));
    if (railCompress_ <= 0.0)
        return ideal;
    // Soft rail compression: the amplifier cannot quite reach the
    // supply rails, so extreme probabilities are pulled slightly
    // toward the center.  p' = c/2 + (1-c) p.
    return railCompress_ * 0.5 + (1.0 - railCompress_) * ideal;
}

DiodeRng::DiodeRng(double amplitude) : amplitude_(amplitude)
{
}

double
DiodeRng::level(util::Rng &rng) const
{
    const double raw = 0.5 + amplitude_ * rng.gaussian();
    return std::clamp(raw, 0.0, 1.0);
}

Comparator::Comparator(double offsetSigma) : offsetSigma_(offsetSigma)
{
}

void
Comparator::calibrateOffset(util::Rng &rng)
{
    offset_ = offsetSigma_ > 0.0 ? rng.gaussian(0.0, offsetSigma_) : 0.0;
}

bool
Comparator::fire(double p, double level) const
{
    return level < p + offset_;
}

Dtc::Dtc(int bits) : bits_(bits), levels_(std::ldexp(1.0, bits) - 1.0)
{
}

double
Dtc::convert(double x) const
{
    const double clipped = std::clamp(x, 0.0, 1.0);
    return std::round(clipped * levels_) / levels_;
}

Adc::Adc(int bits, double fullScale) : bits_(bits), fullScale_(fullScale)
{
}

double
Adc::lsb() const
{
    return 2.0 * fullScale_ / (std::ldexp(1.0, bits_) - 1.0);
}

double
Adc::convert(double w) const
{
    const double clipped = std::clamp(w, -fullScale_, fullScale_);
    const double q = lsb();
    // Clamp again after rounding: the top code would otherwise land
    // half an LSB beyond the rail.
    return std::clamp(std::round(clipped / q) * q, -fullScale_,
                      fullScale_);
}

ChargePump::ChargePump(double step, double wMax, double nonlinearity)
    : step_(step), wMax_(wMax), nonlinearity_(nonlinearity)
{
}

double
ChargePump::apply(double w, int direction, double gain) const
{
    const double shrink =
        1.0 - nonlinearity_ * std::min(1.0, std::fabs(w) / wMax_);
    const double delta = step_ * gain * shrink * direction;
    return std::clamp(w + delta, -wMax_, wMax_);
}

void
ChargePump::applyRow(float *w, const float *gain, const float *fire,
                     std::size_t n, int direction) const
{
    // The keep is a bitwise select: `fire ? moved : w[j]` compiles to
    // a conditional store, which does not vectorize.
    const auto row = [&](auto gainOf) {
        for (std::size_t j = 0; j < n; ++j) {
            const float moved =
                static_cast<float>(apply(w[j], direction, gainOf(j)));
            const std::uint32_t keep = fire[j] > 0.5f ? 0u : ~0u;
            w[j] = std::bit_cast<float>(
                (std::bit_cast<std::uint32_t>(moved) & ~keep) |
                (std::bit_cast<std::uint32_t>(w[j]) & keep));
        }
    };
    if (gain)
        row([gain](std::size_t j) { return static_cast<double>(gain[j]); });
    else
        row([](std::size_t) { return 1.0; });
}

} // namespace ising::machine
