/**
 * @file
 * Behavioral models of the analog circuit blocks from Appendix B.
 *
 * Each class models the transfer characteristic of one circuit at the
 * level the paper's Matlab behavioral models operate: ideal math plus
 * the dominant circuit non-ideality.
 *
 *  - SigmoidUnit    (Fig. 13a): differential-to-single-ended amplifier
 *                   whose low-gain transfer curve approximates the
 *                   logistic function; gain tunes c1, common-mode
 *                   tunes c2, plus soft output-rail compression.
 *  - DiodeRng       (Fig. 13b): amplified diode thermal noise producing
 *                   a random comparison level around Vcm.
 *  - Comparator     (Fig. 13c): dynamic comparator with input-referred
 *                   offset; together with DiodeRng it turns an analog
 *                   probability voltage into a Bernoulli bit.
 *  - Dtc / Adc      : 8-bit input and readout converters (Sec. 4.1).
 *  - ChargePump     (Fig. 14): the BGF training circuit; transfers a
 *                   small, slightly state-dependent charge packet onto
 *                   the coupler gate per update event.
 */

#ifndef ISINGRBM_ISING_COMPONENTS_HPP
#define ISINGRBM_ISING_COMPONENTS_HPP

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace ising::machine {

/** Amplifier-based logistic approximation (Appendix B.2). */
class SigmoidUnit
{
  public:
    /**
     * @param gain        c1: slope of the transfer curve
     * @param offset      c2: input offset (center of the transition)
     * @param railCompress strength of soft clipping near the rails;
     *                    0 reproduces an ideal logistic exactly
     */
    SigmoidUnit(double gain = 1.0, double offset = 0.0,
                double railCompress = 0.05);

    /** Output probability voltage (normalized to [0, 1]) for input x. */
    double transfer(double x) const;

    double gain() const { return gain_; }
    double offset() const { return offset_; }

  private:
    double gain_;
    double offset_;
    double railCompress_;
};

/** Diode thermal-noise random level generator (Appendix B.3). */
class DiodeRng
{
  public:
    /**
     * @param amplitude  amplified noise sigma, normalized so that the
     *                   comparison level spans ~[0, 1] around 0.5
     */
    explicit DiodeRng(double amplitude = 0.29);

    /**
     * Draw one comparison level in [0, 1].  The physical level is
     * Vcm + A*noise with Gaussian noise, clipped by the supply; a
     * Gaussian-CDF shaped level distribution is the behavioral
     * consequence.  amplitude ~0.29 makes the induced sampling law
     * close to uniform, mirroring the circuit calibration.
     */
    double level(util::Rng &rng) const;

  private:
    double amplitude_;
};

/** Dynamic comparator with input-referred offset (Appendix B.3). */
class Comparator
{
  public:
    explicit Comparator(double offsetSigma = 0.0);

    /**
     * Compare probability voltage p against a random level; returns
     * the latched bit.  Static offset is drawn once per instance to
     * model per-node device mismatch.
     */
    bool fire(double p, double level) const;

    /** Materialize the per-device offset from process variation. */
    void calibrateOffset(util::Rng &rng);

  private:
    double offsetSigma_;
    double offset_ = 0.0;
};

/** Digital-to-time (input) converter: quantizes clamp levels. */
class Dtc
{
  public:
    explicit Dtc(int bits = 8);

    /** Quantize an input in [0, 1] to the converter's resolution. */
    double convert(double x) const;

    int bits() const { return bits_; }

  private:
    int bits_;
    double levels_;
};

/** Analog-to-digital readout converter for trained weights. */
class Adc
{
  public:
    /**
     * @param bits   resolution (paper: 8)
     * @param fullScale symmetric input range [-fullScale, +fullScale]
     */
    Adc(int bits = 8, double fullScale = 1.0);

    /** Quantize a weight voltage; saturates outside the full scale. */
    double convert(double w) const;

    int bits() const { return bits_; }
    double fullScale() const { return fullScale_; }
    /** Quantization step size (LSB). */
    double lsb() const;

  private:
    int bits_;
    double fullScale_;
};

/** Charge-redistribution training circuit (Appendix B.4, Fig. 14). */
class ChargePump
{
  public:
    /**
     * @param step        nominal delta-W per transfer event (set by the
     *                    Cp:Cgate capacitor ratio)
     * @param wMax        gate-voltage headroom: |W| saturates here
     * @param nonlinearity how strongly the packet shrinks as the gate
     *                    approaches a rail (charge-redistribution makes
     *                    the transferred charge depend on Vgate)
     */
    ChargePump(double step = 1e-3, double wMax = 1.0,
               double nonlinearity = 0.5);

    /**
     * Apply one update event to weight w.
     *
     * @param w         current weight (gate voltage, normalized)
     * @param direction +1 increments (positive phase), -1 decrements
     * @param gain      per-coupler static variation multiplier
     * @return          the new weight value
     *
     * Implements the paper's f_ij(.) in Eq. 12: the realized step is
     * step * gain * (1 - nonlinearity * |w| / wMax), saturating at
     * +-wMax.
     */
    double apply(double w, int direction, double gain) const;

    /**
     * apply() across a row of @p n couplers: w[j] moves iff
     * fire[j] > 0.5, with gain[j] (1 when @p gain is null).  Every
     * coupler is computed and the inactive ones are kept, so the loop
     * is contiguous and branch-free; each moved value is the one
     * apply() returns.
     */
    void applyRow(float *w, const float *gain, const float *fire,
                  std::size_t n, int direction) const;

    double step() const { return step_; }
    double wMax() const { return wMax_; }

  private:
    double step_;
    double wMax_;
    double nonlinearity_;
};

} // namespace ising::machine

#endif // ISINGRBM_ISING_COMPONENTS_HPP
