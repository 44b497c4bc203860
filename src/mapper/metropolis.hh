/**
 * @file
 * The anneal's Metropolis acceptance test, decided without exp()
 * wherever cheap certified bounds already settle it.
 *
 * An uphill move of cost @p delta at temperature @p temp is accepted
 * iff u < exp(-delta / temp) for a uniform draw u. For y = delta/temp
 * >= 0, Taylor's theorem (Lagrange remainder) brackets the
 * exponential for every y:
 *
 *   L(y) = 1 - y + y^2/2 - y^3/6 + y^4/24 - y^5/120  <=  exp(-y)
 *   exp(-y)  <=  1 / P(y),  P(y) = sum_{k=0..4} y^k / k!
 *
 * u above 1/P (by a margin) rejects — most uphill moves end
 * there — u below L (by a margin) accepts, and only a draw in the
 * thin band between them calls std::exp. The margin, 1e-12, exceeds
 * the rounding error of evaluating L, P and u*P in doubles (a few
 * ulps, ~1e-15) plus std::exp's own error (under an ulp) by three
 * orders of magnitude, so every decision equals
 * `u < std::exp(-delta / temp)` exactly: the RNG stream, the
 * accepted moves and the mapping are unchanged. y is the same
 * double std::exp would see, since -delta/temp == -(delta/temp) in
 * IEEE arithmetic.
 */

#ifndef PIPESTITCH_MAPPER_METROPOLIS_HH
#define PIPESTITCH_MAPPER_METROPOLIS_HH

#include <cmath>

namespace pipestitch::mapper {

/** Exactly `u < std::exp(-delta / temp)`, for delta >= 0 and
 *  temp > 0. */
inline bool
metropolisAccepts(double u, double delta, double temp)
{
    constexpr double kMargin = 1e-12;
    const double y = delta / temp;
    // All of P's terms are positive: its relative rounding error is
    // a few ulps at any y. Both bounds are evaluated in Estrin's
    // form, which halves the dependent multiply-add chain of
    // Horner's.
    const double y2 = y * y;
    const double upper = (1 + y) + y2 * (1.0 / 2 + y * (1.0 / 6)) +
                         y2 * y2 * (1.0 / 24);
    if (u * upper >= 1 + kMargin)
        return false;
    // L(y) is only positive below y ~ 2.2, where its terms stay
    // under 2.5: its absolute rounding error is ~1e-15 there.
    const double lower = (1 - y) + y2 * (1.0 / 2 - y * (1.0 / 6)) +
                         y2 * y2 * (1.0 / 24 - y * (1.0 / 120));
    if (u < lower - kMargin)
        return true;
    return u < std::exp(-delta / temp);
}

} // namespace pipestitch::mapper

#endif // PIPESTITCH_MAPPER_METROPOLIS_HH
