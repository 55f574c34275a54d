/* The compiled kernels of kurtdeconv, loaded by kurtdeconv._native.
 *
 * Built without -ffast-math and with -ffp-contract=off, so no sum is
 * reordered and no multiply-add is fused: each function runs the operations
 * of its Python loop in the same order.
 */
#include <math.h>
#include <stddef.h>

/* One pass of the kurtosis-gradient recursion of kurtdeconv.adapt1d._adapt.
 *
 * Runs rows warmup..n-1 of the regressor matrix X, whose element (r, j)
 * sits at X[r * s0 + j * s1] (strides in elements, either sign), over the
 * k coefficients h and the moment estimates m = {m2, m4}, both updated in
 * place. Returns -1, or the first row after whose update a coefficient
 * exceeds limit in magnitude or is NaN.
 */
ptrdiff_t kd_adapt_pass(const double *X, ptrdiff_t s0, ptrdiff_t s1, ptrdiff_t warmup, ptrdiff_t n,
                        ptrdiff_t k, double *h, double *m, double mu, double beta, double guard,
                        double limit)
{
    double m2 = m[0], m4 = m[1];
    const double omb = 1.0 - beta;
    ptrdiff_t failed = -1;
    for (ptrdiff_t r = warmup; r < n && failed < 0; r++) {
        const double *w = X + r * s0;
        double y = 0.0;
        for (ptrdiff_t j = 0; j < k; j++)
            y += h[j] * w[j * s1];
        const double y2 = y * y;
        m2 = beta * m2 + omb * y2;
        m4 = beta * m4 + omb * y2 * y2;
        if (m2 > guard) {
            const double g = mu * (4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2));
            for (ptrdiff_t j = 0; j < k; j++) {
                h[j] += g * w[j * s1];
                if (!(fabs(h[j]) <= limit))
                    failed = r;
            }
        }
    }
    m[0] = m2;
    m[1] = m4;
    return failed;
}

/* The sparse all-pole recursion of kurtdeconv._native.allpole:
 *
 *     y(i) = x(i) + sum_j c[j] * y(i - lags[j]),   j = 0..k-1,
 *
 * over n samples with zero initial state (terms before sample 0 are left
 * out), the sum taken in the order of lags and x(i) added last.
 */
void kd_allpole(const double *x, double *y, ptrdiff_t n, const ptrdiff_t *lags, const double *c, ptrdiff_t k)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double acc = 0.0;
        for (ptrdiff_t j = 0; j < k; j++)
            if (i >= lags[j])
                acc += c[j] * y[i - lags[j]];
        y[i] = x[i] + acc;
    }
}
