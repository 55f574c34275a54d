/* The compiled kernels of kurtdeconv, loaded by kurtdeconv._native.
 *
 * Built without -ffast-math and with -ffp-contract=off, so no sum is
 * reordered and no multiply-add is fused: each function runs the operations
 * of its Python loop in the same order.
 */
#include <math.h>
#include <stddef.h>

/* Nonzero when some |h[j]|, j < k, exceeds limit or is NaN. */
static int over_limit(const double *h, ptrdiff_t k, double limit)
{
    for (ptrdiff_t j = 0; j < k; j++)
        if (!(fabs(h[j]) <= limit))
            return 1;
    return 0;
}

/* One pass of the kurtosis-gradient recursion of kurtdeconv.adapt._adapt.
 *
 * Runs rows warmup..n-1 of the regressor matrix X, whose element (r, j)
 * sits at X[r * s0 + j * s1] (strides in elements, either sign), over the
 * k coefficients h and the moment estimates m = {m2, m4}, both updated in
 * place. Returns -1, or the first row after whose update a coefficient
 * exceeds limit in magnitude or is NaN; h and m are then as that row left
 * them.
 *
 * Each row costs one sweep over the taps. The update g * u computed at row
 * r (u = row r) is held until the sweep of row r + 1, which adds it to
 * each tap just before that tap enters the output sum, and the update of
 * the last row is applied after the loop. Every tap and output therefore
 * goes through the same operations in the same order as when the update
 * is applied in a sweep of its own. The same sweep sums the squares of
 * the new taps, and only a sum of at least limit^2 (or NaN) runs the exact
 * per-tap test. That screen misses nothing: partial sums of nonnegative
 * terms never decrease under round-to-nearest, so a tap with
 * |h_j| > limit leaves the sum at or above fl(h_j^2) >= fl(limit^2), and a
 * NaN or infinite tap leaves it NaN or infinite. A limit exceeded in the
 * sweep of row r is the update of row r - 1, whose moments m still holds.
 */
ptrdiff_t kd_adapt_pass(const double *X, ptrdiff_t s0, ptrdiff_t s1, ptrdiff_t warmup, ptrdiff_t n,
                        ptrdiff_t k, double *h, double *m, double mu, double beta, double guard,
                        double limit)
{
    double m2 = m[0], m4 = m[1];
    const double omb = 1.0 - beta, limit2 = limit * limit;
    const double *u = NULL; /* the row whose update g * u is held, if any */
    double g = 0.0;
    ptrdiff_t failed = -1;
    for (ptrdiff_t r = warmup; r < n; r++) {
        const double *w = X + r * s0;
        double y = 0.0;
        if (u) {
            double ss = 0.0;
            for (ptrdiff_t j = 0; j < k; j++) {
                const double v = h[j] + g * u[j * s1];
                h[j] = v;
                ss += v * v;
                y += v * w[j * s1];
            }
            u = NULL;
            if (!(ss < limit2) && over_limit(h, k, limit)) {
                failed = r - 1;
                break;
            }
        } else {
            for (ptrdiff_t j = 0; j < k; j++)
                y += h[j] * w[j * s1];
        }
        const double y2 = y * y;
        m2 = beta * m2 + omb * y2;
        m4 = beta * m4 + omb * y2 * y2;
        if (m2 > guard) {
            g = mu * (4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2));
            u = w;
        }
    }
    if (u) {
        for (ptrdiff_t j = 0; j < k; j++)
            h[j] += g * u[j * s1];
        if (over_limit(h, k, limit))
            failed = n - 1;
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

/* The raster recursion of kurtdeconv._native.image_allpole over the h x w
 * row-major image f, into g:
 *
 *     g(x, y) = ((f(x, y) + a1 g(x-1, y)) + a3 g(x-1, y-1)) + (0.0 + a2 g(x, y-1)),
 *
 * row x - 1 read as zeros in row 0; column 0 leaves out the a3 term and
 * adds only the 0.0 of the last one.
 */
void kd_image_allpole(const double *f, double *g, ptrdiff_t h, ptrdiff_t w, double a1, double a2, double a3)
{
    for (ptrdiff_t x = 0; x < h; x++) {
        const double *in = f + x * w;
        double *out = g + x * w;
        const double *up = x > 0 ? out - w : NULL;
        for (ptrdiff_t y = 0; y < w; y++) {
            double c = in[y] + a1 * (x > 0 ? up[y] : 0.0);
            double acc = 0.0;
            if (y > 0) {
                c += a3 * (x > 0 ? up[y - 1] : 0.0);
                acc += a2 * out[y - 1];
            }
            out[y] = c + acc;
        }
    }
}
