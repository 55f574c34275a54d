/* The compiled kernels of kurtdeconv, loaded by kurtdeconv._native.
 *
 * Built without -ffast-math and with -ffp-contract=off, so no sum is
 * reordered and no multiply-add is fused: each function runs the operations
 * of its reference in the tests (the adapt_step oracle, np.cumsum, lfilter,
 * ndimage.correlate) in the same order, but for kd_surface_moments, whose
 * sums are held to their numpy reference within rounding.
 */
#include <math.h>
#include <stddef.h>

/* Two doubles, one a lane: the vector extension of GCC and Clang, which the
 * build already assumes of cc (-ffp-contract=off). Each lane rounds as the
 * scalar operation does, and the flag keeps its multiplies and adds apart. */
typedef double pair __attribute__((vector_size(16)));

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
 * Runs rows warmup..n-1 of the regressor walk over P: row r starts at
 * base(r) = (r / width) * stride + r % width, and its element j is
 * P[base(r) + off[j]], so the rows walk width elements of a line and then
 * jump to the next line, stride elements on. The k coefficients h and the
 * moment estimates m = {m2, m4} are updated in place. Returns -1, or the
 * first row after whose update a coefficient exceeds limit in magnitude or
 * is NaN; h and m are then as that row left them. The caller keeps every
 * read inside P (kurtdeconv._native.adapt_pass checks it).
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
 * NaN or infinite tap leaves it NaN or infinite.
 *
 * The sweep takes two taps a step, one a lane of a pair: the update, the
 * store of the taps, the squares and the products v * w run in the lanes,
 * each lane the scalar operations of its tap, and y adds the two products
 * of a step in tap order, from 0.0. An odd count of taps takes tap 0 in a
 * scalar step first, so that y's chain of adds starts while g is still
 * being copied into both lanes. So only the screen sums in another order:
 * each lane sums the squares of its own taps, and the sum of the two lanes
 * is added to tap 0's square. Each lane's sum never decreases either, and
 * neither does a sum of nonnegative sums, so the total is at least the
 * lane sum of any tap and the screen still misses no tap over the limit
 * and no NaN. A limit exceeded in the sweep of row r is the update of row
 * r - 1, whose moments m still holds.
 *
 * A direct test !(|v| <= limit) in the lanes, in place of the screen, keeps
 * every bit too, but at k = 201 it took 356-362 ns per update against the
 * screen's 154-157 ns, and it gained nothing at k = 3 or 3 x 3 (one pass
 * over the perfbench inputs, best of 7, on a 2-vCPU Xeon).
 */
ptrdiff_t kd_adapt_pass(const double *P, const ptrdiff_t *off, ptrdiff_t width, ptrdiff_t stride,
                        ptrdiff_t warmup, ptrdiff_t n, ptrdiff_t k, double *h, double *m, double mu,
                        double beta, double guard, double limit)
{
    double m2 = m[0], m4 = m[1];
    const double omb = 1.0 - beta, limit2 = limit * limit;
    const double *u = NULL; /* the row whose update g * u is held, if any */
    double g = 0.0;
    ptrdiff_t failed = -1;
    ptrdiff_t line = warmup / width * stride, col = warmup % width;
    for (ptrdiff_t r = warmup; r < n; r++) {
        const double *w = P + line + col;
        double y = 0.0;
        if (u) {
            pair sq = {0.0, 0.0};
            double ss = 0.0;
            ptrdiff_t j = 0;
            if (k % 2) {
                const double v = h[0] + g * u[off[0]];
                h[0] = v;
                ss = v * v;
                y += v * w[off[0]];
                j = 1;
            }
            for (; j < k; j += 2) {
                const ptrdiff_t a = off[j], b = off[j + 1];
                const pair v = (pair){h[j], h[j + 1]} + g * (pair){u[a], u[b]};
                const pair p = v * (pair){w[a], w[b]};
                h[j] = v[0];
                h[j + 1] = v[1];
                sq += v * v;
                y += p[0];
                y += p[1];
            }
            ss += sq[0] + sq[1];
            u = NULL;
            if (!(ss < limit2) && over_limit(h, k, limit)) {
                failed = r - 1;
                break;
            }
        } else {
            for (ptrdiff_t j = 0; j < k; j++)
                y += h[j] * w[off[j]];
        }
        const double y2 = y * y;
        m2 = beta * m2 + omb * y2;
        m4 = beta * m4 + omb * y2 * y2;
        if (m2 > guard) {
            g = mu * (4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2));
            u = w;
        }
        if (++col == width) {
            col = 0;
            line += stride;
        }
    }
    if (u) {
        for (ptrdiff_t j = 0; j < k; j++)
            h[j] += g * u[off[j]];
        if (over_limit(h, k, limit))
            failed = n - 1;
    }
    m[0] = m2;
    m[1] = m4;
    return failed;
}

/* The running sums of kurtdeconv._native.integrate over the h x w row-major
 * field f, each divided by d: down the columns, in place in f (row x
 * becomes f(x) + f(x-1), in order of x), then along each row into g, as
 * np.cumsum(np.cumsum(f, axis=0), axis=1) / d makes them. Each row is
 * summed down just before it is summed along, and the unscaled row sum
 * stays in a register.
 */
void kd_integrate(double *restrict f, double *restrict g, ptrdiff_t h, ptrdiff_t w, double d)
{
    for (ptrdiff_t x = 0; x < h; x++) {
        double *row = f + x * w, *out = g + x * w;
        if (x > 0)
            for (ptrdiff_t y = 0; y < w; y++)
                row[y] += row[y - w];
        double s = row[0];
        out[0] = s / d;
        for (ptrdiff_t y = 1; y < w; y++) {
            s += row[y];
            out[y] = s / d;
        }
    }
}

/* The echo recursion of kurtdeconv._native.allpole:
 *
 *     y(i) = x(i) + ((0.0 + a2 y(i - 2d)) + a1 y(i - d)),   d >= 1,
 *
 * over n samples with zero initial state: a term whose sample precedes
 * sample 0 is left out, and the 0.0 stays. These are the operations of
 * lfilter's direct form II transposed for the lags 2d and d, in its order,
 * less its products 0 * x, which can change only the sign of a zero
 * output. y(i - 1) is read from a register when d = 1, not back from y.
 * The caller keeps 1 <= d <= n, so 2d cannot overflow.
 */
void kd_allpole(const double *restrict x, double *restrict y, ptrdiff_t n, ptrdiff_t d, double a1, double a2)
{
    double last = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double acc = 0.0;
        if (i >= 2 * d)
            acc += a2 * y[i - 2 * d];
        if (i >= d)
            acc += a1 * (d == 1 ? last : y[i - d]);
        y[i] = last = x[i] + acc;
    }
}

/* The raster recursion of kurtdeconv._native.image_allpole over the h x w
 * row-major image f, into g:
 *
 *     g(x, y) = ((f(x, y) + a1 g(x-1, y)) + a3 g(x-1, y-1)) + (0.0 + a2 g(x, y-1)),
 *
 * row x - 1 read as zeros in row 0; column 0 leaves out the a3 term and
 * adds only the 0.0 of the last one. g(x, y-1) is read from a register.
 */
void kd_image_allpole(const double *restrict f, double *restrict g, ptrdiff_t h, ptrdiff_t w, double a1, double a2,
                      double a3)
{
    for (ptrdiff_t x = 0; x < h; x++) {
        const double *in = f + x * w;
        double *out = g + x * w;
        const double *up = x > 0 ? out - w : NULL;
        double left = 0.0;
        for (ptrdiff_t y = 0; y < w; y++) {
            double c = in[y] + a1 * (x > 0 ? up[y] : 0.0);
            double acc = 0.0;
            if (y > 0) {
                c += a3 * (x > 0 ? up[y - 1] : 0.0);
                acc += a2 * left;
            }
            out[y] = left = c + acc;
        }
    }
}

/* The filter of kurtdeconv._native.filter_walk, every FIR and kernel filter
 * of kurtdeconv: out[r] is the sum, from 0.0 and in tap order (the order of
 * kd_adapt_pass's y), of h[j] * P[base(r) + off[j]] over the k taps, for the
 * n rows of the regressor walk of kd_adapt_pass, n a multiple of width.
 * Eight neighbouring rows of a line, two a pair in four pairs, share each
 * tap's broadcast; each row is summed in its own lane, from 0.0 over the
 * taps in order. The last width % 8 rows of a line are summed one at a
 * time.
 */
void kd_filter_walk(const double *restrict P, const ptrdiff_t *restrict off, ptrdiff_t width, ptrdiff_t stride,
                    ptrdiff_t n, const double *restrict h, ptrdiff_t k, double *restrict out)
{
    for (ptrdiff_t r = 0, line = 0; r < n; r += width, line += stride) {
        ptrdiff_t c = 0;
        for (; c + 8 <= width; c += 8) {
            pair y0 = {0.0, 0.0}, y1 = {0.0, 0.0}, y2 = {0.0, 0.0}, y3 = {0.0, 0.0};
            for (ptrdiff_t j = 0; j < k; j++) {
                const double *w = P + line + c + off[j];
                const pair t = {h[j], h[j]};
                y0 += t * (pair){w[0], w[1]};
                y1 += t * (pair){w[2], w[3]};
                y2 += t * (pair){w[4], w[5]};
                y3 += t * (pair){w[6], w[7]};
            }
            double *o = out + r + c;
            o[0] = y0[0];
            o[1] = y0[1];
            o[2] = y1[0];
            o[3] = y1[1];
            o[4] = y2[0];
            o[5] = y2[1];
            o[6] = y3[0];
            o[7] = y3[1];
        }
        for (; c < width; c++) {
            double y = 0.0;
            for (ptrdiff_t j = 0; j < k; j++)
                y += h[j] * P[line + c + off[j]];
            out[r + c] = y;
        }
    }
}

/* The difference basis w0, w0 - w1 and (w0 - w1) - (w1 - w2) of two rows
 * of kd_surface_moments' walk into b, one row a lane, wj the element at
 * off[j]: rows base and base + 1 of w when fill is NULL, else row base and
 * then fill. */
static inline void basis(const double *w, const ptrdiff_t *off, const double *fill, pair b[3])
{
    const int two = !fill;
    const pair w0 = {w[off[0]], two ? w[off[0] + 1] : 0.0}, w1 = {w[off[1]], two ? w[off[1] + 1] : 0.0},
               w2 = {w[off[2]], two ? w[off[2] + 1] : 0.0};
    b[0] = w0;
    b[1] = w0 - w1;
    b[2] = b[1] - (w1 - w2);
    if (fill)
        for (int k = 0; k < 3; k++)
            b[k][1] = fill[k];
}

/* Rows a block of kd_surface_moments' sums takes, two a step. */
#define BLOCK 128

/* Adds the k block sums acc into the lanes of total and clears them. */
static inline void flush(pair *total, pair *acc, int k)
{
    for (int i = 0; i < k; i++) {
        total[i] += acc[i];
        acc[i] = (pair){0.0, 0.0};
    }
}

/* The factorization of kurtdeconv.adapt.kurtosis_surface over the n rows of
 * a 3-offset walk (the walk of kd_adapt_pass): row r gives the difference
 * basis c = (w0, w0 - w1, (w0 - w1) - (w1 - w2)) of its elements wj =
 * P[base(r) + off[j]], c - mean its centred value.
 *
 * Pass 1 sums d = c - c0 and its outer products, c0 the first row's c
 * with its differences taken as zero (their sums nearly telescope), which
 * gives the mean, c0 + sum(d) / n, and the centred Gram A = sum(d d') -
 * sum(d) sum(d)' / n. A Cholesky factor R (A = R'R, R upper triangular)
 * and its whitening T = R^-T follow; a pivot at or below zero zeroes its
 * row of R and of T, as Gram-Schmidt zeroes a vanished row. Pass 2 sums,
 * for q = T (c - mean), the Gram G = sum(q q'), which rounding alone keeps
 * from the identity (CholeskyQR2 forms R G^(1/2) from it; the caller uses
 * it as it is), and the 15 fourth moments sum(q_p q_q q_r q_s), p <= q <=
 * r <= s in lexicographic order, into M. R and G are 3 x 3, row-major.
 * Both passes take two rows a step, one a lane, and sum BLOCK rows at a
 * time before adding them to the totals, so a term passes through about
 * BLOCK / 2 + n / BLOCK additions, not n / 2. The caller keeps every read
 * inside P and n >= 1 (kurtdeconv._native.surface_moments checks both).
 *
 * Pass 2 does not restart the block count: steps carries on from pass 1,
 * so pass 2's first block is cut short by the steps of pass 1's last one,
 * and where each of its blocks starts depends on pass 1's step count.
 * Resetting steps between the passes moves bits of G and M, and so of the
 * surface, once: on inputs shaped as perfbench's audio_ar2 workload's, at
 * n = 100,000 and 20,000 (the argmax unchanged), but not at n = 128, where
 * pass 1 ends on a block boundary.
 */
void kd_surface_moments(const double *P, const ptrdiff_t *off, ptrdiff_t width, ptrdiff_t stride, ptrdiff_t n,
                        double *R, double *G, double *M)
{
    /* where entry (i, j) of a symmetric 3 x 3 matrix is among six sums */
    static const int upper[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
    const double c0[3] = {P[off[0]], 0.0, 0.0};
    /* pass 1: sum(d), then the six sums of d d' in upper's order; each pass
     * keeps its block sums in an array of its own, which the compiler can
     * hold in registers */
    pair a[9] = {{0.0, 0.0}}, total[21] = {{0.0, 0.0}};
    int steps = 0;
    for (ptrdiff_t first = 0, line = 0; first < n; first += width, line += stride) {
        const ptrdiff_t end = first + width < n ? first + width : n;
        for (ptrdiff_t r = first; r < end; r += 2) {
            pair d[3];
            basis(P + line + (r - first), off, r + 1 < end ? NULL : c0, d);
            d[0] -= c0[0]; /* c0's differences are zero */
            a[0] += d[0];
            a[1] += d[1];
            a[2] += d[2];
            a[3] += d[0] * d[0];
            a[4] += d[0] * d[1];
            a[5] += d[0] * d[2];
            a[6] += d[1] * d[1];
            a[7] += d[1] * d[2];
            a[8] += d[2] * d[2];
            if (++steps == BLOCK / 2) {
                flush(total, a, 9);
                steps = 0;
            }
        }
    }
    flush(total, a, 9);
    double sum[9], mean[3], T[3][3] = {{0.0}};
    for (int k = 0; k < 9; k++)
        sum[k] = total[k][0] + total[k][1];
    for (int k = 0; k < 3; k++)
        mean[k] = c0[k] + sum[k] / n;
    for (int k = 0; k < 9; k++)
        R[k] = 0.0;
    for (int k = 0; k < 3; k++) {
        double pivot = sum[3 + upper[k][k]] - sum[k] * sum[k] / n;
        for (int i = 0; i < k; i++)
            pivot -= R[3 * i + k] * R[3 * i + k];
        if (!(pivot > 0.0))
            continue;
        const double rkk = sqrt(pivot);
        R[4 * k] = rkk;
        for (int j = k + 1; j < 3; j++) {
            double e = sum[3 + upper[k][j]] - sum[k] * sum[j] / n;
            for (int i = 0; i < k; i++)
                e -= R[3 * i + k] * R[3 * i + j];
            R[3 * k + j] = e / rkk;
        }
        /* row k of T, so that q_k = (c_k - sum_i<k R[i][k] q_i) / R[k][k] */
        for (int j = 0; j <= k; j++) {
            double t = j == k ? 1.0 : 0.0;
            for (int i = j; i < k; i++)
                t -= R[3 * i + k] * T[i][j];
            T[k][j] = t / rkk;
        }
    }
    for (int k = 0; k < 9; k++)
        total[k] = (pair){0.0, 0.0};
    pair b[21] = {{0.0, 0.0}};
    pair *const g = b, *const m = b + 6; /* pass 2: the six sums of G, then the 15 of M */
    for (ptrdiff_t first = 0, line = 0; first < n; first += width, line += stride) {
        const ptrdiff_t end = first + width < n ? first + width : n;
        for (ptrdiff_t r = first; r < end; r += 2) {
            pair c[3];
            basis(P + line + (r - first), off, r + 1 < end ? NULL : mean, c);
            for (int k = 0; k < 3; k++)
                c[k] -= mean[k];
            const pair q0 = T[0][0] * c[0];
            const pair q1 = T[1][0] * c[0] + T[1][1] * c[1];
            const pair q2 = (T[2][0] * c[0] + T[2][1] * c[1]) + T[2][2] * c[2];
            const pair p00 = q0 * q0, p01 = q0 * q1, p02 = q0 * q2, p11 = q1 * q1, p12 = q1 * q2, p22 = q2 * q2;
            g[0] += p00;
            g[1] += p01;
            g[2] += p02;
            g[3] += p11;
            g[4] += p12;
            g[5] += p22;
            m[0] += p00 * p00;
            m[1] += p00 * p01;
            m[2] += p00 * p02;
            m[3] += p00 * p11;
            m[4] += p00 * p12;
            m[5] += p00 * p22;
            m[6] += p01 * p11;
            m[7] += p01 * p12;
            m[8] += p01 * p22;
            m[9] += p02 * p22;
            m[10] += p11 * p11;
            m[11] += p11 * p12;
            m[12] += p11 * p22;
            m[13] += p12 * p22;
            m[14] += p22 * p22;
            if (++steps == BLOCK / 2) {
                flush(total, b, 21);
                steps = 0;
            }
        }
    }
    flush(total, b, 21);
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++)
            G[3 * i + j] = total[upper[i][j]][0] + total[upper[i][j]][1];
    for (int k = 0; k < 15; k++)
        M[k] = total[6 + k][0] + total[6 + k][1];
}
