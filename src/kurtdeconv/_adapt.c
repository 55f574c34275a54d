/* The compiled kernels of kurtdeconv, loaded by kurtdeconv._native.
 *
 * Built without -ffast-math and with -ffp-contract=off, so no sum is
 * reordered and no multiply-add is fused: each function runs the operations
 * of its reference in the tests (the adapt_step oracle, np.cumsum, lfilter,
 * ndimage.correlate) in the same order, but for kd_surface_moments, whose
 * sums are held to their numpy reference within rounding. kd_adapt_pass
 * sums each output in one order at every tap count, an odd count's tap 0
 * first and then four lanes (output()); below AHEAD_BELOW taps it forms
 * each output one row ahead (pass_ahead), and its oracle forms it in the
 * same order.
 *
 * The flags target no CPU beyond the compiler's default. Two functions are
 * built for more, with target("avx2") (no FMA), and run only where the CPU
 * has AVX2: pass_quads, kd_adapt_pass's sweep of a 1-D walk as contiguous
 * runs in four-lane vectors, and filter_quads, kd_filter_walk's loop over
 * sixteen rows a block. Elsewhere the offset-table sweep runs, as it does
 * for 2-D kernels, and the filter takes eight rows a block. The quads'
 * lanes hold the reference's terms, in reverse in the sweep, and a
 * two-operand add gives the same bits either way round, so they run the
 * same operations too. gcc's SSE2 lowering of four-lane vectors was slower
 * than the table (kd_adapt_pass says more).
 */
#include <math.h>
#include <stddef.h>
#include <string.h>

/* Two doubles, one a lane: the vector extension of GCC and Clang, which the
 * build already assumes of cc (-ffp-contract=off). Each lane rounds as the
 * scalar operation does, and the flag keeps its multiplies and adds apart. */
typedef double pair __attribute__((vector_size(16)));

/* Four doubles, one a lane. Only the functions built for AVX2 compute in
 * them, and no function takes or returns one: without AVX a 32-byte vector
 * has no fixed calling convention (gcc's -Wpsabi). */
typedef double quad __attribute__((vector_size(32)));

/* Nonzero when some |h[j]|, j < k, exceeds limit or is NaN. */
static int over_limit(const double *h, ptrdiff_t k, double limit)
{
    for (ptrdiff_t j = 0; j < k; j++)
        if (!(fabs(h[j]) <= limit))
            return 1;
    return 0;
}

/* The largest |x[i]|, i < n (0.0 when n <= 0), or NaN when one is NaN.
 * Each lane of two quads keeps the largest magnitude among its own
 * elements, or the first NaN (two chains, as each step waits on a compare
 * and a blend); the eight lanes and the last n % 8 elements are then
 * folded in one at a time. */
static inline __attribute__((always_inline)) double peak(const double *x, ptrdiff_t n)
{
    typedef long long mask __attribute__((vector_size(32)));
    const mask sign = (mask)(quad){-0.0, -0.0, -0.0, -0.0};
    quad m0 = {0.0, 0.0, 0.0, 0.0}, m1 = m0;
    ptrdiff_t i = 0;
    for (; i + 8 <= n; i += 8) {
        quad a, b;
        memcpy(&a, x + i, sizeof a);
        memcpy(&b, x + i + 4, sizeof b);
        a = (quad)((mask)a & ~sign);
        b = (quad)((mask)b & ~sign);
        const mask ta = (a > m0) | (a != a), tb = (b > m1) | (b != b);
        m0 = (quad)(((mask)a & ta) | ((mask)m0 & ~ta));
        m1 = (quad)(((mask)b & tb) | ((mask)m1 & ~tb));
    }
    double lanes[8], m = 0.0;
    memcpy(lanes, &m0, sizeof m0);
    memcpy(lanes + 4, &m1, sizeof m1);
    for (int l = 0; l < 8; l++)
        if (lanes[l] > m || lanes[l] != lanes[l])
            m = lanes[l];
    for (; i < n; i++) {
        const double a = fabs(x[i]);
        if (a > m || a != a)
            m = a;
    }
    return m;
}

/* The fewest taps whose output kd_adapt_pass forms directly, the held update
 * swept into the taps first. Below it each output is formed one row ahead
 * (pass_ahead), so that the sweep runs beside the path of g instead of
 * before it: over the perfbench inputs 3 x 3 took 20.6-26.1 ns per update
 * against 30.0-36.5, 3 taps 21.1-23.7 against 26.6-30.7 and 16 taps (over
 * audio_echo's walk) 23.2-39.2 against 32.2-36.3 (best of 7, 10
 * alternations, 2-vCPU Xeon). Formed ahead over runs at 201 taps, y took
 * 78 ns against 70 (medians) and audio_echo 169 ms against 151, as there
 * the sweep's vector operations bound a row, not g. It is also the fewest
 * taps from which a 1-D walk's rows are swept as runs: over audio_echo's
 * walk, quads against the offset table took 2 ns more per update at 16
 * taps, the same at 19 and 20, and 1-3 ns less from 21 (one pass, best of
 * 7, 11 alternations, 2-vCPU Xeon). */
#define AHEAD_BELOW 20

/* The output sum of kd_adapt_pass over the k terms t(j) = h[j] * w[off[j]]
 * of a row whose taps take no update; the sweeps sum their products in the
 * same order at every k (the products of two rows too, below AHEAD_BELOW
 * taps):
 *
 *   - an odd count adds t(0) to 0.0 first, in a scalar step;
 *   - the rest go four at a time into the lanes of two pairs, a and c:
 *     taps j and j + 1 into a, j + 2 and j + 3 into c, a leftover two into
 *     a; then y += (a + c)[0] + (a + c)[1].
 */
static double output(const double *h, const ptrdiff_t *off, const double *w, ptrdiff_t k)
{
    double y = 0.0;
    ptrdiff_t j = 0;
    if (k % 2) {
        y += h[0] * w[off[0]];
        j = 1;
    }
    pair a = {0.0, 0.0}, c = {0.0, 0.0};
    for (; j + 4 <= k; j += 4) {
        a += (pair){h[j], h[j + 1]} * (pair){w[off[j]], w[off[j + 1]]};
        c += (pair){h[j + 2], h[j + 3]} * (pair){w[off[j + 2]], w[off[j + 3]]};
    }
    if (j < k)
        a += (pair){h[j], h[j + 1]} * (pair){w[off[j]], w[off[j + 1]]};
    const pair s = a + c;
    return y + (s[0] + s[1]);
}

/* Taps j and j + 1 of kd_adapt_pass's update sweep, one a lane: each tap
 * takes its held update g * u and is stored, the squares of the new taps
 * are added to sq, and their products with row w are returned. */
static inline pair update(double *h, const ptrdiff_t *off, ptrdiff_t j, double g, const double *u, const double *w,
                          pair *sq)
{
    const ptrdiff_t a = off[j], b = off[j + 1];
    const pair v = (pair){h[j], h[j + 1]} + g * (pair){u[a], u[b]};
    h[j] = v[0];
    h[j + 1] = v[1];
    *sq += v * v;
    return v * (pair){w[a], w[b]};
}

/* The update sweep of kd_adapt_pass over the offset table, k >= AHEAD_BELOW:
 * the taps take the held update g * u, the sum of their squares goes to
 * *ss, and the output y of row w is returned, summed in the order of
 * output(). */
static inline double table_update(double *h, const ptrdiff_t *off, double g, const double *u, const double *w,
                                  ptrdiff_t k, double *ss)
{
    pair sq = {0.0, 0.0}, a = {0.0, 0.0}, c = {0.0, 0.0};
    double y = 0.0, s = 0.0;
    ptrdiff_t j = 0;
    if (k % 2) {
        const double v = h[0] + g * u[off[0]];
        h[0] = v;
        s = v * v;
        y += v * w[off[0]];
        j = 1;
    }
    for (; j + 4 <= k; j += 4) {
        a += update(h, off, j, g, u, w, &sq);
        c += update(h, off, j + 2, g, u, w, &sq);
    }
    if (j < k)
        a += update(h, off, j, g, u, w, &sq);
    const pair t = a + c;
    *ss = s + (sq[0] + sq[1]);
    return y + (t[0] + t[1]);
}

/* Taps j and j + 1 of pass_ahead's sweep, one a lane: the taps take the
 * held update g * u when held (update()), and the products of the taps and
 * of row w with row x are returned, the latter in *e. */
static inline __attribute__((always_inline)) pair ahead_step(double *h, const ptrdiff_t *off, ptrdiff_t j, double g,
                                                             const double *u, const double *w, const double *x,
                                                             pair *sq, pair *e, const int held)
{
    const pair z = {x[off[j]], x[off[j + 1]]};
    *e = (pair){w[off[j]], w[off[j + 1]]} * z;
    return held ? update(h, off, j, g, u, x, sq) : (pair){h[j], h[j + 1]} * z;
}

/* The sweep of pass_ahead, k < AHEAD_BELOW: the taps take the held update
 * g * u when held, the sum of their squares going to *ss, and the outputs
 * output(h, off, x, k) of the new taps and *c = output(w, off, x, k) are
 * returned, both summed as output() sums. */
static inline __attribute__((always_inline)) double ahead_sweep(double *h, const ptrdiff_t *off, double g,
                                                                const double *u, const double *w, const double *x,
                                                                ptrdiff_t k, double *ss, double *c, const int held)
{
    pair sq = {0.0, 0.0}, e;
    double p = 0.0, q = 0.0, s = 0.0;
    ptrdiff_t j = 0;
    if (k % 2) {
        double v = h[0];
        if (held) {
            v += g * u[off[0]];
            h[0] = v;
            s = v * v;
        }
        p += v * x[off[0]];
        q += w[off[0]] * x[off[0]];
        j = 1;
    }
    /* a step adds into a, and a and b then swap, so that the steps alternate
     * between output()'s lanes a and c, a leftover pair into a; whichever
     * of a and b holds c at the end, a + b has the same bits. Over 3 x 3 a
     * loop of four taps a step, as output() takes, took 1.2-1.7 ns more per
     * update than this one (medians of 12 alternations, in each of 4
     * processes, 2-vCPU Xeon). */
    pair a = {0.0, 0.0}, b = {0.0, 0.0}, ea = {0.0, 0.0}, eb = {0.0, 0.0};
    for (; j < k; j += 2) {
        const pair t = a + ahead_step(h, off, j, g, u, w, x, &sq, &e, held), f = ea + e;
        a = b;
        b = t;
        ea = eb;
        eb = f;
    }
    const pair t = a + b, f = ea + eb;
    p += t[0] + t[1];
    q += f[0] + f[1];
    if (held)
        *ss = s + (sq[0] + sq[1]);
    *c = q;
    return p;
}

/* The run sweeps read a row of a 1-D walk as one run of memory. The walk's
 * offsets descend by one (off[j] = off[0] - j), so tap j of the row based
 * at w reads w[off[k - 1] + (k - 1 - j)]; with h reversed in place, tap j
 * is h[k - 1 - j], and index i of h multiplies index i of the run that
 * starts at the row's element off[k - 1]. Four taps j..j + 3 sit at
 * indices i..i + 3, i = k - 4 - j, as one quad load of each array whose
 * lanes hold them in reverse: j + 3, j + 2 (lanes of c) and j + 1, j
 * (lanes of a). The sweeps run j upwards, i downwards, so each lane adds
 * its terms in output()'s order, and (a + c)[0] + (a + c)[1] adds the
 * same two sums of two lanes as output() does, each add with its operands
 * swapped: y keeps every bit. */

/* output() over a run: h reversed and w the row's element at off[k - 1],
 * k >= AHEAD_BELOW. */
static inline __attribute__((always_inline)) double run_output(const double *h, const double *w, ptrdiff_t k)
{
    const ptrdiff_t even = k - k % 2, left = even % 4;
    double y = 0.0;
    if (k % 2)
        y += h[even] * w[even];
    quad s = {0.0, 0.0, 0.0, 0.0};
    for (ptrdiff_t i = even - 4; i >= left; i -= 4) {
        quad x, z;
        memcpy(&x, h + i, sizeof x);
        memcpy(&z, w + i, sizeof z);
        s += x * z;
    }
    pair a = {s[2], s[3]};
    const pair c = {s[0], s[1]};
    if (left)
        a += (pair){h[0], h[1]} * (pair){w[0], w[1]};
    const pair t = a + c;
    return y + (t[0] + t[1]);
}

/* The tap update and output of table_update() over a run, as run_output()
 * reads it (u the held row's element at off[k - 1]); pass() bounds the new
 * taps itself, so no squares are summed. */
static inline __attribute__((always_inline)) double run_update(double *h, double g, const double *u,
                                                               const double *w, ptrdiff_t k)
{
    const ptrdiff_t even = k - k % 2, left = even % 4;
    double y = 0.0;
    if (k % 2) {
        const double v = h[even] + g * u[even];
        h[even] = v;
        y += v * w[even];
    }
    quad s = {0.0, 0.0, 0.0, 0.0};
    for (ptrdiff_t i = even - 4; i >= left; i -= 4) {
        quad v, x, z;
        memcpy(&v, h + i, sizeof v);
        memcpy(&x, u + i, sizeof x);
        memcpy(&z, w + i, sizeof z);
        v += g * x;
        memcpy(h + i, &v, sizeof v);
        s += v * z;
    }
    pair a = {s[2], s[3]};
    const pair c = {s[0], s[1]};
    if (left) {
        const pair v = (pair){h[0], h[1]} + g * (pair){u[0], u[1]};
        h[0] = v[0];
        h[1] = v[1];
        a += v * (pair){w[0], w[1]};
    }
    const pair t = a + c;
    return y + (t[0] + t[1]);
}

/* The pass of kd_adapt_pass, inlined once for each way of reading: through
 * the offset table, or over runs (runs, a constant there), h reversed
 * throughout. */
static inline __attribute__((always_inline)) ptrdiff_t pass(const double *P, const ptrdiff_t *off, ptrdiff_t width,
                                                            ptrdiff_t stride, ptrdiff_t warmup, ptrdiff_t n,
                                                            ptrdiff_t k, double *h, double *m, double mu,
                                                            double beta, double guard, double limit, const int runs)
{
    double m2 = m[0], m4 = m[1];
    const double omb = 1.0 - beta, limit2 = limit * limit;
    const double *u = NULL; /* the row whose update g * u is held, if any */
    double g = 0.0;
    ptrdiff_t failed = -1;
    ptrdiff_t line = warmup / width * stride, col = warmup % width;
    const ptrdiff_t first = runs ? off[k - 1] : 0; /* where a run starts in its row */
    /* over runs: bound >= every |h[j]|, and scale >= every |element| the
     * rows read (the run from row warmup's first to row n - 1's last) */
    double bound = 0.0, scale = 0.0;
    if (runs && warmup < n) {
        const ptrdiff_t end = (n - 1) / width * stride + (n - 1) % width + off[0];
        bound = peak(h, k);
        scale = peak(P + line + col + first, end - (line + col + first) + 1);
    }
    for (ptrdiff_t r = warmup; r < n; r++) {
        const double *w = P + line + col;
        double y;
        if (u) {
            int screen;
            if (runs) {
                y = run_update(h, g, u + first, w + first, k);
                bound += fabs(g) * scale;
                screen = !(bound < limit);
            } else {
                double ss;
                y = table_update(h, off, g, u, w, k, &ss);
                screen = !(ss < limit2);
            }
            u = NULL;
            if (screen) {
                if (over_limit(h, k, limit)) {
                    failed = r - 1;
                    break;
                }
                if (runs)
                    bound = peak(h, k);
            }
        } else {
            y = runs ? run_output(h, w + first, k) : output(h, off, w, k);
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
            h[j] += g * u[runs ? first + j : off[j]];
        if (over_limit(h, k, limit))
            failed = n - 1;
    }
    m[0] = m2;
    m[1] = m4;
    return failed;
}

/* The pass through the offset table, kept out of line so that the checks
 * for the runs in kd_adapt_pass do not enter the build of its loop. */
static __attribute__((noinline)) ptrdiff_t pass_table(const double *P, const ptrdiff_t *off, ptrdiff_t width,
                                                      ptrdiff_t stride, ptrdiff_t warmup, ptrdiff_t n, ptrdiff_t k,
                                                      double *h, double *m, double mu, double beta, double guard,
                                                      double limit)
{
    return pass(P, off, width, stride, warmup, n, k, h, m, mu, beta, guard, limit, 0);
}

/* The pass of kd_adapt_pass below AHEAD_BELOW taps, through the offset
 * table: row r's output is p + g * c, formed when row r - 1 swept in the
 * update held before it (kd_adapt_pass says more). */
static __attribute__((noinline)) ptrdiff_t pass_ahead(const double *P, const ptrdiff_t *off, ptrdiff_t width,
                                                      ptrdiff_t stride, ptrdiff_t warmup, ptrdiff_t n, ptrdiff_t k,
                                                      double *h, double *m, double mu, double beta, double guard,
                                                      double limit)
{
    double m2 = m[0], m4 = m[1];
    const double omb = 1.0 - beta, limit2 = limit * limit;
    const double *u = NULL; /* the row whose update g * u is held, if any */
    double g = 0.0, p = 0.0, c = 0.0;
    ptrdiff_t failed = -1;
    ptrdiff_t line = warmup / width * stride, col = warmup % width;
    if (warmup < n)
        p = output(h, off, P + line + col, k);
    for (ptrdiff_t r = warmup; r < n; r++) {
        const double *w = P + line + col;
        const double y = u ? p + g * c : p, y2 = y * y, held2 = m2, held4 = m4;
        m2 = beta * m2 + omb * y2;
        m4 = beta * m4 + omb * y2 * y2;
        double next_g = 0.0;
        const double *next_u = NULL;
        if (m2 > guard) {
            next_g = mu * (4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2));
            next_u = w;
        }
        if (++col == width) {
            col = 0;
            line += stride;
        }
        /* the last row sums p and c over itself, and no row reads them */
        const double *x = r + 1 < n ? P + line + col : w;
        if (u) {
            double ss;
            p = ahead_sweep(h, off, g, u, w, x, k, &ss, &c, 1);
            if (!(ss < limit2) && over_limit(h, k, limit)) {
                failed = r - 1;
                m2 = held2;
                m4 = held4;
                u = NULL;
                break;
            }
        } else {
            p = ahead_sweep(h, off, 0.0, NULL, w, x, k, NULL, &c, 0);
        }
        g = next_g;
        u = next_u;
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

#ifdef __x86_64__
/* Whether the CPU runs the functions built for AVX2: the one run-time pick
 * of kd_adapt_pass and kd_filter_walk. */
static int avx2(void)
{
    return __builtin_cpu_supports("avx2");
}

/* The pass over runs: built for AVX2 (no FMA, and -ffp-contract=off fuses
 * nothing), run where the CPU has it. */
static __attribute__((target("avx2"))) ptrdiff_t pass_quads(const double *P, const ptrdiff_t *off, ptrdiff_t width,
                                                            ptrdiff_t stride, ptrdiff_t warmup, ptrdiff_t n,
                                                            ptrdiff_t k, double *h, double *m, double mu,
                                                            double beta, double guard, double limit)
{
    return pass(P, off, width, stride, warmup, n, k, h, m, mu, beta, guard, limit, 1);
}

/* Reverses h[0..k-1] in place. */
static void reverse(double *h, ptrdiff_t k)
{
    for (ptrdiff_t i = 0, j = k - 1; i < j; i++, j--) {
        const double t = h[i];
        h[i] = h[j];
        h[j] = t;
    }
}

/* Whether the k offsets descend by one, as a 1-D walk's do. */
static int descending(const ptrdiff_t *off, ptrdiff_t k)
{
    for (ptrdiff_t j = 1; j < k; j++)
        if (off[j] != off[0] - j)
            return 0;
    return 1;
}
#endif

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
 * One threshold on k, AHEAD_BELOW, picks one of three sweeps: below it,
 * pass_ahead; from it, pass_quads for a walk whose offsets descend by one
 * on a CPU with AVX2, and pass_table otherwise. Every one sums y in the
 * order of output() at every k.
 *
 * Each row costs one sweep over the taps. From AHEAD_BELOW taps the update
 * g * u computed at row r (u = row r) is held until the sweep of row r + 1,
 * which adds it to each tap just before that tap enters the output sum, and
 * the update of the last row is applied after the loop. Every tap and
 * output therefore goes through the same operations in the same order as
 * when the update is applied in a sweep of its own: y is summed in the
 * order of output() in both. A limit exceeded in the sweep of row r is the
 * update of row r - 1, whose moments m still holds.
 *
 * Below AHEAD_BELOW taps (pass_ahead) that sweep would stand on every row's
 * one serial path, from y through the moments and the divide to g and on
 * to the next y. There each output is formed one row ahead instead: in
 * exact arithmetic h(r) = h(r - 1) + g(r - 1) w(r - 1), so
 *
 *     y(r) = p(r) + g(r - 1) c(r),  p(r) = h(r - 1)'w(r),  c(r) = w(r - 1)'w(r),
 *
 * p and c each summed in the order of output(), and y(r) = p(r) when no
 * update is held. Row r forms y, its moments and g first; its sweep then
 * adds the update of row r - 1 to the taps while it sums p(r + 1) over the
 * new taps and c(r + 1), none of which waits on row r's g, so the sweep
 * runs beside that path instead of before it. c is one scalar carried to
 * the next row, and the last row's sweep sums p and c over itself, where
 * no row reads them. A limit exceeded in the sweep of row r is the update
 * of row r - 1: h is as that update left it, and m is set back to row
 * r - 1's moments. y differs from the direct order's in its rounding (the
 * tests' oracle forms it the same way, and bounds the difference).
 *
 * Through the offset table, the same sweep sums the squares of the new
 * taps, and only a sum of at least limit^2 (or NaN) runs the exact per-tap
 * test. That screen misses nothing: partial sums of nonnegative terms never
 * decrease under round-to-nearest, so a tap with |h_j| > limit leaves the
 * sum at or above fl(h_j^2) >= fl(limit^2), and a NaN or infinite tap
 * leaves it NaN or infinite.
 *
 * The sweep takes two taps a step, one a lane of a pair (update()). An odd
 * count of taps takes tap 0 in a scalar step first, so that the output's
 * adds start while g is still being copied into both lanes. The steps
 * alternate between the accumulators a and c of output(), so four chains
 * of adds run side by side instead of one, at every k. The screen sums in
 * its own order: each lane sums the squares of its own taps, and the lane
 * sums are added together and to tap 0's square. Each lane's sum never
 * decreases either, and neither does a sum of nonnegative sums, so the
 * total is at least the lane sum of any tap and the screen still misses
 * no tap over the limit and no NaN.
 *
 * From AHEAD_BELOW taps, on a CPU with AVX2, a walk whose offsets descend
 * by one (every 1-D walk; the choice reads off) is swept as runs
 * (pass_quads, run_output, run_update): h is reversed on entry and back
 * before the return, divergence included, and each step loads four taps
 * of h, u and w as one quad each, where the table costs two offset loads
 * and four scalar loads per pair. The lanes hold the terms of output()'s
 * lanes in reverse, so every tap, output and moment keeps its bits. A 2-D
 * kernel's offsets jump by a line between its rows, so it keeps the
 * table, and so does a CPU without AVX2. Over audio_echo's walk at k = 201
 * (one pass, best of 7, alternated with the table in one process on a
 * 2-vCPU Xeon), the table took 125-139 ns per update and quads 67-77.
 * Quads in the baseline build, which gcc lowers to SSE2 halves, took
 * 175-187 against the table's 134-151 in their own runs, so the pass is
 * not one body built with target_clones("avx2", "default"), whose
 * baseline clone would run those halves: pass_quads is built for AVX2
 * alone (with no FMA), and __builtin_cpu_supports picks it per call. Runs
 * in two-lane pairs took 99-104 ns on the same host; without a host
 * lacking AVX2 to time them on, they are left out. Eight lanes in quads,
 * for y and for the screen, were no faster (65-66 ns), so the chains of
 * adds no longer bound the sweep.
 *
 * Over runs the screen sums no squares: it is a running bound B on the
 * largest |h_j|. B starts as peak(h), and each held update g * u adds
 * fl(|g| * U) to it, U = peak() of every element the pass reads, taken
 * once per call; only a B not below the limit runs the exact per-tap
 * test, and when that clears, B restarts from peak(h). B misses nothing:
 * rounding to nearest is monotone, so each new tap, fl(h_j + fl(g u_j)),
 * is at most fl(|h_j| + fl(|g| U)) <= fl(B + fl(|g| U)) in magnitude, and
 * a NaN tap can come only from an infinite or NaN g, u_j or h_j, which
 * leaves B infinite or NaN; the test is strict so that an infinite B runs
 * the exact test even at an infinite limit. U is NaN when an element is,
 * so the bound needs nothing from the caller. At k = 201 over audio_echo's
 * walk the run sweep took 67.5 ns per update with the bound against 75.2
 * with the squares (medians of 21 alternations in one process, 2-vCPU
 * Xeon), and the bound never ran the exact test on audio_echo's or c06's
 * config. On the table it made k = 3 and 3 x 3 about 3 ns slower (26.6 ->
 * 30.2 and 29.2 -> 32.0 ns, medians of 15), so the table keeps its
 * squares.
 *
 * A direct test !(|v| <= limit) in the lanes keeps every bit too, but
 * costs a compare a tap: at k = 201, through the table, it took 356-362 ns
 * per update against the squares' 154-157 ns, and it gained nothing at
 * k = 3 or 3 x 3 (one pass over the perfbench inputs, best of 7, on a
 * 2-vCPU Xeon).
 */
ptrdiff_t kd_adapt_pass(const double *P, const ptrdiff_t *off, ptrdiff_t width, ptrdiff_t stride,
                        ptrdiff_t warmup, ptrdiff_t n, ptrdiff_t k, double *h, double *m, double mu,
                        double beta, double guard, double limit)
{
    if (k < AHEAD_BELOW)
        return pass_ahead(P, off, width, stride, warmup, n, k, h, m, mu, beta, guard, limit);
#ifdef __x86_64__
    if (descending(off, k) && avx2()) {
        reverse(h, k);
        const ptrdiff_t failed = pass_quads(P, off, width, stride, warmup, n, k, h, m, mu, beta, guard, limit);
        reverse(h, k);
        return failed;
    }
#endif
    return pass_table(P, off, width, stride, warmup, n, k, h, m, mu, beta, guard, limit);
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

/* The line loop of kd_filter_walk, inlined once for each block of rows:
 * sixteen a block in four quads before the blocks of eight (quads, a
 * constant there), or eight alone. */
static inline __attribute__((always_inline)) void filter(const double *restrict P, const ptrdiff_t *restrict off,
                                                         ptrdiff_t width, ptrdiff_t stride, ptrdiff_t n,
                                                         const double *restrict h, ptrdiff_t k,
                                                         double *restrict out, const int quads)
{
    for (ptrdiff_t r = 0, line = 0; r < n; r += width, line += stride) {
        ptrdiff_t c = 0;
        for (; quads && c + 16 <= width; c += 16) {
            quad y0 = {0.0, 0.0, 0.0, 0.0}, y1 = y0, y2 = y0, y3 = y0;
            for (ptrdiff_t j = 0; j < k; j++) {
                const double *w = P + line + c + off[j];
                quad x0, x1, x2, x3;
                memcpy(&x0, w, sizeof x0);
                memcpy(&x1, w + 4, sizeof x1);
                memcpy(&x2, w + 8, sizeof x2);
                memcpy(&x3, w + 12, sizeof x3);
                y0 += h[j] * x0;
                y1 += h[j] * x1;
                y2 += h[j] * x2;
                y3 += h[j] * x3;
            }
            double *o = out + r + c;
            memcpy(o, &y0, sizeof y0);
            memcpy(o + 4, &y1, sizeof y1);
            memcpy(o + 8, &y2, sizeof y2);
            memcpy(o + 12, &y3, sizeof y3);
        }
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

#ifdef __x86_64__
/* The filter in blocks of sixteen rows: built for AVX2 (no FMA), run where
 * the CPU has it. */
static __attribute__((target("avx2"))) void filter_quads(const double *restrict P, const ptrdiff_t *restrict off,
                                                         ptrdiff_t width, ptrdiff_t stride, ptrdiff_t n,
                                                         const double *restrict h, ptrdiff_t k,
                                                         double *restrict out)
{
    filter(P, off, width, stride, n, h, k, out, 1);
}
#endif

/* The filter of kurtdeconv._native.filter_walk, every FIR and kernel filter
 * of kurtdeconv: out[r] is the sum, from 0.0 and in tap order, of
 * h[j] * P[base(r) + off[j]] over the k taps, for the n rows of the
 * regressor walk of kd_adapt_pass, n a multiple of width. kd_adapt_pass
 * sums its y in the lanes of output() instead, another order from 3 taps;
 * a filtered output is never a y (y is formed mid-update), so no result
 * needs the two equal.
 * Neighbouring rows of a line share each tap's broadcast, one row a lane,
 * each summed in its own lane from 0.0 over the taps in order: sixteen
 * rows a block in four quads on a CPU with AVX2, then eight a block in
 * four pairs, then the last rows of the line one at a time. Over
 * audio_echo's observation at 201 taps (200,000 rows, medians of 21
 * alternations on a 2-vCPU Xeon), the quads took 3.4 ms against the
 * pairs' 6.0. In 15 more, 32 rows a block in eight quads took 3.2 ms
 * against the quads' 3.4, too little for four more accumulators.
 */
void kd_filter_walk(const double *restrict P, const ptrdiff_t *restrict off, ptrdiff_t width, ptrdiff_t stride,
                    ptrdiff_t n, const double *restrict h, ptrdiff_t k, double *restrict out)
{
#ifdef __x86_64__
    if (avx2()) {
        filter_quads(P, off, width, stride, n, h, k, out);
        return;
    }
#endif
    filter(P, off, width, stride, n, h, k, out, 0);
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
    steps = 0;
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
