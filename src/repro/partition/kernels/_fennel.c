/* Eq. 2's sequential decision for one chunk of the buffered kernel's stream,
 * vertex by vertex as fennel_scalar (scalar.py) makes it: parts and loads are
 * read and written live, the first strict maximum wins (a NaN score at once,
 * as in np.argmax), and with every part at capacity the least loaded does. */
#include <math.h>
#include <stdint.h>

/* load^(gamma-1) with pow_like_numpy's zero-base cases */
static double pw(double base, double e) {
    if (base == 0.0) return e > 0.0 ? 0.0 : (e == 0.0 ? 1.0 : INFINITY);
    return pow(base, e);
}

/* Places chunk[0..b) (lists back to back in nbrs[0..z)); -1, else the first bad i (-2 - i: a part). */
int64_t fennel_chunk(const int64_t *chunk, int64_t b, const int64_t *lens, const int64_t *nbrs,
                     int64_t z, int32_t *parts, int64_t n, double *loads, int64_t k, const double *w,
                     double ag, double gm1, double cap, double *pen, int64_t *cnt) {
    for (int64_t p = 0; p < k; p++) pen[p] = ag * pw(loads[p], gm1);
    for (int64_t i = 0; i < b; z -= lens[i], nbrs += lens[i++]) {
        int64_t v = chunk[i], d = lens[i], c = 0, open = 0, j, p;
        if (v < 0 || v >= n || d < 0 || d > z) return i;
        if (parts[v] >= k) return -2 - i;
        if (parts[v] >= 0) {
            loads[parts[v]] -= w[v];
            pen[parts[v]] = ag * pw(loads[parts[v]], gm1);
        }
        for (j = 0; j < d; j++) {  /* a refusal leaves the state partly written: the call raises */
            if (nbrs[j] < 0 || nbrs[j] >= n) return i;
            if (parts[nbrs[j]] >= k) return -2 - i;
            if (parts[nbrs[j]] >= 0) cnt[parts[nbrs[j]]]++;
        }
        double best = -INFINITY;
        for (p = 0; p < k; p++) {
            if (loads[p] >= cap) continue;
            double s = (double)cnt[p] - pen[p];
            open = 1;
            if (isnan(s)) { c = p; break; }
            if (s > best) { best = s; c = p; }
        }
        if (!open)
            for (c = 0, p = 1; p < k; p++)
                if (loads[p] < loads[c]) c = p;
        for (j = 0; j < d; j++)
            if (parts[nbrs[j]] >= 0) cnt[parts[nbrs[j]]] = 0;
        parts[v] = (int32_t)c;
        loads[c] += w[v];
        pen[c] = ag * pw(loads[c], gm1);
    }
    return -1;
}
