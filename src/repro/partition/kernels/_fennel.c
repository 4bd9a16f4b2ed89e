/* Eq. 2's sequential decision over a stream, vertex by vertex as fennel_scalar (scalar.py)
 * makes it: parts and loads are read and written live, the first strict maximum wins (a NaN
 * score at once, as in np.argmax), and with every part at capacity the least loaded does. */
#include <math.h>
#include "../../utils/_graph.h"

/* load^(gamma-1) with pow_like_numpy's zero-base cases */
static double pw(double base, double e) {
    if (base == 0.0) return e > 0.0 ? 0.0 : (e == 0.0 ? 1.0 : INFINITY);
    return pow(base, e);
}

/* Places stream[0..b), reading each vertex's row through the ng blocks of g. -1, else the first
 * bad i: i its ids, b + i its row or offsets, -2 - i a part id. */
int64_t fennel_rows(const block *g, int64_t ng, const int64_t *stream, int64_t b, int32_t *parts,
                    int64_t n, double *loads, int64_t k, const double *w, double ag, double gm1,
                    double cap, double *pen, int64_t *cnt) {
    for (int64_t p = 0; p < k; p++) pen[p] = ag * pw(loads[p], gm1);
    for (int64_t i = 0; i < b; i++) {
        int64_t v = stream[i], c = 0, open = 0, j, u, p;
        row r;
        if (v < 0 || v >= n) return i;
        if (graph_row(g, ng, v, &r) < 1) return b + i;
        if (k < 1 || parts[v] >= k) return -2 - i;
        if (parts[v] >= 0) {
            loads[parts[v]] -= w[v];
            pen[parts[v]] = ag * pw(loads[parts[v]], gm1);
        }
        for (j = r.lo; j < r.hi; j++) {  /* a refusal leaves the state partly written */
            u = NBR(r, j);
            if (u < 0 || u >= n) return i;
            if (parts[u] >= k) return -2 - i;
            if (parts[u] >= 0) cnt[parts[u]]++;
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
        for (j = r.lo; j < r.hi; j++) {
            u = NBR(r, j);
            if (parts[u] >= 0) cnt[parts[u]] = 0;
        }
        parts[v] = (int32_t)c;
        loads[c] += w[v];
        pen[c] = ag * pw(loads[c], gm1);
    }
    return -1;
}
