/* out[i] = cdf.searchsorted(u[i], side="right"), as Generator.choice computes it. guide[j] is
 * filled with that answer for j / buckets (buckets = g - 1, a power of two, so u * buckets is
 * exact): the answer lies in [guide[j], guide[j + 1]] for j = floor(u * buckets). */
#include "../utils/_graph.h"

void sample_cdf(const double *cdf, int64_t n, int64_t *guide, int64_t g, const double *u,
                int64_t m, int64_t *out) {
    int64_t buckets = g - 1, p = 0;
    for (int64_t j = 0; j <= buckets; guide[j++] = p)  /* guide[buckets]: n, as cdf ends at 1 */
        while (p < n && cdf[p] <= (double)j / (double)buckets) p++;
    for (int64_t i = 0; i < m && buckets > 0; i++) {
        int64_t j = (int64_t)(u[i] * (double)buckets), lo = guide[j], hi = guide[j + 1];
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (cdf[mid] <= u[i]) lo = mid + 1; else hi = mid;
        }
        out[i] = lo;
    }
}

/* extract_subgraph's rows: member rows[j] keeps each neighbour u with local_of[u] >= 0,
 * written as local_of[u] (out: int32, or int64 with wide 1) after the kept arcs of rows[0..j);
 * deg[j] counts them. -1, else the first bad j: j its ids, -2 - j its row (or more kept arcs
 * than o). */
int64_t induce_rows(const block *g, int64_t ng, const int64_t *rows, int64_t c,
                    const int64_t *local_of, int64_t n, int64_t *deg, void *out, int64_t o,
                    int64_t wide) {
    int32_t *o4 = out; int64_t *o8 = out, at = 0;
    for (int64_t j = 0; j < c; j++) {
        int64_t kept = 0;
        row r;
        if (graph_row(g, ng, rows[j], &r) < 1) return -2 - j;
        for (int64_t s = r.lo; s < r.hi; s++) {
            int64_t u = NBR(r, s);
            if (u < 0 || u >= n) return j;
            if (local_of[u] < 0) continue;
            if (at + kept >= o) return -2 - j;
            if (wide) o8[at + kept++] = local_of[u]; else o4[at + kept++] = (int32_t)local_of[u];
        }
        deg[j] = kept;
        at += kept;
    }
    return -1;
}

/* gather_rows: the neighbours of vertices[0..c) in out, row after row. -1, else the first bad i:
 * i its id or its neighbours' (outside [0, n)), -2 - i its row (or more arcs than o). */
int64_t gather_rows(const block *g, int64_t ng, const int64_t *vertices, int64_t c, int64_t n,
                    int64_t *out, int64_t o) {
    for (int64_t i = 0, at = 0; i < c; i++) {
        row r;
        if (vertices[i] < 0 || vertices[i] >= n) return i;
        if (graph_row(g, ng, vertices[i], &r) < 1 || at + r.hi - r.lo > o) return -2 - i;
        for (int64_t j = r.lo; j < r.hi; j++)
            if ((out[at++] = NBR(r, j)) < 0 || out[at - 1] >= n) return i;
    }
    return -1;
}

/* add_edges: a stable counting sort of arcs src[i] -> dst[i] by bucket src[i] / size into pairs
 * (source, target interleaved), bucket j < g - 2 at [at[j], at[j + 1]); deg[src[i]] += 1. -1, else
 * the first i whose source lies outside [0, n) or past bucket g - 3 (nothing written then). */
int64_t bucket_arcs(const int64_t *src, const int64_t *dst, int64_t m, int64_t size, int64_t *at,
                    int64_t g, int64_t *pairs, int64_t *deg, int64_t n) {
    for (int64_t j = 0; j < g; j++) at[j] = 0;
    for (int64_t i = 0; i < m; i++) {  /* bucket j counted at j + 2, its cursor ends at j + 1 */
        if (size < 1 || src[i] < 0 || src[i] >= n || src[i] / size + 3 > g) return i;
        at[src[i] / size + 2]++;
    }
    for (int64_t j = 2; j < g; j++) at[j] += at[j - 1];
    for (int64_t i = 0; i < m; i++) {
        int64_t j = at[src[i] / size + 1]++;
        pairs[2 * j] = src[i], pairs[2 * j + 1] = dst[i];
        deg[src[i]]++;
    }
    return -1;
}

/* _write_shard: arc i of pairs (source, target interleaved) of rows [lo, lo + r) goes to
 * out[cur[s]++] (int32, or int64 with wide 1), s = source - lo, below end[s] <= z. -1, else the
 * first i with a source outside the rows, a target outside [0, n) or a full row. */
int64_t scatter_rows(const int64_t *pairs, int64_t m, int64_t lo, int64_t *cur, const int64_t *end,
                     int64_t r, int64_t n, void *out, int64_t z, int64_t wide) {
    int32_t *o4 = out; int64_t *o8 = out;
    for (int64_t i = 0; i < m; i++) {
        int64_t s = pairs[2 * i] - lo, u = pairs[2 * i + 1];
        if (s < 0 || s >= r || u < 0 || u >= n || cur[s] < 0 || cur[s] >= end[s] || end[s] > z)
            return i;
        if (wide) o8[cur[s]++] = u; else o4[cur[s]++] = (int32_t)u;
    }
    return -1;
}
