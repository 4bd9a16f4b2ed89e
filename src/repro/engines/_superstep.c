/* The BSP engines' superstep bookkeeping, wrapped by engines/superstep.py: walker moves, the
 * uniform step and the sorted-row arc test (knightking/), Gemini's cut census. Contracts:
 * utils/native.py's TABLE; ids from outside are range-checked here (-1 or the first bad index). */
#include "../utils/_graph.h"

/* The first k walkers with mask[w] set, in id order: their ids, positions and previous. */
void walk_live(const uint8_t *mask, int64_t nw, const int64_t *pos, const int64_t *prev,
               int64_t *idx, int64_t *cur, int64_t *prv, int64_t k) {
    for (int64_t w = 0, j = 0; w < nw && j < k; w++)
        if (mask[w]) { idx[j] = w; cur[j] = pos[w]; prv[j++] = prev[w]; }
}

/* One step of walkers idx[0..k): a walker with term[i] set retires in place; any other
 * moves to nxt[i], is charged to the machine it left (load[src] += 1, counts[src·m + dst]
 * += 1) and retires once steps reaches max_steps. paths (max_steps + 1 per walker), visits
 * and local may be NULL; local[w] clears when w leaves its machine or retires. Returns -1,
 * or, changing nothing, the first i that would move to an id outside [0, n). */
int64_t walk_apply(const int64_t *idx, int64_t k, const int64_t *nxt, const uint8_t *term,
                   const int64_t *parts, int64_t n, double *load, int64_t m, int64_t max_steps,
                   int64_t *pos, int64_t *prev, int64_t *steps, uint8_t *alive, int64_t *counts,
                   int64_t *paths, int64_t *visits, uint8_t *local) {
    for (int64_t i = 0; i < k; i++)
        if (!term[i] && (nxt[i] < 0 || nxt[i] >= n)) return i;
    for (int64_t i = 0; i < k; i++) {
        int64_t w = idx[i], src = parts[pos[w]], dst;
        if (term[i]) {
            alive[w] = 0;
            if (local) local[w] = 0;
            continue;
        }
        dst = parts[nxt[i]];
        prev[w] = pos[w];
        pos[w] = nxt[i];
        load[src] += 1.0;
        counts[src * m + dst]++;
        if (++steps[w] >= max_steps) alive[w] = 0;
        if (paths) paths[w * (max_steps + 1) + steps[w]] = nxt[i];
        if (visits) visits[nxt[i]]++;
        if (local && (src != dst || !alive[w])) local[w] = 0;
    }
    return -1;
}

/* out[i] = where a uniform step from pos[i] goes for the draw u[i] (uniform_arc); a dead end stays
 * put with dead[i] = 1. Returns the first i whose pos is outside [0, n), -2 - i for its row's
 * offsets or an arc's id outside the graph. Two passes, the arcs then their ids, keep many id
 * reads in flight: one fused loop took about twice as long on 20 000 walkers. */
int64_t uniform_step(const block *g, int64_t ng, int64_t n, const int64_t *pos, const double *u,
                     int64_t k, int64_t *out, uint8_t *dead) {
    row r;
    for (int64_t i = 0; i < k; i++) {
        if ((uint64_t)pos[i] >= (uint64_t)n) return i;
        if (graph_row(g, ng, pos[i], &r) < 1) return -2 - i;
        out[i] = uniform_arc(r, u[i]);
    }
    for (int64_t i = 0; i < k; i++) {
        int64_t v = pos[i];
        const block *b = graph_block(g, ng, &v);  /* found by the first pass */
        if ((dead[i] = out[i] < 0)) out[i] = pos[i];
        else if ((uint64_t)(out[i] = NBR(*b, out[i])) >= (uint64_t)n) return -2 - i;
    }
    return -1;
}

/* hit[i] = whether the ascending row src[i] holds tgt[i]: a binary search. Returns the first i
 * whose src has no row, -2 - i for offsets outside its ids. */
int64_t arcs_sorted(const block *g, int64_t ng, const int64_t *src, const int64_t *tgt, int64_t k,
                    uint8_t *hit) {
    for (int64_t i = 0; i < k; i++) {
        row r;
        int ok = graph_row(g, ng, src[i], &r);
        if (ok < 1) return ok ? -2 - i : i;
        int64_t lo = r.lo, hi = r.hi;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (NBR(r, mid) < tgt[i]) lo = mid + 1; else hi = mid;
        }
        hit[i] = lo < r.hi && NBR(r, lo) == tgt[i];
    }
    return -1;
}

/* The cut arcs of rows [0, n) counted per target into at or, given by_target, each one's source
 * stored at by_target[at[target]++]: the first pass of an LSD counting sort. Returns the first
 * row that is missing, has offsets outside its ids or ids outside [0, n). */
int64_t census_scan(const block *g, int64_t ng, const int64_t *parts, int64_t n, int64_t *at,
                    int64_t *by_target) {
    for (int64_t u = 0; u < n; u++) {
        row r;
        if (graph_row(g, ng, u, &r) < 1) return u;
        for (int64_t j = r.lo; j < r.hi; j++) {
            int64_t v = NBR(r, j);
            if (v < 0 || v >= n) return u;
            if (parts[u] == parts[v]) continue;
            if (by_target) by_target[at[v]++] = u; else at[v]++;
        }
    }
    return -1;
}

/* The second pass: by_target's arcs (target v's run ends at end[v]) go stably into their
 * source machine's range, sorted by (source machine, target). Writes each arc's source and
 * pair (source machine·m + target machine), then each group's first arc and pair; returns
 * the group count. starts holds each arc's key (source machine·n + target) until compacted;
 * by_target may be group_pair, which is written only after by_target's last read. */
int64_t census_group(const int64_t *parts, int64_t n, int64_t m, const int64_t *end,
                     const int64_t *by_target, int64_t ncut, int64_t *cut_src, int64_t *cut_pair,
                     int64_t *starts, int64_t *group_pair) {
    int64_t i, v, b, at = 0, g = 0, key = -1, first[m];
    for (b = 0; b < m; b++) first[b] = 0;
    for (i = 0; i < ncut; i++) first[parts[by_target[i]]]++;
    for (b = 0; b < m; b++) { int64_t c = first[b]; first[b] = at; at += c; }
    for (v = 0, i = 0; v < n; v++)
        for (; i < end[v]; i++) {
            int64_t p = first[b = parts[by_target[i]]]++;
            cut_src[p] = by_target[i];
            cut_pair[p] = b * m + parts[v];
            starts[p] = b * n + v;
        }
    for (i = 0; i < ncut; i++)
        if (starts[i] != key) {
            key = starts[i];
            starts[g] = i;
            group_pair[g++] = cut_pair[i];
        }
    return g;
}

/* One push superstep's messages into counts (m·m): one per group with any active source (of
 * n flags); the first ends its group's scan. */
void census_push(int64_t n, const uint8_t *active, const int64_t *cut_src, int64_t ncut,
                 const int64_t *starts, const int64_t *group_pair, int64_t ngroups,
                 int64_t *counts) {
    for (int64_t g = 0; g < ngroups; g++) {
        int64_t stop = g + 1 < ngroups ? starts[g + 1] : ncut;
        for (int64_t i = starts[g]; i < stop; i++)
            if (active[cut_src[i]]) { counts[group_pair[g]]++; break; }
    }
}
