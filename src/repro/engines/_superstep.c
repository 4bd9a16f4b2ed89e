/* The BSP engines' superstep bookkeeping, wrapped by engines/superstep.py: walker moves
 * (knightking/engine.py), the uniform step's slots and the sorted-row arc test
 * (knightking/transition.py), and Gemini's cut census (gemini/engine.py). Arrays are int64
 * unless typed otherwise, masks one byte per entry; callers check every id first. */
#include <stdint.h>

/* neighbour id j of an indices array 4 or 8 bytes wide */
#define ID(ids, wide, j) ((wide) ? ((const int64_t *)(ids))[j] : ((const int32_t *)(ids))[j])

/* The walkers with mask[w] set, in id order: their ids, positions and previous vertices. */
void walk_live(const uint8_t *mask, int64_t nw, const int64_t *pos, const int64_t *prev,
               int64_t *idx, int64_t *cur, int64_t *prv) {
    for (int64_t w = 0, k = 0; w < nw; w++)
        if (mask[w]) { idx[k] = w; cur[k] = pos[w]; prv[k++] = prev[w]; }
}

/* One step of walkers idx[0..k): a walker with term[i] set retires in place; any other
 * moves to nxt[i], is charged to the machine it left (load[src] += 1, counts[src·m + dst]
 * += 1) and retires once steps reaches max_steps. paths (max_steps + 1 per walker), visits
 * and local may be NULL; local[w] clears when w leaves its machine or retires. Returns -1,
 * or, changing nothing, the first i that would move to an id outside [0, n). */
int64_t walk_apply(int64_t k, const int64_t *idx, const int64_t *nxt, const uint8_t *term,
                   const int64_t *parts, int64_t n, int64_t m, int64_t max_steps, int64_t *pos,
                   int64_t *prev, int64_t *steps, uint8_t *alive, double *load, int64_t *counts,
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

/* The arc slot of a uniform step from pos[i]: indptr[pos] + min(floor(u·deg), deg - 1);
 * a dead end (deg 0) gets slot 0 and dead[i] = 1. */
void uniform_slots(const int64_t *indptr, const int64_t *pos, const double *u, int64_t k,
                   int64_t *slot, uint8_t *dead) {
    for (int64_t i = 0; i < k; i++) {
        int64_t lo = indptr[pos[i]], deg = indptr[pos[i] + 1] - lo;
        int64_t off = (int64_t)(u[i] * (double)deg);
        dead[i] = deg == 0;
        slot[i] = deg ? lo + (off < deg - 1 ? off : deg - 1) : 0;
    }
}

/* hit[i] = whether the ascending row src[i] holds tgt[i]: a lower-bound binary search. */
void arcs_sorted(const int64_t *indptr, const void *ids, int64_t wide, const int64_t *src,
                 const int64_t *tgt, int64_t k, uint8_t *hit) {
    for (int64_t i = 0; i < k; i++) {
        int64_t lo = indptr[src[i]], hi = indptr[src[i] + 1], end = hi;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (ID(ids, wide, mid) < tgt[i]) lo = mid + 1; else hi = mid;
        }
        hit[i] = lo < end && ID(ids, wide, lo) == tgt[i];
    }
}

/* The cut arcs of rows [start, stop) of one block (ptr is its local indptr), counted per
 * target into at or, given by_target, each one's source stored at by_target[at[target]++]:
 * the first pass of an LSD counting sort. */
void census_scan(int64_t start, int64_t stop, const int64_t *ptr, const void *ids, int64_t wide,
                 const int64_t *parts, int64_t *at, int64_t *by_target) {
    for (int64_t u = start; u < stop; u++)
        for (int64_t j = ptr[u - start]; j < ptr[u - start + 1]; j++) {
            int64_t v = ID(ids, wide, j);
            if (parts[u] == parts[v]) continue;
            if (by_target) by_target[at[v]++] = u; else at[v]++;
        }
}

/* The second pass: by_target's arcs (target v's run ends at end[v]) go stably into their
 * source machine's range, sorted by (source machine, target). Writes each arc's source and
 * pair (source machine·m + target machine), then each group's first arc and pair; returns
 * the group count. starts holds each arc's key (source machine·n + target) until compacted;
 * by_target may be group_pair, which is written only after by_target's last read. */
int64_t census_group(int64_t n, int64_t m, const int64_t *parts, const int64_t *end,
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

/* One push superstep's messages into counts (m·m): one per cut arc whose source is active
 * or, aggregated, one per group with any active source (the first one found ends its scan). */
void census_push(const uint8_t *active, const int64_t *cut_src, const int64_t *cut_pair,
                 int64_t ncut, const int64_t *starts, const int64_t *group_pair,
                 int64_t ngroups, int64_t aggregate, int64_t *counts) {
    for (int64_t i = 0; !aggregate && i < ncut; i++) counts[cut_pair[i]] += active[cut_src[i]];
    for (int64_t g = 0; aggregate && g < ngroups; g++) {
        int64_t stop = g + 1 < ngroups ? starts[g + 1] : ncut;
        for (int64_t i = starts[g]; i < stop; i++)
            if (active[cut_src[i]]) { counts[group_pair[g]]++; break; }
    }
}
