/* One serving batch on machine m (simulator.py's serve_batch; ctx: utils/native.py's SERVE).
 * serve_batch steps its walkers on NumPy's PCG64 draws; serve_reads merges its demand-table rows
 * (summed in batch order) and walker visits (remote unless home is NULL) per block into m's LRU in
 * ascending order (a hit moves to the MRU end, a miss is appended; eviction from the LRU end only
 * after the whole batch); serve_batch then costs it. Each returns -1, or, changing nothing, i for
 * a row batch[i] past ctx's, then nq + i for pos[i] and nq + nw for m (serve_reads), or nq for m,
 * a walker or the walk state and -2 - v for v's row or arc outside the graph (serve_batch). */
#include <stdlib.h>
#include <string.h>
#include "../utils/_graph.h"

enum { EDGES, REMOTE, PTR, BLOCK, COUNT, PARTS, PREV, NEXT, RESIDENT, ROWS, ACC, SEEN,
       NROWS, N, MACHINES, NBLOCKS, BLOCK_SIZE, CAPACITY, WORK, READS, FETCHED,
       KIND, VERTEX, HOME, GRAPH, NGRAPH, COST, CORES, SROWS, SEEDS, VISITS, HOMES, NVISITS,
       STEPS, WALKED, SECONDS };
enum { HEAD, TAIL, SIZE, HITS, MISSES, MISS_BLOCKS, EVICTIONS, FLUSHES, ROW };  /* per machine */
enum { STEP_COST, EDGE_COST, VERTEX_COST, LATENCY, BANDWIDTH, MESSAGE_BYTES, BLOCK_BYTES };
#define WALK 1  /* workload.py's KIND_WALK */
#define AT(type, slot) ((type *)(intptr_t)ctx[slot])

static int ascending(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

int64_t serve_reads(int64_t *ctx, int64_t m, const int64_t *batch, int64_t nq,
                    const int64_t *pos, const int64_t *home, int64_t nw) {
    const int64_t *ptr = AT(int64_t, PTR);
    const int32_t *block = AT(int32_t, BLOCK), *count = AT(int32_t, COUNT);
    int64_t *acc = AT(int64_t, ACC), *seen = AT(int64_t, SEEN), ns = 0, remote = 0, i, j, b;
    double work = 0.0;
    if (m < 0 || m >= ctx[MACHINES] || ctx[BLOCK_SIZE] < 1) return nq + nw;
    for (i = 0; i < nq; i++)
        if (batch[i] < 0 || batch[i] >= ctx[NROWS]) return i;
    for (i = 0; i < nw; i++)
        if (pos[i] < 0 || pos[i] / ctx[BLOCK_SIZE] >= ctx[NBLOCKS] || (home && pos[i] >= ctx[N]))
            return nq + i;
    for (i = 0; i < nq; i++) {
        work += AT(double, EDGES)[batch[i]];
        remote += AT(int64_t, REMOTE)[batch[i]];
        for (j = ptr[batch[i]]; j < ptr[batch[i] + 1]; j++) {
            if (!acc[block[j]]) seen[ns++] = block[j];
            acc[block[j]] += count[j];
        }
    }
    for (i = 0; i < nw; i++) {
        if (home) remote += AT(int32_t, PARTS)[pos[i]] != home[i];
        b = pos[i] / ctx[BLOCK_SIZE];
        if (!acc[b]++) seen[ns++] = b;
    }
    qsort(seen, (size_t)ns, sizeof *seen, ascending);

    int64_t nb = ctx[NBLOCKS], *row = AT(int64_t, ROWS) + ROW * m;
    int64_t hits = 0, misses = 0, fetched = 0;
    int32_t *prev = AT(int32_t, PREV) + m * nb, *next = AT(int32_t, NEXT) + m * nb;
    uint8_t *resident = AT(uint8_t, RESIDENT) + m * nb;
    for (i = 0; i < ns; i++) {
        int64_t c = acc[b = seen[i]];
        acc[b] = 0;
        if (resident[b]) {
            hits += c;
            if (b == row[TAIL]) continue;  /* already at the MRU end */
            if (prev[b] >= 0) next[prev[b]] = next[b]; else row[HEAD] = next[b];
            prev[next[b]] = prev[b];
        } else {
            misses += c;
            fetched++;
            resident[b] = 1;
            row[SIZE]++;
        }
        prev[b] = (int32_t)row[TAIL];
        next[b] = -1;
        if (row[TAIL] >= 0) next[row[TAIL]] = (int32_t)b; else row[HEAD] = b;
        row[TAIL] = b;
    }
    row[HITS] += hits;
    if (fetched) {  /* only an insertion can push the LRU past capacity */
        int64_t evicted = row[SIZE] > ctx[CAPACITY] ? row[SIZE] - ctx[CAPACITY] : 0;
        for (i = 0; i < evicted; i++) {
            resident[row[HEAD]] = 0;
            row[HEAD] = next[row[HEAD]];
        }
        prev[row[HEAD]] = -1;  /* capacity >= 1: the list never empties here */
        row[SIZE] -= evicted;
        row[MISSES] += misses;
        row[MISS_BLOCKS] += fetched;
        row[EVICTIONS] += evicted;
    }
    memcpy(&ctx[WORK], &work, sizeof work);
    ctx[READS] = remote;
    ctx[FETCHED] = fetched;
    return -1;
}

/* NumPy's PCG64 (a 128-bit LCG with XSL-RR output) seeded as PCG64(SeedSequence) seeds it from
 * generate_state(4, uint64), and Generator.random()'s double from its top 53 bits. */
typedef unsigned __int128 u128;
#define MULTIPLIER (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)
typedef struct { u128 state, inc; } pcg64;

static pcg64 pcg64_seeded(const uint64_t *w) {
    pcg64 g = {0, ((u128)w[2] << 64 | w[3]) << 1 | 1};
    g.state = (g.inc + ((u128)w[0] << 64 | w[1])) * MULTIPLIER + g.inc;
    return g;
}

static double pcg64_double(pcg64 *g) {
    g->state = g->state * MULTIPLIER + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (double)(((x >> rot) | (x << ((64 - rot) & 63))) >> 11) * (1.0 / 9007199254740992.0);
}

void walk_draws(const uint64_t *seed, double *u, int64_t n) {  /* the draws serve_batch takes */
    pcg64 g = pcg64_seeded(seed);
    for (int64_t i = 0; i < n; i++) u[i] = pcg64_double(&g);
}

int64_t serve_batch(int64_t *ctx, int64_t m, int64_t batch_id, const int64_t *batch, int64_t nq) {
    const uint8_t *kind = AT(uint8_t, KIND);
    const int64_t *vertex = AT(int64_t, VERTEX), *home = AT(int64_t, HOME);
    const double *cost = AT(double, COST), *cores = AT(double, CORES);
    int64_t *visits = AT(int64_t, VISITS), *homes = AT(int64_t, HOMES), nw = 0, nv, i, s, v;
    if (m < 0 || m >= ctx[MACHINES] || !kind || !vertex || !home || !cost || !cores || !visits ||
        !homes || ctx[STEPS] < 0)
        return nq;
    for (i = 0; i < nq; i++)  /* the walkers' targets, ahead of their visits */
        if (batch[i] < 0 || batch[i] >= ctx[NROWS]) return i;
        else if (kind[batch[i]] != WALK) continue;
        else if (nw == ctx[NVISITS] || (v = vertex[batch[i]]) < 0 || v >= ctx[N]) return nq;
        else visits[nw] = v, homes[nw++] = home[batch[i]];
    if (nw && (batch_id < 0 || batch_id >= ctx[SROWS] || !ctx[SEEDS] ||
               nw > ctx[NVISITS] / (ctx[STEPS] + 1)))
        return nq;
    if ((nv = nw)) {  /* a draw per walker still walking, a dead end's included, each step */
        pcg64 g = pcg64_seeded(AT(uint64_t, SEEDS) + 4 * (batch_id * ctx[MACHINES] + m));
        row r;
        for (s = 0, i = 0; s < ctx[STEPS] && i < nv; s++)
            for (int64_t end = nv; i < end; i++) {  /* from the last step's visits */
                double u = pcg64_double(&g);
                if (graph_row(AT(const block, GRAPH), ctx[NGRAPH], visits[i], &r) < 1 ||
                    ((v = uniform_arc(r, u)) >= 0 && (uint64_t)(v = NBR(r, v)) >= (uint64_t)ctx[N]))
                    return -2 - visits[i];
                if (v >= 0) visits[nv] = v, homes[nv++] = homes[i];
            }
    }
    nv -= nw;  /* the visits, behind the walkers' targets */
    if (serve_reads(ctx, m, batch, nq, visits + nw, homes + nw, nv) != -1) return nq;
    double work, svc;  /* compute_seconds, then request_cost per kind of read, in their order */
    memcpy(&work, &ctx[WORK], sizeof work);
    svc = ((double)nv * cost[STEP_COST] + work * cost[EDGE_COST] + (double)nq * cost[VERTEX_COST])
          / cores[m];
    if (ctx[READS])
        svc += cost[LATENCY] + (double)ctx[READS] * cost[MESSAGE_BYTES] / cost[BANDWIDTH];
    if (ctx[FETCHED])
        svc += cost[LATENCY] + (double)ctx[FETCHED] * cost[BLOCK_BYTES] / cost[BANDWIDTH];
    memcpy(&ctx[SECONDS], &svc, sizeof svc);
    ctx[WALKED] = nv;
    return -1;
}
