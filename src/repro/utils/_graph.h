/* A graph as every C reader sees it: utils/native.py's csr[g] table, one row per block. Block
 * b holds the rows of vertices from first + b·span on, first being block 0's first vertex and
 * span its row count: every block but the last has as many rows as the first (a dense graph is
 * one block from 0, a sharded one a block per shard, or one shard's block from its first
 * vertex). A row's offsets index its own block's ids, 4 or 8 bytes wide. */
#include <stdint.h>

typedef struct { const int64_t *ptr; int64_t rows_1; const void *ids; int64_t z, wide, first; } block;
typedef struct { const void *ids; int64_t lo, hi, wide; } row;

/* id j of a row's or a block's ids */
#define NBR(r, j) ((r).wide ? ((const int64_t *)(r).ids)[j] : ((const int32_t *)(r).ids)[j])

/* The block of g's ng holding v's row, v then the row's index in it; NULL if v has none. One
 * block divides nothing: a 64-bit division, even the branches around it, showed in the walks'
 * time. */
static inline const block *graph_block(const block *g, int64_t ng, int64_t *v) {
    *v -= g->first;
    if (ng == 1) return (uint64_t)*v < (uint64_t)(g->rows_1 - 1) ? g : 0;
    int64_t b = ng > 1 && g->rows_1 > 1 && *v > 0 ? *v / (g->rows_1 - 1) : 0;
    if (b >= ng || (uint64_t)(*v -= b * (g->rows_1 - 1)) >= (uint64_t)(g[b].rows_1 - 1)) return 0;
    return g + b;
}

/* v's row: 1; 0 if v has none; -1 if its offsets lie outside its block's ids */
static inline int graph_row(const block *g, int64_t ng, int64_t v, row *r) {
    const block *b = graph_block(g, ng, &v);
    if (!b) return 0;
    const int64_t *p = b->ptr + v;
    if ((uint64_t)p[0] > (uint64_t)p[1] || (uint64_t)p[1] > (uint64_t)b->z) return -1;
    *r = (row){b->ids, p[0], p[1], b->wide};
    return 1;
}

/* The uniform step rule: the arc of row r a draw u in [0, 1) takes, lo + min(floor(u·deg),
 * deg - 1); -1 for an empty row (a dead end). */
static inline int64_t uniform_arc(row r, double u) {
    int64_t deg = r.hi - r.lo, j = (int64_t)(u * (double)deg);
    return deg ? r.lo + (j < deg - 1 ? j : deg - 1) : -1;
}
