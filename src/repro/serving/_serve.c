/* One serving batch's reads on machine m (simulator.py's serve_batch): demand-table
 * rows summed in batch order plus walker visits (remote unless home is NULL), merged
 * per block and applied to m's LRU in ascending order (a hit moves to the MRU end, a
 * miss is appended; eviction from the LRU end only after the whole batch). ctx is
 * PartitionAwareCache's context array (cache.py); returns the fetched blocks. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { EDGES, REMOTE, PTR, BLOCK, COUNT, PARTS, PREV, NEXT, RESIDENT, ROWS, ACC, SEEN,
       NBLOCKS, BLOCK_SIZE, CAPACITY, WORK, READS };
enum { HEAD, TAIL, SIZE, HITS, MISSES, MISS_BLOCKS, EVICTIONS, FLUSHES, ROW };  /* per machine */
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
    return fetched;
}
