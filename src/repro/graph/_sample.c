/* out[i] = cdf.searchsorted(u[i], side="right"), as Generator.choice computes it. guide[j]
 * is that answer for j / buckets, guide[buckets] = n; buckets is a power of two, so u * buckets
 * is exact and the answer lies in [guide[j], guide[j + 1]] for j = floor(u * buckets). */
#include <stdint.h>

void sample_cdf(const double *cdf, const int64_t *guide, int64_t buckets, const double *u,
                int64_t m, int64_t *out) {
    for (int64_t i = 0; i < m; i++) {
        int64_t j = (int64_t)(u[i] * (double)buckets), lo = guide[j], hi = guide[j + 1];
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (cdf[mid] <= u[i]) lo = mid + 1; else hi = mid;
        }
        out[i] = lo;
    }
}
