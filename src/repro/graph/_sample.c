/* out[i] = cdf.searchsorted(u[i], side="right"), as Generator.choice computes it. guide[j] is
 * filled with that answer for j / buckets (buckets = g - 1, a power of two, so u * buckets is
 * exact): the answer lies in [guide[j], guide[j + 1]] for j = floor(u * buckets). */
#include <stdint.h>

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
