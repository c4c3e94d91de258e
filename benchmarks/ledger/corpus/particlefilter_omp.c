
void particlefilter_normalize(float* weights, float* partial_sums, int n) {
    int blocks = n / 32;
    for (int b = 0; b < blocks; b++) {
        float total = 0.0f;
        for (int t = 0; t < 32; t++) {
            total += weights[b * 32 + t];
        }
        partial_sums[b] = total;
    }
    #pragma omp parallel for
    for (int gid = 0; gid < n; gid++) {
        weights[gid] = weights[gid] / partial_sums[gid / 32];
    }
}
