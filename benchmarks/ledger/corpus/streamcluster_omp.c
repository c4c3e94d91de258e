
void streamcluster_assign(float* points, float* centers, float* costs, int* assign,
                          int n, int k, int dim) {
    #pragma omp parallel for
    for (int tid = 0; tid < n; tid++) {
        float best = 1000000000.0f;
        int best_center = 0;
        for (int c = 0; c < k; c++) {
            float dist = 0.0f;
            for (int d = 0; d < dim; d++) {
                float diff = points[tid * dim + d] - centers[c * dim + d];
                dist += diff * diff;
            }
            if (dist < best) {
                best = dist;
                best_center = c;
            }
        }
        costs[tid] = best;
        assign[tid] = best_center;
    }
}
