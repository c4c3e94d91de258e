
__global__ void pgain_kernel(float* points, float* centers, float* costs, int* assign,
                             int n, int k, int dim) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
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

void streamcluster_assign(float* points, float* centers, float* costs, int* assign,
                          int n, int k, int dim) {
    pgain_kernel<<<n / 32, 32>>>(points, centers, costs, assign, n, k, dim);
}
