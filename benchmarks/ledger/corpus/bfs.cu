
__global__ void bfs_kernel(int* row_offsets, int* columns, int* frontier,
                           int* next_frontier, int* cost, int n, int level) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        if (frontier[tid] == 1) {
            for (int e = row_offsets[tid]; e < row_offsets[tid + 1]; e++) {
                int neighbor = columns[e];
                if (cost[neighbor] < 0) {
                    cost[neighbor] = level + 1;
                    next_frontier[neighbor] = 1;
                }
            }
        }
    }
}

void bfs_step(int* row_offsets, int* columns, int* frontier, int* next_frontier,
              int* cost, int n, int level) {
    bfs_kernel<<<n / 32, 32>>>(row_offsets, columns, frontier, next_frontier, cost, n, level);
}
