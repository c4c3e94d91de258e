
void bfs_step(int* row_offsets, int* columns, int* frontier, int* next_frontier,
              int* cost, int n, int level) {
    #pragma omp parallel for
    for (int tid = 0; tid < n; tid++) {
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
