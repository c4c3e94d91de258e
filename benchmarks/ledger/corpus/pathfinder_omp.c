
void pathfinder_step(int* wall, int* src, int* dst, int cols, int row) {
    #pragma omp parallel for
    for (int col = 0; col < cols; col++) {
        int best = src[col];
        if (col > 0) {
            if (src[col - 1] < best) {
                best = src[col - 1];
            }
        }
        if (col < cols - 1) {
            if (src[col + 1] < best) {
                best = src[col + 1];
            }
        }
        dst[col] = wall[row * cols + col] + best;
    }
}
