
void lud_step(float* matrix, int n, int offset) {
    #pragma omp parallel for
    for (int row = offset + 1; row < offset + 17; row++) {
        if (row < n) {
            for (int col = offset + 1; col < offset + 17; col++) {
                if (col < n) {
                    matrix[row * n + col] -= matrix[row * n + offset]
                        * matrix[offset * n + col];
                }
            }
        }
    }
}
