
void matmul(float* A, float* B, float* C, int n) {
    #pragma omp parallel for
    for (int row = 0; row < n; row++) {
        for (int col = 0; col < n; col++) {
            float acc = 0.0f;
            for (int k = 0; k < n; k++) {
                acc += A[row * n + k] * B[k * n + col];
            }
            C[row * n + col] = acc;
        }
    }
}
