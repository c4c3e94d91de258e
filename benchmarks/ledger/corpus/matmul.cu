
__global__ void matmul_kernel(float* A, float* B, float* C, int n) {
    int row = blockIdx.x;
    int col = threadIdx.x;
    if (row < n && col < n) {
        float acc = 0.0f;
        for (int k = 0; k < n; k++) {
            acc += A[row * n + k] * B[k * n + col];
        }
        C[row * n + col] = acc;
    }
}

void matmul(float* A, float* B, float* C, int n) {
    matmul_kernel<<<n, n>>>(A, B, C, n);
}
