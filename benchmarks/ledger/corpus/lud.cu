
__global__ void lud_internal(float* matrix, int n, int offset) {
    __shared__ float pivot_col[16];
    __shared__ float pivot_row[16];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int row = offset + 1 + bx;
    int col = offset + 1 + tx;
    if (tx == 0) {
        for (int k = 0; k < 16; k++) {
            pivot_row[k] = matrix[offset * n + offset + 1 + k];
        }
    }
    pivot_col[tx] = matrix[(offset + 1 + tx) * n + offset];
    __syncthreads();
    if (row < n && col < n) {
        matrix[row * n + col] -= pivot_col[bx] * pivot_row[tx];
    }
}

void lud_step(float* matrix, int n, int offset) {
    lud_internal<<<16, 16>>>(matrix, n, offset);
}
