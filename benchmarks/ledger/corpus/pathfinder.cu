
__global__ void pathfinder_kernel(int* wall, int* src, int* dst, int cols, int row) {
    __shared__ int prev[34];
    int tx = threadIdx.x;
    int bx = blockIdx.x;
    int col = bx * 32 + tx;
    prev[tx + 1] = src[col];
    if (tx == 0) {
        if (col > 0) {
            prev[0] = src[col - 1];
        } else {
            prev[0] = src[col];
        }
    }
    if (tx == 31) {
        if (col < cols - 1) {
            prev[33] = src[col + 1];
        } else {
            prev[33] = src[col];
        }
    }
    __syncthreads();
    int best = prev[tx + 1];
    if (prev[tx] < best) {
        best = prev[tx];
    }
    if (prev[tx + 2] < best) {
        best = prev[tx + 2];
    }
    dst[col] = wall[row * cols + col] + best;
}

void pathfinder_step(int* wall, int* src, int* dst, int cols, int row) {
    pathfinder_kernel<<<cols / 32, 32>>>(wall, src, dst, cols, row);
}
