
__global__ void nw_diagonal(int* score, int* reference, int n, int diag, int penalty) {
    int tid = threadIdx.x;
    __shared__ int row_index[32];
    row_index[tid] = tid + 1;
    __syncthreads();
    int i = row_index[tid];
    int j = diag - i + 1;
    if (i >= 1 && j >= 1 && i <= n && j <= n && i + j == diag + 1) {
        int up = score[(i - 1) * (n + 1) + j] - penalty;
        int left = score[i * (n + 1) + j - 1] - penalty;
        int upleft = score[(i - 1) * (n + 1) + j - 1] + reference[(i - 1) * n + j - 1];
        int best = up;
        if (left > best) {
            best = left;
        }
        if (upleft > best) {
            best = upleft;
        }
        score[i * (n + 1) + j] = best;
    }
}

void nw_step(int* score, int* reference, int n, int diag, int penalty) {
    nw_diagonal<<<1, 32>>>(score, reference, n, diag, penalty);
}
