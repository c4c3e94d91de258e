
__global__ void normalize_weights(float* weights, float* partial_sums, int n) {
    __shared__ float buffer[32];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    buffer[tid] = weights[gid];
    __syncthreads();
    for (int s = 16; s > 0; s = s / 2) {
        if (tid < s) {
            buffer[tid] += buffer[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        partial_sums[blockIdx.x] = buffer[0];
    }
    __syncthreads();
    weights[gid] = weights[gid] / buffer[0];
}

void particlefilter_normalize(float* weights, float* partial_sums, int n) {
    normalize_weights<<<n / 32, 32>>>(weights, partial_sums, n);
}
