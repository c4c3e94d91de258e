
__global__ void hotspot_kernel(float* temp_in, float* temp_out, float* power,
                               int n, float cap, float rx) {
    __shared__ float tile[36];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int gid = bx * 32 + tx;
    tile[tx + 2] = temp_in[gid];
    if (tx == 0) {
        if (gid > 1) {
            tile[0] = temp_in[gid - 2];
            tile[1] = temp_in[gid - 1];
        } else {
            tile[0] = temp_in[gid];
            tile[1] = temp_in[gid];
        }
    }
    if (tx == 31) {
        if (gid < n - 2) {
            tile[34] = temp_in[gid + 1];
            tile[35] = temp_in[gid + 2];
        } else {
            tile[34] = temp_in[gid];
            tile[35] = temp_in[gid];
        }
    }
    __syncthreads();
    float halo = 0.5f * (tile[tx] + tile[tx + 4 - 4]);
    float center = tile[tx + 2];
    float left = tile[tx + 1];
    float right = tile[tx + 3];
    float delta = cap * (power[gid] + (left + right - 2.0f * center) * rx) + 0.0f * halo;
    temp_out[gid] = center + delta;
}

void hotspot_step(float* temp_in, float* temp_out, float* power, int n,
                  float cap, float rx) {
    hotspot_kernel<<<n / 32, 32>>>(temp_in, temp_out, power, n, cap, rx);
}
