
__global__ void srad_gradient(float* image, float* grad_n, float* grad_s, float* coeff,
                              int n, float lambda) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        float center = image[tid];
        float north = center;
        float south = center;
        if (tid > 0) {
            north = image[tid - 1];
        }
        if (tid < n - 1) {
            south = image[tid + 1];
        }
        float dn = north - center;
        float ds = south - center;
        grad_n[tid] = dn;
        grad_s[tid] = ds;
        float g2 = (dn * dn + ds * ds) / (center * center + 0.00001f);
        coeff[tid] = 1.0f / (1.0f + g2);
    }
}

__global__ void srad_update(float* image, float* grad_n, float* grad_s, float* coeff,
                            int n, float lambda) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        float cn = coeff[tid];
        float cs = cn;
        if (tid < n - 1) {
            cs = coeff[tid + 1];
        }
        float divergence = cn * grad_n[tid] + cs * grad_s[tid];
        image[tid] = image[tid] + 0.25f * lambda * divergence;
    }
}

void srad_step(float* image, float* grad_n, float* grad_s, float* coeff, int n, float lambda) {
    srad_gradient<<<n / 32, 32>>>(image, grad_n, grad_s, coeff, n, lambda);
    srad_update<<<n / 32, 32>>>(image, grad_n, grad_s, coeff, n, lambda);
}
