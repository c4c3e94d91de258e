
void srad_step(float* image, float* grad_n, float* grad_s, float* coeff, int n, float lambda) {
    for (int tid = 0; tid < n; tid++) {
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
    #pragma omp parallel for
    for (int tid = 0; tid < n; tid++) {
        float cn = coeff[tid];
        float cs = cn;
        if (tid < n - 1) {
            cs = coeff[tid + 1];
        }
        float divergence = cn * grad_n[tid] + cs * grad_s[tid];
        image[tid] = image[tid] + 0.25f * lambda * divergence;
    }
}
