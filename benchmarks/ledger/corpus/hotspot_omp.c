
void hotspot_step(float* temp_in, float* temp_out, float* power, int n,
                  float cap, float rx) {
    #pragma omp parallel for
    for (int gid = 0; gid < n; gid++) {
        float center = temp_in[gid];
        float left = center;
        float right = center;
        if (gid > 0) {
            left = temp_in[gid - 1];
        }
        if (gid < n - 1) {
            right = temp_in[gid + 1];
        }
        float delta = cap * (power[gid] + (left + right - 2.0f * center) * rx);
        temp_out[gid] = center + delta;
    }
}
