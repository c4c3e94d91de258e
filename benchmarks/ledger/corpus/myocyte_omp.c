
void myocyte_solve(float* state, float* rates, int n, int steps, float dt) {
    for (int tid = 0; tid < n; tid++) {
        float y = state[tid];
        #pragma omp parallel for
        for (int s = 0; s < steps; s++) {
            y = y + dt * (rates[tid] - 0.1f * y);
        }
        state[tid] = y;
    }
}
