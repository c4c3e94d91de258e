
__global__ void solver_kernel(float* state, float* rates, int n, int steps, float dt) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        float y = state[tid];
        for (int s = 0; s < steps; s++) {
            float dy = rates[tid] - 0.1f * y;
            y = y + dt * dy;
        }
        state[tid] = y;
    }
}

void myocyte_solve(float* state, float* rates, int n, int steps, float dt) {
    solver_kernel<<<n / 16, 16>>>(state, rates, n, steps, dt);
}
