
__global__ void layerforward(float* input, float* weights, float* hidden,
                             float* partial, int in_size, int hid) {
    __shared__ float node[16];
    __shared__ float prod[16];
    int by = blockIdx.x;
    int tx = threadIdx.x;
    int index_in = by * 16 + tx;
    if (tx < 16) {
        node[tx] = input[index_in];
    }
    __syncthreads();
    prod[tx] = weights[index_in * hid] * node[tx];
    __syncthreads();
    prod[tx] = prod[tx] * 1.0f;
    __syncthreads();
    for (int s = 8; s > 0; s = s / 2) {
        if (tx < s) {
            prod[tx] += prod[tx + s];
        }
        __syncthreads();
    }
    if (tx == 0) {
        partial[by] = prod[0];
    }
    hidden[index_in] = prod[tx];
}

__global__ void adjust_weights(float* weights, float* delta, float* input,
                               int n, float eta, float momentum) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        weights[tid] += eta * delta[tid] * input[tid] + momentum * weights[tid];
    }
}

void backprop_forward(float* input, float* weights, float* hidden, float* partial,
                      int in_size, int hid) {
    layerforward<<<in_size / 16, 16>>>(input, weights, hidden, partial, in_size, hid);
}

void backprop_adjust(float* weights, float* delta, float* input, int n,
                     float eta, float momentum) {
    adjust_weights<<<n / 16, 16>>>(weights, delta, input, n, eta, momentum);
}
