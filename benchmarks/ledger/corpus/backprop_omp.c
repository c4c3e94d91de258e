
void backprop_forward(float* input, float* weights, float* hidden, float* partial,
                      int in_size, int hid) {
    for (int by = 0; by < in_size / 16; by++) {
        float acc = 0.0f;
        #pragma omp parallel for
        for (int tx = 0; tx < 16; tx++) {
            int index_in = by * 16 + tx;
            hidden[index_in] = weights[index_in * hid] * input[index_in];
        }
        for (int tx = 0; tx < 16; tx++) {
            acc += hidden[by * 16 + tx];
        }
        partial[by] = acc;
    }
}

void backprop_adjust(float* weights, float* delta, float* input, int n,
                     float eta, float momentum) {
    #pragma omp parallel for
    for (int tid = 0; tid < n; tid++) {
        weights[tid] += eta * delta[tid] * input[tid] + momentum * weights[tid];
    }
}
