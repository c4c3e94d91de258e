
void nw_step(int* score, int* reference, int n, int diag, int penalty) {
    #pragma omp parallel for
    for (int i = 1; i <= n; i++) {
        int j = diag - i + 1;
        if (j >= 1 && j <= n) {
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
}
