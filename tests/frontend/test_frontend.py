"""Frontend tests: lexer, parser, codegen and end-to-end compile+execute."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.frontend import CodegenError, ParseError, compile_cuda, parse, tokenize
from repro.frontend import cast as ast
from repro.dialects import gpu as gpu_d, omp as omp_d, polygeist, scf
from repro.runtime import Interpreter
from repro.transforms import PipelineOptions
from repro.ir import verify
from tests.helpers import run_engine_matrix

ROOT = Path(__file__).resolve().parents[2]


NORMALIZE_SOURCE = """
__device__ float sum(float* data, int n) {
    float total = 0.0f;
    for (int i = 0; i < n; i += 1) {
        total += data[i];
    }
    return total;
}

__global__ void normalize(float* out, float* in, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float val = sum(in, n);
    if (tid < n) {
        out[tid] = in[tid] / val;
    }
}

void launch(float* d_out, float* d_in, int n) {
    normalize<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
"""

REDUCTION_SOURCE = """
__global__ void block_sum(float* data, float* out, int n) {
    __shared__ float buffer[32];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    buffer[tid] = data[gid];
    __syncthreads();
    for (int s = 16; s > 0; s = s / 2) {
        if (tid < s) {
            buffer[tid] += buffer[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        out[blockIdx.x] = buffer[0];
    }
}

void host(float* data, float* out, int n) {
    block_sum<<<n / 32, 32>>>(data, out, n);
}
"""

OPENMP_SOURCE = """
void scale(float* data, int n, float factor) {
    #pragma omp parallel for
    for (int i = 0; i < n; i += 1) {
        data[i] = data[i] * factor;
    }
}
"""


#: a one-line kernel body in a grid-stride-free launch: ``{body}`` sees
#: ``gid``, ``out`` and ``in``.
UNSUPPORTED_KERNEL = """
__global__ void k(float* out, float* in, int n) {{
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {{ {body} }}
}}
void launch(float* out, float* in, int n) {{ k<<<(n + 31) / 32, 32>>>(out, in, n); }}
"""

#: a kernel masking with hex literals.
HEX_MASK_SOURCE = """
__global__ void mask(int* out, int* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        out[gid] = (in[gid] * 0x9 + gid) & 0xff;
    }
}
void launch(int* out, int* in, int n) {
    mask<<<(n + 0x1f) / 32, 32>>>(out, in, n);
}
"""


class TestLexer:
    def test_tokens(self):
        tokens = tokenize("__global__ void f(float* x) { x[0] = 1.5f; }")
        kinds = [token.kind for token in tokens]
        assert "keyword" in kinds and "ident" in kinds and "float" in kinds
        assert tokens[-1].kind == "eof"

    def test_launch_chevrons(self):
        tokens = tokenize("k<<<grid, 32>>>(a);")
        texts = [token.text for token in tokens]
        assert "<<<" in texts and ">>>" in texts

    def test_comments_and_includes_skipped(self):
        tokens = tokenize("#include <stdio.h>\n// comment\n/* block */ int x;")
        texts = [token.text for token in tokens if token.kind != "eof"]
        assert texts == ["int", "x", ";"]

    def test_pragma_token(self):
        tokens = tokenize("#pragma omp parallel for\nfor(;;){}")
        assert tokens[0].kind == "pragma"
        assert "omp" in tokens[0].text

    def test_hex_literals_are_int_tokens(self):
        tokens = tokenize("a = 0xffffffff & 0XFFu + 0x1fUL;")
        assert [(token.kind, token.text) for token in tokens
                if token.kind == "int"] == [("int", "0xffffffff"), ("int", "0XFF"),
                                            ("int", "0x1f")]
        assert tokenize("0x")[1].kind == "ident"   # no digit: 0, then x

    #: source that once never finished lexing, or lexed without complaint,
    #: and what each now prints: its tokens' kinds, or the error's class and
    #: message.  Each runs in a subprocess, so a hang fails by its timeout.
    @pytest.mark.parametrize("call, printed", [
        ("tokenize('x = 1.5')", "ident op float eof"),
        ("tokenize('int n = 4')", "keyword ident op int eof"),
        ("tokenize('n = 12e')",
         "LexerError <cuda>:1:5: malformed number '12e': exponent has no digits"),
        ("tokenize('n = 0x1f')", "ident op int eof"),
        ("compile_cuda('void launch(float* o) { int n = 4', cuda_lower=True)",
         "ParseError <cuda>:1:34: expected ';', found ''"),
        ("tokenize('int x;\\n  s = \"abc')",
         "LexerError <cuda>:2:7: unterminated string literal"),
        ("tokenize('int x; /* open')", "LexerError <cuda>:1:8: unterminated comment"),
    ], ids=["float", "int", "exponent", "hex", "compile", "string", "comment"])
    def test_source_ending_anywhere_finishes(self, call, printed):
        code = ("from repro.frontend import compile_cuda, tokenize\n"
                "try:\n"
                f"    print(' '.join(token.kind for token in {call}))\n"
                "except SyntaxError as exc:\n"
                "    print(type(exc).__name__, exc)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == printed

    @pytest.mark.parametrize("literal, expected", [
        ("07", 7), ("010", 8), ("0x10", 16), ("00", 0),
        ("08", "k.cu:2:18: malformed number '08': invalid digit in octal literal"),
        ("1e", "k.cu:2:18: malformed number '1e': exponent has no digits"),
        ("1.5e+", "k.cu:2:18: malformed number '1.5e+': exponent has no digits"),
        ("1.0ff", "k.cu:2:18: malformed number '1.0ff': invalid suffix 'ff'"),
    ])
    def test_numeric_literals_follow_c(self, literal, expected):
        """C octal literals keep C's value; a malformed literal is a
        ``LexerError`` at its position, never a bare ``ValueError``."""
        from repro.frontend.lexer import LexerError

        source = f"void f(int* o) {{\n    o[0] = (int)({literal});\n}}\n"
        if isinstance(expected, str):
            with pytest.raises(LexerError) as raised:
                compile_cuda(source, filename="k.cu")
            assert str(raised.value) == expected
            return
        out = np.zeros(1, dtype=np.int32)
        Interpreter(compile_cuda(source, filename="k.cu")).run("f", [out])
        assert out[0] == expected


class TestParser:
    def test_parse_normalize(self):
        program = parse(NORMALIZE_SOURCE)
        assert len(program.functions) == 3
        kernel = program.find("normalize")
        assert kernel.is_kernel
        device = program.find("sum")
        assert device.is_device
        host = program.find("launch")
        assert any(isinstance(statement, ast.LaunchStmt) for statement in host.body.statements)

    def test_parse_shared_and_sync(self):
        program = parse(REDUCTION_SOURCE)
        kernel = program.find("block_sum")
        declarations = [s for s in kernel.body.statements if isinstance(s, ast.DeclStmt)]
        assert any(decl.shared and decl.array_dims == [32] for decl in declarations)

    def test_parse_omp_pragma(self):
        program = parse(OPENMP_SOURCE)
        loop = program.find("scale").body.statements[0]
        assert isinstance(loop, ast.ForStmt) and loop.omp_parallel

    def test_parse_error_reported(self):
        with pytest.raises(ParseError):
            parse("void f( { }")

    def test_array_extent_in_hex(self):
        kernel = parse("__global__ void k() { __shared__ float tile[0x20]; }").find("k")
        assert kernel.body.statements[0].array_dims == [32]

    def test_expression_precedence(self):
        program = parse("int f(int a, int b) { return a + b * 2; }")
        ret = program.find("f").body.statements[0]
        assert isinstance(ret.value, ast.BinOp) and ret.value.op == "+"
        assert isinstance(ret.value.rhs, ast.BinOp) and ret.value.rhs.op == "*"


class TestCodegen:
    def test_normalize_module_structure(self):
        module = compile_cuda(NORMALIZE_SOURCE)
        verify(module)
        assert module.lookup("launch") is not None
        assert module.lookup("sum") is not None
        launches = [op for op in module.walk() if isinstance(op, gpu_d.LaunchOp)]
        assert len(launches) == 1
        assert launches[0].kernel_name == "normalize"

    def test_syncthreads_becomes_gpu_barrier(self):
        module = compile_cuda(REDUCTION_SOURCE)
        assert any(isinstance(op, gpu_d.BarrierOp) for op in module.walk())

    def test_omp_pragma_becomes_parallel_loop(self):
        module = compile_cuda(OPENMP_SOURCE)
        assert any(isinstance(op, scf.ParallelOp) for op in module.walk())

    def test_error_on_unknown_kernel(self):
        with pytest.raises(CodegenError):
            compile_cuda("void f() { missing<<<1, 1>>>(); }")

    def test_error_on_syncthreads_outside_kernel(self):
        with pytest.raises(CodegenError):
            compile_cuda("void f() { __syncthreads(); }")

    @pytest.mark.parametrize("source, error, message", [
        (UNSUPPORTED_KERNEL.format(body="atomicAdd(&out[0], in[gid]);"),
         CodegenError, "call to unknown function 'atomicAdd'"),
        (UNSUPPORTED_KERNEL.format(
            body="float v = in[gid]; out[gid] = __shfl_down_sync(0xffffffff, v, 1);"),
         CodegenError, "call to unknown function '__shfl_down_sync'"),
        ("template <typename T>\n__global__ void k(T* out) { out[0] = 1; }",
         ParseError, "<cuda>:1:1: expected a type, found 'template'"),
        ("__global__ void k(float* out) {\n    extern __shared__ float buf[];\n}",
         ParseError, "<cuda>:2:5: unexpected token 'extern'"),
    ], ids=["atomics", "warp-shuffle", "template", "extern-shared"])
    def test_unsupported_cuda_is_named(self, source, error, message):
        """Each unsupported CUDA feature fails with its own class and message;
        a parse error names its ``file:line:col``."""
        with pytest.raises(error) as excinfo:
            compile_cuda(source, cuda_lower=True)
        assert str(excinfo.value) == message


class TestEndToEnd:
    def test_normalize_oracle_vs_cpuified(self):
        rng = np.random.default_rng(1)
        data = rng.random(64).astype(np.float32) + 0.5
        expected = data / data.sum()

        oracle_module = compile_cuda(NORMALIZE_SOURCE)
        oracle_out = np.zeros(64, dtype=np.float32)
        Interpreter(oracle_module).run("launch", [oracle_out, data.copy(), 64])
        assert np.allclose(oracle_out, expected, rtol=1e-4)

        cpu_module = compile_cuda(NORMALIZE_SOURCE, cuda_lower=True)
        cpu_out = np.zeros(64, dtype=np.float32)
        Interpreter(cpu_module).run("launch", [cpu_out, data.copy(), 64])
        assert np.allclose(cpu_out, expected, rtol=1e-4)

    def test_normalize_parallel_licm_hoists_sum(self):
        """The Fig. 1 motivation: after cpuify the sum() work runs once, not once
        per thread, so the dynamic op count drops by an order of magnitude."""
        data = np.ones(64, dtype=np.float32)

        unoptimized = compile_cuda(NORMALIZE_SOURCE, cuda_lower=True,
                                   options=PipelineOptions.opt_disabled())
        out_a = np.zeros(64, dtype=np.float32)
        interp_a = Interpreter(unoptimized)
        interp_a.run("launch", [out_a, data.copy(), 64])

        optimized = compile_cuda(NORMALIZE_SOURCE, cuda_lower=True)
        out_b = np.zeros(64, dtype=np.float32)
        interp_b = Interpreter(optimized)
        interp_b.run("launch", [out_b, data.copy(), 64])

        assert np.allclose(out_a, out_b, rtol=1e-5)
        assert interp_b.report.dynamic_ops * 5 < interp_a.report.dynamic_ops

    @pytest.mark.parametrize("flags", ["mincut,openmpopt,affine,innerser", "mincut", ""])
    def test_reduction_kernel_matches_numpy(self, flags):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(128).astype(np.float32)
        expected = data.reshape(4, 32).sum(axis=1)

        module = compile_cuda(REDUCTION_SOURCE, cuda_lower=True,
                              cpuify_options=flags if flags else None,
                              options=None if flags else PipelineOptions.opt_disabled())
        out = np.zeros(4, dtype=np.float32)
        Interpreter(module).run("host", [data.copy(), out, 128])
        assert np.allclose(out, expected, rtol=1e-4)
        # after lowering no GPU barrier survives
        assert not any(isinstance(op, (gpu_d.BarrierOp, polygeist.PolygeistBarrierOp))
                       for op in module.walk())

    def test_hex_mask_runs_alike_on_every_engine(self):
        module = compile_cuda(HEX_MASK_SOURCE, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())

        def arguments():
            data = np.random.default_rng(6).integers(0, 1 << 20, 96, dtype=np.int32)
            return [np.zeros(96, dtype=np.int32), data, 96]

        expected = arguments()
        Interpreter(module).run("launch", expected)
        assert np.array_equal(expected[0], (expected[1] * 9 + np.arange(96)) & 0xFF)
        run_engine_matrix(module, "launch", arguments, (0,), workers=2, label="hex mask")

    def test_openmp_reference_runs(self):
        module = compile_cuda(OPENMP_SOURCE, cuda_lower=True)
        data = np.arange(16, dtype=np.float32)
        Interpreter(module).run("scale", [data, 16, 3.0])
        assert np.allclose(data, np.arange(16) * 3.0)
        assert any(isinstance(op, omp_d.OmpParallelOp) for op in module.walk())
