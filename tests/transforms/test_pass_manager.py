"""PassManager statistics: one entry per pass run, verification timed apart."""

import pytest

from repro.frontend import compile_cuda
from repro.ir import VerificationError
from repro.rodinia import BENCHMARKS
from repro.transforms import CSEPass, Pass, PassManager, PipelineOptions
from repro.transforms.cpuify import build_pipeline


def _unlowered():
    return compile_cuda(BENCHMARKS["matmul"].cuda_source, cuda_lower=False, cache=False)


class _BreakTheIR(Pass):
    NAME = "break-the-ir"

    def run(self, module) -> bool:
        fn = module.functions[0]
        fn.body_block.operations[0].parent_block = None
        return True


class TestStatistics:
    def test_pipeline_verifies_after_every_pass_and_says_how_long(self, capsys):
        pipeline = build_pipeline(PipelineOptions.all_optimizations(), verbose=True)
        assert pipeline.verify_each
        pipeline.run(_unlowered())
        assert [stat.name for stat in pipeline.statistics] == \
            [pass_.NAME for pass_ in pipeline.passes]
        assert all(stat.seconds > 0 and stat.verify_seconds > 0
                   for stat in pipeline.statistics)

        live = capsys.readouterr().out.splitlines()
        assert len(live) == len(pipeline.passes)
        assert all(line.startswith("  [pass] ") and "   verify " in line for line in live)

        *passes, total, verify_row = pipeline.statistics_summary().splitlines()[1:]
        assert len(passes) == len({pass_.NAME for pass_ in pipeline.passes})
        assert total.split()[:2] == ["total", str(len(pipeline.passes))]
        name, runs, milliseconds = verify_row.split()
        assert (name, int(runs)) == ("verify", len(pipeline.passes))
        assert float(milliseconds) == pytest.approx(
            sum(stat.verify_seconds for stat in pipeline.statistics) * 1e3, abs=0.01)

    def test_no_verification_no_verify_time(self):
        manager = PassManager([CSEPass()], verify_each=False)
        manager.run(_unlowered())
        (stat,) = manager.statistics
        assert stat.verify_seconds == 0.0
        assert manager.statistics_summary().splitlines()[-1].split() == ["verify", "0", "0.00"]

    def test_the_pass_that_broke_the_ir_is_still_recorded(self, capsys):
        manager = PassManager([CSEPass(), _BreakTheIR(), CSEPass()], verbose=True)
        with pytest.raises(VerificationError):
            manager.run(_unlowered())
        assert [stat.name for stat in manager.statistics] == ["cse", "break-the-ir"]
        assert "break-the-ir" in capsys.readouterr().out.splitlines()[-1]
