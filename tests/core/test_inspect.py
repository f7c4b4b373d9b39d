"""Compiler-state inspection tests."""

from repro.core.inspect import describe_state, summarize_state
from repro.core.state import CompilerState
from repro.core.stateful import StatefulPassManager
from repro.passmanager import build_pipeline
from tests.core.test_stateful import fresh_state, lower_src


def populated_state() -> CompilerState:
    state = fresh_state()
    state.begin_build()
    module = lower_src()
    StatefulPassManager(build_pipeline("O2"), state).run(module)
    return state


class TestSummarize:
    def test_counts_match(self):
        state = populated_state()
        summary = summarize_state(state)
        assert summary.total_records == state.num_records
        assert 0 < summary.dormant_records <= summary.total_records
        assert summary.build_counter == 1

    def test_positions_named_from_signature(self):
        summary = summarize_state(populated_state())
        names = {p.position: p.pass_name for p in summary.positions}
        assert names[0] == "mem2reg"
        assert "gvn" in names.values()

    def test_empty_state(self):
        summary = summarize_state(fresh_state())
        assert summary.total_records == 0
        assert summary.dormancy_rate == 0.0

    def test_describe_renders(self):
        text = describe_state(populated_state())
        assert "compiler state:" in text
        assert "mem2reg" in text
        assert "%" in text


class TestCLIInspect:
    def test_reproc_inspect_state(self, tmp_path, capsys):
        from repro.cli import reproc_main

        (tmp_path / "p.mc").write_text("int main() { print(1); return 0; }")
        state_file = tmp_path / "s.json"
        code = reproc_main(
            [
                str(tmp_path / "p.mc"),
                "--stateful",
                "--state-file",
                str(state_file),
                "--inspect-state",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "compiler state:" in err and "mem2reg" in err
