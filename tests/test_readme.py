"""The README's worked examples, run as written: their outputs cannot drift."""

from __future__ import annotations

from pathlib import Path

import pytest

from protoforge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str) -> str:
    """The body of the first fenced block after `marker`."""
    fence = README.index("```", README.index(marker))
    body = README.index("\n", fence) + 1
    return README[body:README.index("```", body)]


@pytest.mark.parametrize(
    "spec_marker, command, output_marker",
    [
        ("Put a problem in `line3.spec`", "compare", "its concurrent slot still delivers"),
        ("one `key = value` per line", "synth", "store-and-forward schedule"),
    ],
)
def test_readme_example_output(capsys, tmp_path, spec_marker, command, output_marker):
    spec = tmp_path / "example.spec"
    spec.write_text(_block_after(spec_marker), encoding="utf-8")
    assert main([command, str(spec)]) == 0
    assert capsys.readouterr().out == _block_after(output_marker)


def test_readme_trace_file_is_what_synth_writes(capsys, tmp_path):
    spec = tmp_path / "line3.spec"
    spec.write_text(_block_after("Put a problem in `line3.spec`"), encoding="utf-8")
    out = tmp_path / "line3.trace"
    assert main(["synth", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == _block_after("## Trace files")
