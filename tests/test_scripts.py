"""The experiment scripts run end to end at their smallest settings."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trailing_scores(line, count):
    scores = [float(v) for v in line.split()[-count:]]
    assert all(0.0 <= v <= 1.0 for v in scores), line
    return scores


@pytest.mark.parametrize("name, argv, rows, columns", [
    ("synthetic_benchmark", ["--seeds", "1", "--epochs", "1"], ["0", "mean"], 5),
    ("modality_ablation", ["--seed", "0", "--epochs", "1"],
     ["random init", "image only", "all three terms"], 1),
])
def test_script_runs_at_smallest_settings(name, argv, rows, columns, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for row in rows:
        matches = [line for line in lines if line.strip().startswith(row)]
        assert matches, f"{name}: no output row starting with {row!r}"
        trailing_scores(matches[0], columns)
