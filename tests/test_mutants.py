"""The mutant catalogue (``mutants/run.py``) matches the source it mutates:
a mutant whose old text is gone or occurs twice cannot be applied."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutant_runner", ROOT / "mutants" / "run.py")
runner = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)


@pytest.mark.parametrize("mutant", runner.CATALOGUE, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_names_are_unique_and_every_mutant_changes_its_text():
    names = [mutant.name for mutant in runner.CATALOGUE]
    assert len(set(names)) == len(names)
    assert all(mutant.old != mutant.new for mutant in runner.CATALOGUE)


def test_runner_reports_every_stale_text(tmp_path):
    for path in {mutant.path for mutant in runner.CATALOGUE}:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("")
    assert len(runner.stale_texts(tmp_path)) == len(runner.CATALOGUE)


def test_runner_exits_2_on_an_unknown_name(capsys):
    assert runner.main(["cell_noise_not_centred", "no_such_mutant"]) == 2
    err = capsys.readouterr().err
    assert "unknown mutant 'no_such_mutant'" in err
    assert "cell_noise_not_centred" not in err
