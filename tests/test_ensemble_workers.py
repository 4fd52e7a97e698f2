"""The ensemble never asks for more worker processes than it has instances.

A fork pool starts all ``max_workers`` processes at its first submit, so the
pool size is the number of processes.  The pool here is a fake that records
its size and runs the tasks in this process: nothing is ever started.
"""

import json

import pytest

from periodyn import cli


class RecordingPool:
    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool.sizes


def test_pool_is_no_larger_than_the_ensemble(pool_sizes):
    par = cli.run_ensemble(2, seed=5, grid=64, draws=5, workers=5000)
    assert pool_sizes == [2]
    assert par == cli.run_ensemble(2, seed=5, grid=64, draws=5, workers=1)


@pytest.mark.parametrize("count", [0, 1])
def test_one_instance_or_none_runs_in_process(pool_sizes, count):
    result = cli.run_ensemble(count, seed=5, grid=64, draws=5, workers=5000)
    assert result["counts"]["instances"] == count
    assert pool_sizes == []


def test_compare_caps_its_workers(pool_sizes, capsys):
    path = cli.builtin_config_path()
    assert cli.main(["compare", path, "--grid", "64", "--draws", "5",
                     "--ensemble", "2", "--workers", "5000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert pool_sizes == [2]
    assert report["parameters"]["workers"] == 5000
    assert report["results"]["ensemble"]["counts"]["instances"] == 2
