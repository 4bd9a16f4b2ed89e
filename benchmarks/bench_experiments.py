"""Every registered experiment as a benchmark target.

One parametrised test runs each id of ``available_experiments()`` through
the ``run_paper_experiment`` fixture (``conftest.py``): a single round
under pytest-benchmark, the rendered rows persisted to
``benchmarks/reports/<id>.txt``. ``-k fig10`` selects one;
``repro-bench --list`` says what each id reproduces.
"""

import pytest

from repro.bench import available_experiments


@pytest.mark.parametrize("experiment_id", available_experiments())
def test_experiment(run_paper_experiment, experiment_id):
    result = run_paper_experiment(experiment_id)
    assert result.tables or result.series
