"""Unit checks of the acceptance suite's bookkeeping (not the criteria themselves)."""

import time
from functools import cached_property

import pytest

from spinbath import acceptance, bench, cli

BUILD_S = 0.3


def _stub_fig8_table() -> bench.ResultTable:
    columns = ["n_sys", "n_env", "lam", "beta", "realization", "sigma", "delta"]
    rows = [(4, 8, 0.0, beta, r, 0.2 + 0.01 * r, 0.1)
            for beta in acceptance.BETA_GRID for r in range(3)]
    return bench.ResultTable(columns, rows)


class LazyStubContext(acceptance.Context):
    """A Context whose fig8 table takes BUILD_S to build on first access."""

    @cached_property
    def _fig8(self):
        time.sleep(BUILD_S)
        return _stub_fig8_table(), BUILD_S


def test_criterion_2_counts_the_table_build_once():
    ctx = LazyStubContext()
    t0 = time.perf_counter()
    result = acceptance.criterion_2(ctx)
    wall = time.perf_counter() - t0
    # build time plus check time: at least the build, at most the whole call
    # (counting the build twice would exceed the call's wall time)
    assert BUILD_S <= result.runtime <= wall


@pytest.mark.parametrize("number", [0, -1, len(acceptance.CRITERIA) + 1])
def test_check_rejects_unknown_criterion(number, capsys):
    # an out-of-range number runs nothing, which must not read as a pass
    assert cli.main(["check", "--criterion", str(number)]) == 2
    assert "--criterion must be between 1 and" in capsys.readouterr().err
