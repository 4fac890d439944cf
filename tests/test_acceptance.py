"""Top-level acceptance run: every criterion at its pinned tolerance.

Each test prints one ``PASS``/``FAIL`` line per criterion so a verbose run
reads as the acceptance protocol; the detailed sub-checks live in
``graphcorr.suite``.
"""
import json
from pathlib import Path

import pytest

from graphcorr.suite import CRITERIA, run_criterion

SEED = 42
#: the check names the benchmark's ``suite`` workload expects, in order
SUITE_CHECKS = Path(__file__).parents[1] / "perfbench" / "suite_checks.json"


@pytest.fixture(scope="module")
def all_checks():
    return {i + 1: run_criterion(i + 1, seed=SEED)
            for i in range(len(CRITERIA))}


@pytest.mark.parametrize("index,name",
                         [(i + 1, c[0]) for i, c in enumerate(CRITERIA)],
                         ids=[c[0] for c in CRITERIA])
def test_criterion(index, name, all_checks):
    checks = all_checks[index]
    assert checks, f"criterion {index} produced no checks"
    failed = [c for c in checks if not c.passed]
    worst = max((c.residual for c in checks if c.residual is not None),
                default=0.0)
    status = "FAIL" if failed else "PASS"
    print(f"{status} criterion {index:2d} [{name}]: "
          f"{len(checks) - len(failed)}/{len(checks)} checks, "
          f"max residual {worst:.3e}")
    assert not failed, [f"{c.name}: residual={c.residual} {c.detail}"
                        for c in failed]


def test_every_check_appears_exactly_once(all_checks):
    names = [c.name for checks in all_checks.values() for c in checks]
    assert len(names) == len(set(names))


def test_check_names_are_the_benchmark_list(all_checks):
    # the suite workload fails on a renamed, added or dropped check; the
    # names do not depend on the seed
    names = [c.name for checks in all_checks.values() for c in checks]
    assert names == json.loads(SUITE_CHECKS.read_text())
