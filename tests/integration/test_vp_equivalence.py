"""The predecoded virtual processor against the operand-object oracle.

``VirtualProcessor`` runs every phase through one loop over the
predecoded dispatch records; ``GenericVirtualProcessor``
(``tests/oracles/generic_interpreters.py``) steps the same phases
through the seed's ``_step``/``_execute`` pair.  On every race instance
of every paper-suite execution, in both orders, log-following and live,
with each ``allow_*`` flag off and on, the two must return identical
``VPOutcome`` fields or fail with an identical ``(kind, detail)``.
The random-program property (``tests/property/test_prop_vp.py``) adds
interpreted prefixes and small step limits.
"""

import pytest

from oracles import VP_DIFF_CONFIGS, diff_virtual_processors
from repro.race.happens_before import find_races
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite

#: Each ``allow_*`` flag off and on, at the default step limit.
ALLOW_FLAG_CONFIGS = tuple(
    config for config in VP_DIFF_CONFIGS if config.step_limit == 20_000
)


@pytest.mark.parametrize(
    "execution", paper_suite(), ids=lambda execution: execution.execution_id
)
def test_suite_execution_matches_generic_vp(execution):
    program = execution.workload.program()
    _, log = record_run(
        program,
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
    )
    ordered = OrderedReplay(log, program)
    instances = find_races(ordered)
    assert diff_virtual_processors(
        ordered, instances, configs=ALLOW_FLAG_CONFIGS, interpret_prefixes=False
    ) == []


def test_allow_flag_configs_cover_each_flag():
    assert len(ALLOW_FLAG_CONFIGS) == 4
    assert {
        (config.allow_unrecorded_control_flow, config.allow_unknown_addresses)
        for config in ALLOW_FLAG_CONFIGS
    } == {(False, False), (False, True), (True, False), (True, True)}
