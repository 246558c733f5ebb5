"""Property: the predecoded VP equals the operand-object oracle.

For random recorded programs, every race instance replays through
``VirtualProcessor`` and ``GenericVirtualProcessor`` in both orders,
log-following and live, with the classifier's fast-forwarded prefixes
and with fully interpreted ones, under each ``allow_*`` flag and step
limits on both sides of the spin-check threshold
(``oracles.VP_DIFF_CONFIGS``).  The programs include data-dependent
branches and heap offsets, so reordered replays leave the recorded
paths.  Every outcome field, and every failure's
kind and detail, must match.
"""

from hypothesis import HealthCheck, given, settings, target

from oracles import diff_virtual_processors
from repro.isa import assemble
from repro.race.happens_before import find_races
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler

from strategies import programs, seeds


@given(source=programs(data_dependent=True, min_actions=5), seed=seeds)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_predecoded_vp_matches_generic_vp(source, seed):
    program = assemble(source, name="prop_vp")
    _, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )
    ordered = OrderedReplay(log, program)
    instances = find_races(ordered)
    # Steer generation toward recordings with many races to replay.
    target(float(len(instances)))
    assert diff_virtual_processors(ordered, instances) == []
