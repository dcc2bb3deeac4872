"""Golden trace digests: the sha256 of ``write_trace_csv`` output for a
fixed set of seeded scenarios.

A refactor that keeps the simulated behaviour keeps every digest.  The
three ``tie-`` scenarios put bandwidth changes, epoch timers, arrivals
and departures on the same instants, so they also pin the tie-breaking
order at equal timestamps, and ``eight-flow-ties`` pins it across many
flows: eight of them start together on equal epochs, so their arrivals
tie at up to eight at once, while a small lossy queue drops by overflow
and at random.  A deliberate behaviour change regenerates the table and
says why.
"""

import hashlib

import pytest

from conftest import flow, make_link, scenario
from iriscc.netsim import run_scenario
from iriscc.trace import write_trace_csv
from iriscc.units import mbps_to_pkts_per_ms

CAP10 = mbps_to_pkts_per_ms(10.0)
CAP20 = mbps_to_pkts_per_ms(20.0)
CAP40 = mbps_to_pkts_per_ms(40.0)

SCENARIOS = {
    # Acceptance 08's 20 -> 40 -> 20 Mbps steps, compressed in time.
    "capacity-steps": scenario(
        make_link(sched=((0.0, CAP20), (1500.0, CAP40), (3000.0, CAP20)), prop=10.0, queue=208),
        [flow("iris")], 4500.0),
    "schedule-mixed-lossy": scenario(
        make_link(sched=((0.0, CAP20), (3000.0, CAP10)), loss=0.01, seed=5),
        [flow("aimd"), flow("vegas", start=500.0), flow("iris", start=1000.0)], 6000.0),
    "iris-pair-100mbps": scenario(
        make_link(mbps=100.0), [flow("iris"), flow("iris")], 2000.0),
    "lossy-three-controllers": scenario(
        make_link(loss=0.02, seed=11), [flow("iris"), flow("aimd"), flow("vegas")], 6000.0),
    "iris-staggered-rtts": scenario(
        make_link(), [flow("iris", start=1000.0 * i, prop=p) for i, p in enumerate((25.0, 50.0, 10.0))],
        6000.0),
    "tie-step-down": scenario(
        make_link(sched=((0.0, 2.0), (5000.0, 1.0))),
        [flow("constant", rate=1.0)], 10_000.0),
    "tie-up-down-overload": scenario(
        make_link(sched=((0.0, 2.0), (5000.0, 4.0), (7000.0, 1.0)), queue=100),
        [flow("constant", rate=4.0)], 8000.0),
    "tie-half-ms-dip": scenario(
        make_link(sched=((0.0, 2.0), (2500.0, 0.5), (2500.5, 2.0), (3000.0, 8.0)), queue=50),
        [flow("constant", rate=2.0), flow("constant", rate=1.0, start=0.25)], 5000.0),
    "eight-flow-ties": scenario(
        make_link(queue=16, loss=0.01, seed=3),
        [flow("aimd"), flow("vegas"), flow("constant", rate=0.25), flow("aimd"),
         flow("vegas"), flow("constant", rate=0.25), flow("aimd"), flow("constant", rate=0.5)],
        4000.0),
}

DIGESTS = {
    "capacity-steps": "24ed515efcd41ff428f6b996bead41546e7f7f2b27a047e3ca21e3659eceb67d",
    "eight-flow-ties": "89e6a3e5d87084b9577359783281fce1216a99eb2717e8f859c4159f314c045b",
    "iris-pair-100mbps": "90404df3e2c17da6e5a0c866bbaf17dbafaa7c4bac5d33f036b17e5aef951a65",
    "iris-staggered-rtts": "e20315909ccf566d8b34398b9e59881b41edffa56fd8073deda4037f42da183d",
    "lossy-three-controllers": "b2c5c30902a8643e085c5f3ababa56fdbdc347c822396cd6f522be716cc598ca",
    "schedule-mixed-lossy": "887971d0cedcdb38d803f9067d4e659f97e94e1027218d67e6439a4f123d8f21",
    "tie-half-ms-dip": "9140661aaed7e331ad239f04af9f50d81da7cf9fb373f8cce7da6d00d443e521",
    "tie-step-down": "bbf1386424c1bb98840f6814d6194c225fd34a859db70b39f9f8edd7f58949bf",
    "tie-up-down-overload": "4d12d584be917e3de4901547288714313df4118866a6293ff736fbf25c20caad",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_is_unchanged(name, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run_scenario(SCENARIOS[name]), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
