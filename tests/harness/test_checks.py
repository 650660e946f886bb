"""Each artifact's ``check()``: the paper's claims, without simulating.

A hand-built result that meets every claim checks clean; one just past a
claim's bound fails that claim alone, with a line naming it.
"""

import pytest

from repro.harness import (
    Fig5Result,
    Fig6Result,
    Fig7aResult,
    Fig7bResult,
    SCResult,
    Table3Result,
)
from repro.sim.config import Mode

STRICT = [1.0, 0.92, 0.85, 0.75, 0.65]


def fig5(apache=(0.95, 0.90), ocean=(0.98, 0.92)):
    return Fig5Result([("Apache", "Web", *apache), ("ocean", "Scientific", *ocean)], 10)


def fig6a(points=(1.0, 0.9, 0.8, 0.7, 0.6)):
    return Fig6Result(Mode.STRICT, (0, 10, 20, 30, 40), {"OLTP": list(points)})


def fig6b(points=(0.95, 0.9, 0.8, 0.7, 0.6), strict=STRICT):
    return Fig6Result(
        Mode.REUNION, (0, 10, 20, 30, 40), {"OLTP": list(points)}, {"OLTP": list(strict)}
    )


def table3(apache=(0.0, 2000, 30000, 2500), em3d=(4000, 9000, 18000, 900)):
    return Table3Result([("Apache", *apache), ("em3d", *em3d)])


def fig7a(apache=(0.85, 0.63, 0.20), ocean=(0.98, 0.87, 0.75)):
    return Fig7aResult([("Apache", "Web", *apache), ("ocean", "Scientific", *ocean)])


def fig7b(hardware=(0.91, 0.66), software=(0.92, 0.39)):
    return Fig7bResult((0, 40), list(hardware), list(software))


def sc(tso=(0.87, 0.66), sc=(0.47, 0.18)):
    return SCResult((10, 40), list(tso), list(sc))


@pytest.mark.parametrize("build", [fig5, fig6a, fig6b, table3, fig7a, fig7b, sc])
def test_a_result_meeting_every_claim_checks_clean(build):
    assert build().check() == []


#: One result per claim, each just past that claim's bound, and a phrase
#: of the one line its check must return.
PAST_ONE_BOUND = {
    "fig5 Reunion above Strict x 1.05": (fig5(apache=(0.95, 0.9985)), "Apache: Reunion"),
    "fig5 Reunion at 0.4": (fig5(ocean=(0.98, 0.4)), "ocean: Reunion"),
    "fig5 Strict above 1.08": (fig5(ocean=(1.081, 0.92)), "ocean: Strict 1.081 is above"),
    "fig5 Strict commercial": (fig5(apache=(0.80, 0.75)), "Strict commercial average"),
    "fig5 Strict scientific": (
        fig5(apache=(0.85, 0.80), ocean=(0.90, 0.85)),
        "Strict scientific average 0.900 is not above",
    ),
    "fig5 Reunion commercial": (fig5(apache=(0.95, 0.70)), "Reunion commercial average"),
    "fig5 scientific below commercial": (
        fig5(apache=(0.97, 0.90), ocean=(0.949, 0.92)),
        "falls more than 0.02 below commercial",
    ),
    "fig6a 0 cycles": (fig6a((0.93, 0.9, 0.8, 0.7, 0.6)), "Strict at 0 cycles"),
    "fig6a gain": (fig6a((0.94, 0.95, 0.96, 0.97, 0.97)), "Strict gains from latency"),
    "fig6a rise": (fig6a((1.0, 0.8, 0.85, 0.7, 0.6)), "Strict rises by over 0.04"),
    "fig6a 40 cycles": (fig6a((1.0, 0.9, 0.7, 0.55, 0.49)), "Strict at 40 cycles"),
    "fig6b rise": (
        fig6b((0.95, 0.85, 0.91, 0.7, 0.6), strict=(1.0, 0.92, 0.95, 0.75, 0.65)),
        "Reunion rises by over 0.05",
    ),
    "fig6b beats Strict": (
        fig6b(strict=(1.0, 0.92, 0.85, 0.64, 0.54)),
        "Reunion beats Strict",
    ),
    "fig6b no zero-latency penalty": (
        fig6b((0.995, 0.9, 0.8, 0.7, 0.6)),
        "penalty at 0 cycles 0.005 is not above 0.01",
    ),
    "table3 null below half of shared": (
        table3(em3d=(4000, 9000, 4000, 900)),
        "em3d: null 4,000.0 is below half",
    ),
    "table3 global above shared": (
        table3(em3d=(11276, 9000, 18000, 900)),
        "em3d: global 11,276.0 exceeds shared",
    ),
    "table3 null at 100": (table3(em3d=(0, 150, 100, 900)), "em3d: null 100.0 is not above"),
    "table3 commercial null": (
        table3(apache=(300, 2000, 30000, 2500)),
        "commercial null average",
    ),
    "table3 commercial TLB": (table3(apache=(0.0, 2000, 30000, 3)), "commercial TLB-miss"),
    "fig7a global trails shared": (
        fig7a(ocean=(0.98, 1.041, 0.75)),
        "ocean: global 0.980 trails shared 1.041",
    ),
    "fig7a shared trails null": (
        fig7a(ocean=(0.98, 0.87, 0.93)),
        "ocean: shared 0.870 trails null",
    ),
    "fig7a global at 0.6": (fig7a(apache=(0.6, 0.5, 0.2)), "Apache: global 0.600 is not"),
    "fig7a null average": (
        fig7a(apache=(0.85, 0.80, 0.80), ocean=(0.98, 0.87, 0.85)),
        "suite null average",
    ),
    "fig7b software faster": (fig7b(software=(0.95, 0.39)), "software is faster"),
    "fig7b no 40-cycle penalty": (fig7b(software=(0.92, 0.65)), "no software-TLB penalty"),
    "fig7b gap fades": (
        Fig7bResult((0, 20, 40), [0.9, 0.8, 0.7], [0.8, 0.6, 0.65]),
        "below the smallest earlier one",
    ),
    "sc above TSO": (sc(sc=(0.90, 0.18)), "SC is not below TSO + 0.02"),
    "sc 40-cycle loss": (sc(tso=(0.87, 0.80), sc=(0.47, 0.71)), "SC is not 0.10 below TSO"),
    "sc at 0.75": (sc(tso=(0.87, 0.95), sc=(0.47, 0.75)), "SC at 40 cycles is not below 0.75"),
}


@pytest.mark.parametrize(
    "result, phrase", PAST_ONE_BOUND.values(), ids=list(PAST_ONE_BOUND)
)
def test_a_result_past_one_bound_fails_that_claim_alone(result, phrase):
    problems = result.check()
    assert len(problems) == 1, problems
    assert phrase in problems[0]
