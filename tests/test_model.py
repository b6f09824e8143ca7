import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq.model import service_windows
from conftest import make_scenario
from oracles import _assign_serve_sets, back_pruned


def test_parse_minimal_document():
    s = cq.parse_scenario(
        '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}'
    )
    assert s.n_queues == 1
    assert s.n_populations == 1
    assert s.populations[0].gamma == 0.5
    assert s.total_mass == 1.0


def test_parse_sorts_queues_by_start_time():
    s = cq.parse_scenario(
        '{"queues":[{"mu":2,"t_start":0.5},{"mu":1,"t_start":0}],'
        '"populations":[{"alpha":1,"beta":1}]}'
    )
    assert [q.t_start for q in s.queues] == [0.0, 0.5]
    assert [q.mu for q in s.queues] == [1.0, 2.0]


def test_parse_sorts_populations_by_gamma():
    s = cq.parse_scenario(
        '{"queues":[{"mu":1,"t_start":0}],'
        '"populations":[{"alpha":1,"beta":1},{"alpha":1,"beta":3}]}'
    )
    assert [p.gamma for p in s.populations] == [0.25, 0.5]


def test_parse_rejects_negative_mu():
    with pytest.raises(cq.DomainError, match="mu"):
        cq.parse_scenario(
            '{"queues":[{"mu":-1,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}'
        )


def test_parse_rejects_unknown_keys():
    with pytest.raises(cq.ParseError, match="unknown"):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":0,"color":"red"}],'
            '"populations":[{"alpha":1,"beta":1}]}'
        )


def test_parse_reports_json_locus():
    with pytest.raises(cq.ParseError, match="line"):
        cq.parse_scenario("{not json}")


@pytest.mark.parametrize(
    "doc",
    [
        '{"populations":[{"alpha":1,"beta":1}]}',
        '{"queues":[{"mu":1,"t_start":0}]}',
        '{"queues":[{"mu":1}],"populations":[{"alpha":1,"beta":1}]}',
        '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1}]}',
    ],
)
def test_parse_rejects_missing_fields(doc):
    with pytest.raises(cq.ParseError):
        cq.parse_scenario(doc)


def test_parse_rejects_empty_arrays_and_bad_seed():
    with pytest.raises(cq.ParseError):
        cq.parse_scenario('{"queues":[],"populations":[{"alpha":1,"beta":1}]}')
    with pytest.raises(cq.ParseError):
        cq.parse_scenario('{"queues":[{"mu":1,"t_start":0}],"populations":[]}')
    with pytest.raises(cq.ParseError, match="seed"):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":1}],'
            '"options":{"seed":"forty-two"}}'
        )


def test_parse_rejects_bad_cost_weights():
    with pytest.raises(cq.DomainError, match="beta"):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":0}]}'
        )
    with pytest.raises(cq.DomainError, match="alpha"):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":-1,"beta":1}]}'
        )
    with pytest.raises(cq.DomainError, match="t_start"):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":-2}],"populations":[{"alpha":1,"beta":1}]}'
        )


@pytest.mark.parametrize(
    "options, field",
    [
        ({"tol": -1.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"grid_step": 0.0}, "grid_step"),
        ({"grid_step": -0.5}, "grid_step"),
        ({"grid_step": float("nan")}, "grid_step"),
        ({"grid_step": float("inf")}, "grid_step"),
    ],
)
def test_options_reject_bad_tol_and_grid_step(options, field):
    with pytest.raises(cq.DomainError, match=field):
        cq.Options(**options)


def test_options_accept_zero_tol_and_positive_grid_step():
    assert cq.Options(tol=0.0, grid_step=1e-3).grid_step == 1e-3


@pytest.mark.parametrize("options", ['{"tol": -1}', '{"grid_step": 0}', '{"grid_step": -0.5}'])
def test_parse_rejects_bad_tol_and_grid_step(options):
    with pytest.raises(cq.DomainError):
        cq.parse_scenario(
            '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":1}],'
            f'"options":{options}}}'
        )


def test_time_origin_shift():
    s = make_scenario([(1.0, 3.0), (1.0, 3.5)], [{"alpha": 1, "beta": 1}])
    assert s.time_origin == 3.0
    assert [q.t_start for q in s.queues] == [0.0, 0.5]
    doc = cq.scenario_to_dict(s)
    assert [q["t_start"] for q in doc["queues"]] == [3.0, 3.5]


def test_round_trip_field_for_field():
    s = make_scenario(
        [(1.5, 1.0), (0.4, 2.25)],
        [{"alpha": 2, "beta": 1, "mass": 0.7}, {"alpha": 1, "beta": 1}],
        tol=1e-8,
        seed=9,
    )
    again = cq.scenario_from_dict(json.loads(json.dumps(cq.scenario_to_dict(s))))
    assert again == s


def test_gamma_of():
    assert cq.gamma_of(1, 1) == 0.5
    assert cq.gamma_of(0, 1) == 0.0
    assert cq.gamma_of(3, 1) == 0.75
    with pytest.raises(cq.DomainError):
        cq.gamma_of(0, 0)


def test_validate_no_pruning_single_queue():
    s = make_scenario([(1.0, 0.0)], [{"alpha": 1, "beta": 1}])
    report = cq.pruned_scenario(s)[1]
    assert report.pruned_queues == () and report.messages == ()


def test_validate_prunes_late_queue():
    # remaining queue alone finishes at (1+0)/1 = 1 < 2, so queue 2 is useless
    s = make_scenario([(1.0, 0.0), (1.0, 2.0)], [{"alpha": 1, "beta": 1}])
    report = cq.pruned_scenario(s)[1]
    assert report.pruned_queues == (2,)
    assert report.messages


def test_validate_keeps_reachable_queue():
    # terminal time 0.75 > 0.5
    s = make_scenario([(1.0, 0.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1}])
    assert cq.pruned_scenario(s)[1].pruned_queues == ()


def test_validate_is_idempotent():
    s = make_scenario(
        [(1.0, 0.0), (1.0, 1.2), (1.0, 3.0)], [{"alpha": 1, "beta": 1}]
    )
    pruned, report = cq.pruned_scenario(s)
    assert report.pruned_queues
    assert cq.pruned_scenario(pruned)[1].pruned_queues == ()


def test_validate_accepts_gamma_ties():
    # the solvers take tied gammas as they are, so there is nothing to flag
    s = make_scenario(
        [(1.0, 0.0)], [{"alpha": 1, "beta": 1}, {"alpha": 2, "beta": 2}]
    )
    report = cq.pruned_scenario(s)[1]
    assert report.pruned_queues == () and report.messages == ()


def test_validate_reports_every_pruned_queue_last_opening_first():
    s = make_scenario(
        [(1.0, 0.0), (1.0, 3.0), (1.0, 2.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1}]
    )
    report = cq.pruned_scenario(s)[1]
    assert report.pruned_queues == (2, 3)
    assert [m.split(" pruned")[0] for m in report.messages] == ["queue 2", "queue 3"]
    assert all("finish all mass at 0.75" in m for m in report.messages)


# -- service_windows ----------------------------------------------------------


def _assert_matches_the_oracles(s):
    """One pass over the openings gives the pruning loop's queues and, on the
    pruned scenario, the fixed point's windows and bit-identical epochs."""
    pruned, _ = back_pruned(s)
    assert cq.pruned_scenario(s)[1].pruned_queues == pruned
    kept = replace(s, queues=tuple(q for q in s.queues if q.id not in pruned))
    assert cq.pruned_scenario(s)[0] == kept
    masses = [p.mass for p in s.populations]
    assign, taus = _assign_serve_sets(kept)
    assert service_windows(kept.queues, masses) == (tuple(assign), taus)
    # the queues that never open are the pruned ones
    assert service_windows(s.queues, masses) == (tuple(assign), taus)


@settings(max_examples=300, deadline=None)
@given(
    openings=st.lists(st.integers(0, 128), min_size=1, max_size=6, unique=True),
    rates=st.lists(st.integers(1, 40), min_size=6, max_size=6),
    masses=st.lists(st.integers(1, 48), min_size=1, max_size=4),
)
def test_service_windows_match_the_oracles_on_distinct_openings(openings, rates, masses):
    # dyadic openings, rates and masses keep every sum exact, so no
    # comparison sits within rounding of a tie (ties are pinned below)
    s = make_scenario(
        [(r / 8, t / 64) for r, t in zip(rates, openings)],
        [{"alpha": 1, "beta": 1, "mass": m / 16} for m in masses],
    )
    _assert_matches_the_oracles(s)


def test_service_windows_match_the_oracles_on_random_floats():
    rng = np.random.default_rng(8)
    for _ in range(300):
        K, N = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        starts = np.concatenate(([0.0], rng.uniform(0.0, 2.0, size=K - 1)))
        mus = rng.uniform(0.2, 5.0, size=K)
        s = make_scenario(
            [(float(m), float(t)) for m, t in zip(mus, starts)],
            [{"alpha": 1, "beta": 1, "mass": float(m)} for m in rng.uniform(0.1, 3.0, size=N)],
        )
        _assert_matches_the_oracles(s)


def test_service_windows_pin_exact_ties():
    # unit-rate queues at 0 and 0.5: mass 0.5 is served out exactly at 0.5,
    # so the second queue never opens; a second mass of 0.5 opens it
    queues = make_scenario([(1.0, 0.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1}]).queues
    assert service_windows(queues, [0.5]) == ((0,), [0.0, 0.5])
    assert service_windows(queues, [0.5, 0.5]) == ((0, 1), [0.0, 0.5, 0.75])
    alone = make_scenario([(1.0, 0.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1, "mass": 0.5}])
    assert cq.pruned_scenario(alone)[1].pruned_queues == (2,)
    pair = make_scenario(
        [(1.0, 0.0), (1.0, 0.5)],
        [{"alpha": 1, "beta": 3, "mass": 0.5}, {"alpha": 1, "beta": 1, "mass": 0.5}],
    )
    assert cq.pruned_scenario(pair)[1].pruned_queues == ()
    assert cq.solve_multi(pair).serve_sets == ((1,), (2,))


def test_scenario_accessors():
    s = make_scenario([(1.0, 0.0), (2.0, 0.5)], [{"alpha": 1, "beta": 1}])
    queues = {q.id: q for q in s.queues}
    assert queues[2].mu == 2.0
    assert queues[1].mu == 1.0
    assert sum(q.mu for q in s.queues) == 3.0
    assert 5 not in queues
    assert s.n_queues == 2
    assert replace(s, queues=s.queues[:1]).n_queues == 1
