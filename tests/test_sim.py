import hashlib
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq import sim
from conftest import (
    make_scenario,
    single_queue_scenario,
    two_queue_worked_scenario,
    wide_scenario,
)
from oracles import (
    busy_periods_by_shift,
    convergence_study,
    density_table_by_segments,
    grouped_by_queue,
    queue_labels,
    route_by_columns,
    sample_arrivals_in_draw_order,
    scaled_paths_by_process,
)


def equilibrium_profile(s):
    return cq.solve_multi(s).profile


# -- sampling -----------------------------------------------------------------


def test_sampling_is_deterministic():
    profile = cq.ArrivalProfile((cq.Segment(1, 1, -1.0, 1.0, 0.5),))
    a = sim.sample_arrivals(profile, 4, seed=7)
    b = sim.sample_arrivals(profile, 4, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    c = sim.sample_arrivals(profile, 4, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_sampling_respects_support():
    profile = cq.ArrivalProfile((cq.Segment(1, 1, -1.0, 1.0, 0.5),))
    events = sim.sample_arrivals(profile, 4, seed=7)
    times = events[0]
    assert times.size == 4
    assert np.all(np.diff(times) >= 0)
    assert np.all((times >= -1.0) & (times <= 1.0))
    assert np.all(queue_labels(events) == 1)


def test_sampling_routing_proportions():
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    queues = queue_labels(sim.sample_arrivals(profile, 100_000, seed=5))
    frac = float(np.mean(queues == 1))
    # binomial 3-sigma band around 0.75
    sigma = np.sqrt(0.75 * 0.25 / 100_000)
    assert abs(frac - 0.75) <= 3 * sigma


def test_sampling_no_duplicate_times():
    profile = cq.ArrivalProfile((cq.Segment(1, 1, -1.0, 1.0, 0.5),))
    times = sim.sample_arrivals(profile, 10_000, seed=3)[0]
    assert np.unique(times).size == times.size


def test_sampling_skips_interior_gaps():
    profile = cq.ArrivalProfile(
        (cq.Segment(1, 1, 0.0, 1.0, 0.5), cq.Segment(1, 1, 2.0, 3.0, 0.5))
    )
    times = sim.sample_arrivals(profile, 5_000, seed=1)[0]
    inside_gap = (times > 1.0) & (times < 2.0)
    assert not np.any(inside_gap)


def test_sampling_rejects_empty_profile():
    with pytest.raises(cq.DomainError):
        sim.sample_arrivals(cq.ArrivalProfile(()), 10, seed=0)


def test_sampling_rejects_a_profile_whose_mass_overflows():
    # each row's mass is finite, their sum is not: no NaN times, no warning
    profile = cq.ArrivalProfile([(1, 1, 0.0, 1.0, 1e308), (1, 2, 0.0, 1.0, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cq.DomainError, match="overflows"):
            sim.sample_arrivals(profile, 5, seed=0)


def _assert_same_events(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize(
    "build, n, seed, digest",
    [
        (two_queue_worked_scenario, 100_000, 0,
         "d81f355d9242447a6d98772b3447fc887144c122fa42d2f63bd03159c7932ce8"),
        (two_queue_worked_scenario, 100_000, 7919,
         "229588aaf937309e963c01717734138ebf536a04e40d0a859cace3d9aafd5bf7"),
        (wide_scenario, 20_000, 0,
         "0f4468039ce6624f63a91dd5b15480d36e27620ea844b015bc61b5dd091f2820"),
    ],
)
def test_sampled_streams_are_pinned(build, n, seed, digest):
    # digests of the time-ordered streams, recorded before the sampler grouped
    # its events by queue: the draw-order oracle still gives them, and the
    # sampler gives them regrouped by queue, one block per profile queue
    profile = equilibrium_profile(build())
    times, queues = sample_arrivals_in_draw_order(profile, n, seed)
    assert hashlib.sha256(times.tobytes() + queues.tobytes()).hexdigest() == digest
    _assert_same_events(sim.sample_arrivals(profile, n, seed),
                        grouped_by_queue(times, queues, profile.queue_ids))


def test_sampler_memory_is_linear_in_n():
    # O(n + I K) for n users, I knot intervals and K queues
    profile = equilibrium_profile(wide_scenario())
    tracemalloc.start()
    try:
        sim.sample_arrivals(profile, 50_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _traced_peak(fn):
    """Peak traced memory while ``fn()`` runs, above what was traced when it
    started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# what a traced peak may carry beyond its per-user bytes: interpreter objects
# and the O(I K) routing table, none of which grows with n
_FIXED_BYTES = 2**16


def test_events_keep_8_bytes_per_user():
    # sample_arrivals' docstring: the events it returns keep the times and
    # each queue's block bounds, no queue id per user
    profile = equilibrium_profile(two_queue_worked_scenario())

    def held(users):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            events = sim.sample_arrivals(profile, users, seed=0)
            return tracemalloc.get_traced_memory()[0] - base, events[0].size
        finally:
            tracemalloc.stop()

    n = 100_000
    held(10)  # warm up
    (small, _), (big, size) = held(n), held(2 * n)
    assert size == 2 * n
    assert big - small <= 8 * n + _FIXED_BYTES, (big - small) / n


def test_des_releases_the_events_it_is_handed():
    # handed the sampler's times and block bounds, the DES never holds more
    # than the sampler's own peak
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=200_000, seed=0)
    sim.run_des(s, sim.sample_arrivals(profile, 10, cfg.seed), cfg)  # warm up
    sampler = _traced_peak(lambda: sim.sample_arrivals(profile, cfg.n, cfg.seed))
    both = _traced_peak(lambda: sim.run_des(s, sim.sample_arrivals(profile, cfg.n, cfg.seed), cfg))
    assert both <= sampler + _FIXED_BYTES, (both, sampler)


def test_replication_memory_grows_by_the_sampler_peak_per_user():
    # sim.replications' docstring: a replication's traced peak grows by the
    # sampler's 32 bytes per user (worked pair)
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    n = 100_000

    def peak(users):
        runs = sim.replications(s, profile, sim.SimConfig(n=users, seed=0))
        return _traced_peak(lambda: [run.sup_errors for run in runs])

    small, big = peak(n), peak(2 * n)
    assert big - small <= 32 * n + _FIXED_BYTES, (big - small) / n


def test_routing_tail_joins_a_queue_with_density():
    # the last row's cumulative routing probabilities end below 1
    density = np.array([[1.0] + [0.0] * 7, [1.0] * 7 + [0.0]])
    last = np.cumsum(density[1] / density[1].sum())[-1]
    assert last < 1.0
    # one draw in row 0, then two in row 1
    v = np.array([0.5, np.nextafter(1.0, 0.0), 0.0])
    choice = sim._route(density, density.sum(axis=1), np.array([0, 1, 3]), v)
    assert density[1, choice[1]] > 0
    assert choice.tolist() == [0, 6, 0]


def _interval_order(idx, rows):
    """The draws of each row grouped in row order, and the slice bounds."""
    order = np.argsort(idx, kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(idx, minlength=rows))))


@pytest.mark.parametrize("build", [two_queue_worked_scenario, wide_scenario])
def test_route_matches_the_column_count_oracle(build, monkeypatch):
    # the (density, total_density) table the sampler routes through
    tables = []

    def recording(density, total, bounds, v):
        tables.append((density, total))
        idx = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        return route_by_columns(density, total, idx, v)

    monkeypatch.setattr(sim, "_route", recording)
    sim.sample_arrivals(equilibrium_profile(build()), 16, seed=0)
    monkeypatch.undo()
    density, total_density = tables[0]
    rows = density.shape[0]
    rng = np.random.default_rng(3)
    # every row also meets v = 0, v equal to each of its cumulative routing
    # probabilities below 1, and the largest v below 1 (the rounding tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.cumsum(density / total_density[:, None], axis=1)
    on_knot = np.nonzero(table < 1.0)
    idx = np.concatenate(
        (rng.integers(0, rows, 20_000), np.arange(rows), on_knot[0], np.arange(rows))
    )
    v = np.concatenate(
        (rng.random(20_000), np.zeros(rows), table[on_knot], np.full(rows, np.nextafter(1.0, 0.0)))
    )
    order, bounds = _interval_order(idx, rows)
    idx, v = idx[order], v[order]
    choice = sim._route(density, total_density, bounds, v)
    assert np.array_equal(choice, route_by_columns(density, total_density, idx, v))
    assert np.all(density[idx, choice] > 0)


# overlapping rows at one queue, rows out of time order, a zero-mass row and
# a zero-density row: each cell sums several densities in profile order
_OVERLAPPING = cq.ArrivalProfile([
    (1, 2, 0.1, 0.7, 0.3),
    (2, 5, -0.4, 0.2, 1.0 / 3.0),
    (1, 2, 0.0, 0.4, 0.7),
    (3, 2, 0.2, 0.2, 4.0),
    (2, 2, -0.4, 0.9, 0.1),
    (3, 5, 0.3, 0.6, 0.0),
    (1, 5, 0.05, 0.7, 2.0 / 7.0),
])


@pytest.mark.parametrize(
    "profile",
    [_OVERLAPPING, equilibrium_profile(wide_scenario())],
    ids=["overlapping", "wide"],
)
def test_density_table_is_the_per_segment_loop(profile, monkeypatch):
    tables = []

    def recording(density, total, bounds, v):
        tables.append((density, total))
        return np.zeros(v.size, dtype=np.intp)

    monkeypatch.setattr(sim, "_route", recording)
    sim.sample_arrivals(profile, 16, seed=0)
    density, total = tables[0]
    expected = density_table_by_segments(profile)
    assert density.shape == expected.shape
    assert density.tobytes() == expected.tobytes()
    assert total.tobytes() == expected.sum(axis=1).tobytes()


# both queues on an interval eight ulps wide: about 200,000 draws share nine
# distinct times, so nearly every event is tied with another
_TIED = cq.ArrivalProfile([
    (1, 1, 1.0, 1.0 + 8 * 2.0**-52, 3e14),
    (1, 2, 1.0, 1.0 + 8 * 2.0**-52, 1e14),
])


@pytest.mark.parametrize(
    "profile",
    [
        equilibrium_profile(two_queue_worked_scenario()),
        equilibrium_profile(wide_scenario()),
        _OVERLAPPING,
        _TIED,
    ],
    ids=["worked-pair", "wide", "overlapping", "tied"],
)
def test_sampler_is_the_draw_order_oracle(profile):
    # byte for byte the time-ordered oracle regrouped by queue: tied times
    # are equal values, so their order within a queue leaves no trace
    for n, seed, rep in ((1, 0, 0), (2, 3, 1), (17, 7919, 0), (1000, 1, 2), (200_000, 0, 1)):
        want = sample_arrivals_in_draw_order(profile, n, seed, replication=rep)
        _assert_same_events(sim.sample_arrivals(profile, n, seed, replication=rep),
                            grouped_by_queue(*want, profile.queue_ids))


def test_tied_profile_takes_only_the_key_run_repair(monkeypatch):
    # nearly every time of the tied case ties, yet the only lexsort is the
    # run repair of the uniforms' uint64 keys: no run of float times is
    # repaired.  Drawn uniforms give distinct keys at n < 2^11, so there is
    # none; uniforms drawn in equal pairs put all 1000 keys in tied runs
    calls = []
    lexsort, stream = np.lexsort, sim._stream

    def recording(keys, *args, **kwargs):
        calls.append([np.asarray(k).dtype.kind for k in keys] + [np.shape(keys)[-1]])
        return lexsort(keys, *args, **kwargs)

    def paired(seed, replication, index):
        if index == sim._ARRIVAL_STREAM:
            pairs = np.random.default_rng(seed).random(500)
            return SimpleNamespace(random=lambda n: np.repeat(pairs, 2))
        return stream(seed, replication, index)

    monkeypatch.setattr(np, "lexsort", recording)
    sim.sample_arrivals(_TIED, 1000, seed=1, replication=2)
    assert calls == []
    monkeypatch.setattr(sim, "_stream", paired)
    sim.sample_arrivals(_TIED, 1000, seed=1, replication=2)
    monkeypatch.undo()
    # one lexsort of (uniforms, run numbers) at the tied keys' positions
    assert calls == [["f", "i", 1000]]


def test_tied_sampler_memory_grows_by_32_bytes_per_user():
    # sample_arrivals' docstring: the traced peak grows by 32 bytes per user
    # whether or not times tie, here when nearly every one does
    def peak(users):
        return _traced_peak(lambda: sim.sample_arrivals(_TIED, users, seed=0))

    n = 100_000
    peak(10)  # warm up
    small, big = peak(n), peak(2 * n)
    assert big - small <= 32 * n + _FIXED_BYTES, (big - small) / n


def test_a_time_that_rounds_past_its_knot_is_capped_at_it(monkeypatch):
    # this arrival uniform falls in the first interval, whose inverse CDF
    # rounds it to 1.1333857763418109e-07, past the interval's right knot
    knot = 1.1333857679079245e-07
    profile = cq.ArrivalProfile([
        (1, 1, -8.77299543303145, knot, 9.391383672616298),
        (1, 1, knot, 0.03818523919061176, 0.0026317490596624513),
    ])
    stream = sim._stream

    def pinned(seed, replication, index):
        if index == sim._ARRIVAL_STREAM:
            return SimpleNamespace(random=lambda n: np.array([0.9999987802784956]))
        return stream(seed, replication, index)

    monkeypatch.setattr(sim, "_stream", pinned)
    times = sim.sample_arrivals(profile, 1, seed=0)[0]
    assert times[0] <= knot, repr(times[0])


def _uniform_ties(n, seed, kinds):
    """n uniforms in [0, 1), each drawn from one of ``kinds``: plain draws,
    draws rounded down to a few decimals, zeros, neighbours a few ulps apart
    (at 0.5, and just below 1) and values too small to reach the key."""
    rng = np.random.default_rng(seed)
    ulp, scale = 2.0**-53, 10.0 ** rng.integers(1, 4)
    pools = {
        "plain": rng.random(n),
        "rounded": np.floor(rng.random(n) * scale) / scale,
        "zero": np.zeros(n),
        "ulps": 0.5 + rng.integers(0, 16, n) * ulp,
        "below_one": 1.0 - rng.integers(1, 16, n) * ulp,
        "tiny": rng.random(n) * 2.0**-60,
    }
    pick = rng.integers(0, len(kinds), n)
    return np.choose(pick, [pools[k] for k in kinds])


@given(
    st.one_of(st.integers(0, 40), st.sampled_from([2047, 2048, 2049, 2050, 4096, 4097])),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["plain", "rounded", "zero", "ulps", "below_one", "tiny"]),
             min_size=1, max_size=3, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_uniform_order_is_the_lexsort_of_value_and_index(n, seed, kinds):
    # n on both sides of 2^11, where the key starts to drop low bits of r
    r = _uniform_ties(n, seed, kinds)
    assert np.array_equal(sim._uniform_order(r), np.lexsort((np.arange(n), r)))


def test_sampler_sorts_the_draws_once(monkeypatch):
    # per replication, across sampler and DES: one n-sized value sort, of
    # packed keys in _uniform_order, and one n-sized argsort, of the routed
    # columns in their narrowest unsigned type (numpy radix-sorts 8 bits); no
    # n-sized lexsort
    n = 100_000
    sorts, ordered = [], []

    def counting(sort):
        def wrapped(a, *args, **kwargs):
            # lexsort's keys are (k, n)
            sorts.append((sort.__name__, np.shape(a)[-1], np.asarray(a).dtype.str))
            return sort(a, *args, **kwargs)
        return wrapped

    def recording(r):
        ordered.append(r.size)
        return uniform_order(r)

    uniform_order = sim._uniform_order
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    monkeypatch.setattr(np, "argsort", counting(np.argsort))
    monkeypatch.setattr(np, "lexsort", counting(np.lexsort))
    monkeypatch.setattr(sim, "_uniform_order", recording)
    sim.run_des(s, sim.sample_arrivals(profile, n, seed=0), sim.SimConfig(n=n, seed=0))
    monkeypatch.undo()
    assert ordered == [n]
    assert [sort for sort in sorts if sort[1] == n] == [("argsort", n, "|u1")]


# -- discrete-event core --------------------------------------------------------


def test_single_user_hand_trace():
    s = single_queue_scenario()
    events = grouped_by_queue(np.array([-1.0]), np.array([1]))
    cfg = sim.SimConfig(n=1, seed=0, service_dist="deterministic")
    paths = sim.run_des(s, events, cfg)
    rec = paths.records[1]
    # service mean is mass/(n mu) = 1, server opens at 0, so departure at 1
    assert rec.completions[0] == pytest.approx(1.0)
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    _, (queue_length,), (busy,), (wait,) = sim.scaled_paths(paths, grid)
    # one user of the unit mass: scaled counts are the counts
    assert paths.mass_scale == 1.0
    # own work (1) plus time until opening (1)
    assert wait[0] == pytest.approx(2.0)
    assert np.array_equal(queue_length, [1, 1, 1, 1, 0, 0])
    assert np.allclose(busy, [0, 0, 0, 0.5, 1.0, 1.0])


def test_no_events_paths_are_zero():
    s = single_queue_scenario()
    events = grouped_by_queue(np.empty(0), np.empty(0, dtype=int))
    paths = sim.run_des(s, events, sim.SimConfig(n=1, seed=0))
    rec = paths.records[1]
    grid = np.linspace(0.0, 2.0, 5)
    _, queue_length, busy, _ = sim.scaled_paths(paths, grid)
    assert np.all(queue_length == 0)
    assert np.all(busy == 0)
    # with no arrivals, time is counted from the opening
    assert np.allclose(rec.empty_time_at(grid, rec.t_start), grid - rec.t_start)


def test_fifo_order_and_counts():
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    events = sim.sample_arrivals(profile, 2_000, seed=11)
    paths = sim.run_des(s, events, sim.SimConfig(n=2_000, seed=11))
    _, queue_length, _, _ = sim.scaled_paths(paths, np.linspace(-1.0, 2.0, 64))
    for k, rec in enumerate(paths.records.values()):
        # departures keep arrival order and never precede arrival + service
        assert np.all(np.diff(rec.completions) >= 0)
        assert np.all(rec.completions >= rec.arrivals + rec.services - 1e-12)
        assert np.all(rec.completions - rec.services >= rec.t_start - 1e-12)
        # no more departures than arrivals by any grid time
        assert np.all(queue_length[k] >= 0)


def test_work_conservation_identity():
    # served count equals the never-idling service process read at the busy time
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    events = sim.sample_arrivals(profile, 500, seed=3)
    paths = sim.run_des(s, events, sim.SimConfig(n=500, seed=3))
    grid = np.linspace(-1.2, 2.0, 257)
    arrivals, queue_length, busy_time, _ = sim.scaled_paths(paths, grid)
    for k, rec in enumerate(paths.records.values()):
        busy = busy_time[k]
        # departures: the scaled arrival count minus the scaled queue length
        arrived, queued = arrivals[k], queue_length[k]
        departed = np.rint((arrived - queued) / paths.mass_scale)
        csum = np.cumsum(rec.services)
        served = np.searchsorted(csum, busy * (1 + 1e-12), side="right")
        assert np.array_equal(served, departed.astype(int))
        # the server is busy for at most the post-opening clock
        opened = np.maximum(grid - rec.t_start, 0.0)
        assert np.all(busy <= opened + 1e-12)


def test_empty_vs_idle_gap_shrinks_with_n():
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    t_probe = np.array([0.5])
    means = []
    for n in (50, 5_000):
        gaps = []
        for rep in range(12):
            events = sim.sample_arrivals(profile, n, seed=13, replication=rep)
            paths = sim.run_des(s, events, sim.SimConfig(n=n, seed=13), replication=rep)
            rec = paths.records[1]
            # idle time: the post-opening clock minus busy time
            _, _, (busy,), _ = sim.scaled_paths(paths, t_probe)
            idle = np.maximum(t_probe - rec.t_start, 0.0) - busy
            origin = min(rec.arrivals[0], rec.t_start)
            gaps.append(abs(idle[0] - rec.empty_time_at(t_probe, origin)[0]))
        means.append(float(np.mean(gaps)))
    assert means[1] <= means[0] + 1e-12


def test_run_des_is_deterministic():
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    events = sim.sample_arrivals(profile, 300, seed=21)
    cfg = sim.SimConfig(n=300, seed=21)
    a = sim.run_des(s, events, cfg)
    b = sim.run_des(s, events, cfg)
    for qid in a.records:
        assert np.array_equal(a.records[qid].completions, b.records[qid].completions)


def _run_des_by_masks(s, events, cfg):
    """Reference FIFO pass splitting the events with one mask per queue."""
    times, queues = events[0], queue_labels(events)
    mass_scale = sum(p.mass for p in s.populations) / cfg.n
    out = {}
    for qi, q in enumerate(s.queues):
        arr = times[queues == q.id]
        rng = sim._stream(cfg.seed, 0, sim._SERVICE_STREAM_BASE + qi)
        svc = rng.exponential(mass_scale / q.mu, size=arr.size)
        if arr.size:
            csum = np.cumsum(svc)
            offsets = np.maximum(arr, q.t_start) - np.concatenate(([0.0], csum[:-1]))
            completions = csum + np.maximum.accumulate(offsets)
        else:
            completions = np.empty(0)
        out[q.id] = (arr, svc, completions)
    return out


@pytest.mark.parametrize("foreign_id", [None, 999, 70_000, -5, 2**40])
def test_grouping_pass_matches_per_queue_masks(foreign_id, monkeypatch):
    s = wide_scenario()
    cfg = sim.SimConfig(n=20_000, seed=0)
    events = sim.sample_arrivals(equilibrium_profile(s), cfg.n, cfg.seed)
    if foreign_id is not None:
        # events for a queue outside the scenario are ignored, whether their
        # block comes before the scenario's ids (-5) or after them, up to 2^40
        queues = queue_labels(events)
        queues[::7] = foreign_id
        events = grouped_by_queue(events[0], queues)
    sizes = []
    argsort = np.argsort

    def recording(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    paths = sim.run_des(s, events, cfg)
    monkeypatch.undo()
    # the events come grouped: run_des makes no n-sized argsort
    assert cfg.n not in sizes
    expected = _run_des_by_masks(s, events, cfg)
    assert set(paths.records) == set(expected)
    for qid, (arr, svc, completions) in expected.items():
        rec = paths.records[qid]
        assert rec.queue_id == qid
        assert np.array_equal(rec.arrivals, arr)
        assert np.array_equal(rec.services, svc)
        assert np.array_equal(rec.completions, completions)


def _runs(times, queues):
    """One block per run of equal queue ids, in event order."""
    starts = np.flatnonzero(np.diff(queues, prepend=np.nan))
    return times, queues[starts], np.append(starts, queues.size)


def test_des_refuses_events_not_grouped_by_queue_then_time():
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=1_000, seed=0)
    # time-ordered events whose queue ids go back and forth: a block per run
    # of one id gives each queue several blocks
    in_time_order = sample_arrivals_in_draw_order(profile, cfg.n, cfg.seed)
    assert np.any(np.diff(in_time_order[1]) < 0)
    # a block out of time order, after a block that is in order: the last two
    # arrivals at queue 2 swapped
    times, queue_ids, bounds = sim.sample_arrivals(profile, cfg.n, cfg.seed)
    assert queue_labels((times, queue_ids, bounds))[-2:].tolist() == [2, 2]
    assert times[-2] < times[-1]
    times[-2:] = times[-2:][::-1].copy()
    one = (np.array([0.25, 0.5]), np.array([1]))
    bad_bounds = ([0, 1], [1, 2], [0, 3], [0, 1, 2], [0], [2, 0])
    for events in (_runs(*in_time_order), (times, queue_ids, bounds),
                   (np.array([0.5, 0.25]), np.array([1]), np.array([0, 2])),
                   *((*one, np.array(b)) for b in bad_bounds),
                   (one[0], np.array([1, 2]), np.array([0, 3, 2]))):
        with pytest.raises(cq.DomainError, match="one block of nondecreasing times per queue id"):
            sim.run_des(s, events, cfg)


def _empty_time_by_loop(rec, grid, origin):
    """Reference: sum each empty interval's overlap with (-inf, t]."""
    if rec.count == 0:
        return np.maximum(grid - origin, 0.0)
    gap_starts = np.concatenate(([origin], rec.completions))
    gap_ends = np.concatenate((rec.arrivals, [np.inf]))
    keep = gap_ends > gap_starts
    out = np.zeros_like(grid)
    for a, b in zip(gap_starts[keep], gap_ends[keep]):
        out += np.clip(np.minimum(grid, b) - a, 0.0, None)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spread", [(-1.0, 3.0), (-1.0, -0.5)])
def test_empty_time_matches_gap_loop(seed, spread):
    # arrivals spread past the opening leave idle gaps; arrivals all before
    # it leave one busy period and no idle gap
    s = single_queue_scenario()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    times = np.sort(rng.uniform(*spread, size=n))
    paths = sim.run_des(s, grouped_by_queue(times, np.ones(n, dtype=int)),
                        sim.SimConfig(n=n, seed=seed))
    rec = paths.records[1]
    first = min(rec.arrivals[0], rec.t_start)
    grid = np.concatenate((
        np.linspace(-2.0, 5.0, 301), rec.arrivals[:5], rec.completions[-5:], [first],
    ))
    grid.sort()
    for origin in (first, first - 0.5):
        assert np.allclose(
            rec.empty_time_at(grid, origin), _empty_time_by_loop(rec, grid, origin),
            rtol=0.0, atol=1e-12,
        )
    none = grouped_by_queue(np.empty(0), np.empty(0, dtype=int))
    empty = sim.run_des(s, none, sim.SimConfig(n=1)).records[1]
    assert np.array_equal(empty.empty_time_at(grid, -1.0), _empty_time_by_loop(empty, grid, -1.0))


# -- scaled paths ----------------------------------------------------------------


@pytest.mark.parametrize("service_dist", ["exponential", "deterministic"])
def test_scaled_paths_is_the_per_process_oracle(service_dist):
    # queue 2 opens at 0.5, after its first arrivals; queue 3 gets none
    s = make_scenario([(1.0, 0.0), (1.5, 0.5), (2.0, 0.25)], [{"alpha": 1, "beta": 1}])
    rng = np.random.default_rng(5)
    n = 600
    events = grouped_by_queue(np.sort(rng.uniform(-1.0, 2.0, n)), rng.integers(1, 3, n))
    times = events[0]
    paths = sim.run_des(s, events, sim.SimConfig(n=n, seed=3, service_dist=service_dist))
    recs = paths.records
    assert recs[3].count == 0 and recs[2].arrivals[0] < recs[2].t_start
    # grid points on every arrival, completion and opening time, and before
    # the first arrival
    on_events = [np.concatenate((r.arrivals, r.completions, [r.t_start])) for r in recs.values()]
    grid = np.unique(np.concatenate((np.linspace(-2.0, 6.0, 257), *on_events)))
    assert grid[0] < times.min()
    got, want = sim.scaled_paths(paths, grid), scaled_paths_by_process(paths, grid)
    assert got.shape == want.shape == (len(sim.PROCESSES), len(recs), grid.size)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "times",
    [
        [],  # no arrivals
        [0.25],  # one arrival, on a grid point
        [-1.0, -0.75, -0.5, 0.0],  # before the opening: one busy period
        [0.0, 0.25, 0.5, 2.0, 2.25, 4.0],  # each ends as the next arrives, then gaps
        [1.0, 1.0, 1.0, 3.0],  # tied arrivals
    ],
    ids=["empty", "single", "before-opening", "chained", "tied"],
)
def test_busy_periods_and_scaled_paths_are_the_shifted_copy_oracle(times):
    # deterministic services of 1 / n: service often starts exactly at the
    # previous completion, where no new busy period opens
    s = single_queue_scenario()
    n = max(len(times), 1)
    events = grouped_by_queue(np.array(times, dtype=float), np.ones(len(times), dtype=int))
    paths = sim.run_des(s, events, sim.SimConfig(n=n, seed=0, service_dist="deterministic"))
    rec = paths.records[1]
    for got, want in zip(rec._busy_periods(), busy_periods_by_shift(rec)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # grid points before the first arrival, on every arrival and completion
    grid = np.unique(np.concatenate((np.linspace(-3.0, 6.0, 37), rec.arrivals, rec.completions)))
    assert sim.scaled_paths(paths, grid).tobytes() == scaled_paths_by_process(paths, grid).tobytes()


def test_scaled_single_arrival_is_empirical_cdf():
    s = single_queue_scenario()
    events = grouped_by_queue(np.array([0.25]), np.array([1]))
    paths = sim.run_des(s, events, sim.SimConfig(n=1, seed=0))
    grid = np.array([0.0, 0.25, 0.5])
    (arrivals,), *_ = sim.scaled_paths(paths, grid)
    assert np.array_equal(arrivals, [0.0, 1.0, 1.0])


def test_scaled_arrivals_reach_total_mass():
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    events = sim.sample_arrivals(profile, 1_000, seed=2)
    paths = sim.run_des(s, events, sim.SimConfig(n=1_000, seed=2))
    grid = np.array([10.0])
    arrivals, *_ = sim.scaled_paths(paths, grid)
    assert sum(a[0] for a in arrivals) == pytest.approx(1.0, abs=1e-12)


def test_scaled_paths_validates_inputs():
    s = single_queue_scenario()
    events = grouped_by_queue(np.array([0.0]), np.array([1]))
    paths = sim.run_des(s, events, sim.SimConfig(n=1, seed=0))
    with pytest.raises(cq.DomainError):
        sim.scaled_paths(paths, np.array([1.0, 0.0]))
    for grid in ([-np.inf, 0.0], [0.0, np.inf], [np.nan]):
        with pytest.raises(cq.DomainError, match="grid must be a finite"):
            sim.scaled_paths(paths, np.array(grid))


def test_mass_scaling_with_heavy_population():
    # total mass 2: per-user mass 2/n, service twice as slow in model units
    s = make_scenario([(1.0, 0.0)], [{"alpha": 1, "beta": 1, "mass": 2.0}])
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=4_000, seed=6, grid=sim.default_grid(profile, s))
    report = sim.convergence_report(s, profile, cfg)
    assert report.processes["queue_length"].mean < 0.15


# -- convergence reporting -------------------------------------------------------


def test_convergence_report_shapes():
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=200, seed=42, replications=3)
    report = sim.convergence_report(s, profile, cfg)
    assert set(report.processes) == {
        "arrivals",
        "queue_length",
        "busy_time",
        "virtual_wait",
    }
    for stats in report.processes.values():
        assert len(stats.per_replication) == 3
        assert stats.max >= stats.mean >= 0.0
    assert report.support_infimum == -1.0
    assert all(f >= -1.0 for f in report.first_arrivals)


def test_sup_errors_compare_each_queue_with_its_own_reference():
    # unequal rates, so the queues' reference rows differ; the sup errors and
    # first arrivals as the per-queue loop and the sampler give them
    s = make_scenario([(1.0, 0.0), (2.0, 0.5)], [{"alpha": 1, "beta": 1}])
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=300, seed=8, grid=sim.default_grid(profile, s, points=64), replications=2)
    report = sim.convergence_report(s, profile, cfg)
    reference = sim.fluid_reference(s, profile, cfg.grid)
    for rep, run in enumerate(sim.replications(s, profile, cfg)):
        scaled = run.scaled
        assert run.sup_errors == tuple(report.processes[name].per_replication[rep] for name in sim.PROCESSES)
        for j, name in enumerate(sim.PROCESSES):
            want = max(float(np.max(np.abs(scaled[j, k] - reference[j, k]))) for k in range(s.n_queues))
            assert report.processes[name].per_replication[rep] == want
        times = sim.sample_arrivals(profile, cfg.n, cfg.seed, replication=rep)[0]
        assert report.first_arrivals[rep] == times.min()


def test_convergence_study_error_shrinks():
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=100, seed=42, replications=5)
    small, big, ratios = convergence_study(s, profile, cfg, n_factor=25)
    assert big.n == 2_500
    assert ratios["queue_length"] < 1.0
    assert ratios["arrivals"] < 1.0


def test_convergence_study_large_run_keeps_every_config_field():
    # a field dropped from the large config (here service_dist) would change
    # the large report
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=60, seed=4, service_dist="deterministic", replications=2)
    small, big, _ = convergence_study(s, profile, cfg, n_factor=3)
    direct = sim.convergence_report(s, profile, replace(cfg, n=180, grid=small.grid))
    assert big.to_dict() == direct.to_dict()


def test_each_replication_is_released_before_the_next_is_sampled(monkeypatch):
    s = two_queue_worked_scenario()
    profile = equilibrium_profile(s)
    sample, des = sim.sample_arrivals, sim.run_des
    refs: list[list[weakref.ref]] = []  # per replication: its events and records

    def sampling(profile, n, seed, replication=0):
        assert all(ref() is None for earlier in refs for ref in earlier), len(refs)
        return sample(profile, n, seed, replication=replication)

    def simulating(s, events, cfg, replication=0):
        paths = des(s, events, cfg, replication=replication)
        arrays = [(r.arrivals, r.services, r.completions) for r in paths.records.values()]
        refs.append([weakref.ref(x) for x in (paths, *events, *sum(arrays, ()))])
        return paths

    monkeypatch.setattr(sim, "sample_arrivals", sampling)
    monkeypatch.setattr(sim, "run_des", simulating)
    report = sim.convergence_report(s, profile, sim.SimConfig(n=2_000, seed=1, replications=3))
    assert len(refs) == report.replications == 3
    assert all(ref() is None for refs_of_one in refs for ref in refs_of_one)


def test_convergence_report_refuses_a_profile_of_another_mass():
    # each user carries the scenario's mass / n, so a profile of twice that
    # mass would be simulated at half its scale
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    doubled = cq.ArrivalProfile(
        zip(*profile.columns[:4], [2.0 * d for d in profile.columns[4]])
    )
    cfg = sim.SimConfig(n=1_000, seed=0)
    with pytest.raises(cq.DomainError, match="total mass"):
        sim.convergence_report(s, doubled, cfg)
    # a solved profile's mass differs from the scenario's by rounding only
    # (K=126: 20.0000000000003 against 20)
    wide = wide_scenario()
    wide_profile = equilibrium_profile(wide)
    assert sim.convergence_report(wide, wide_profile, replace(cfg, n=200)).n == 200


def test_convergence_report_refuses_a_profile_at_unknown_queues():
    # the worked pair's profile has the single queue's unit mass, partly at queue 2
    profile = equilibrium_profile(two_queue_worked_scenario())
    with pytest.raises(cq.DomainError, match="unknown queues"):
        sim.convergence_report(single_queue_scenario(), profile, sim.SimConfig(n=1_000))


def test_first_arrival_approaches_support_infimum():
    # order statistic: mass 0.005 sits within 0.01 of the support edge, so
    # the earliest of 1e4 draws misses it with probability exp(-50)
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=10_000, seed=77, replications=5)
    report = sim.convergence_report(s, profile, cfg)
    assert all(abs(f - report.support_infimum) <= 0.01 for f in report.first_arrivals)


def test_deterministic_service_supported():
    s = single_queue_scenario()
    profile = equilibrium_profile(s)
    cfg = sim.SimConfig(n=500, seed=9, service_dist="deterministic")
    report = sim.convergence_report(s, profile, cfg)
    assert report.processes["queue_length"].mean < 0.2


def test_config_validation():
    with pytest.raises(cq.DomainError):
        sim.SimConfig(n=0, seed=1)
    with pytest.raises(cq.DomainError):
        sim.SimConfig(n=1, service_dist="uniform")
    with pytest.raises(cq.DomainError):
        sim.SimConfig(n=1, grid=np.array([1.0, 0.5]))
    for grid in ([-np.inf, 0.0], [0.0, np.inf], [0.0, np.nan]):
        with pytest.raises(cq.DomainError, match="grid must be a finite"):
            sim.SimConfig(n=10, grid=np.array(grid))
