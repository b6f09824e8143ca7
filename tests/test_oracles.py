"""The batched analytic layer against its per-(population, queue)
reference forms in ``oracles.py``, the all-queues fluid table against the
per-queue kernel there, and the fluid bundle against paths recorded before
the batching: every comparison is exact."""

import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq import fluid, poa
from conftest import make_scenario, two_queue_worked_scenario, wide_scenario
from oracles import (
    netflow_of_path, queue_fluid_per_queue, reflect_by_loop, social_cost_pairwise, verify_pairwise,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def ragged_scenario():
    """K=3, N=2 with unequal rates and masses."""
    return make_scenario(
        [(1.0, 0.0), (2.0, 0.3), (0.5, 0.8)],
        [{"alpha": 1, "beta": 3, "mass": 0.7}, {"alpha": 2, "beta": 1, "mass": 1.6}],
    )


def with_options(s, **options):
    return replace(s, options=replace(s.options, **options))


def assert_same_report(s, profile):
    assert cq.verify_equilibrium(s, profile) == verify_pairwise(s, profile)


@pytest.mark.parametrize("build", [wide_scenario, two_queue_worked_scenario, ragged_scenario])
def test_verifier_and_social_cost_match_the_pairwise_oracle(build):
    s = build()
    eq = cq.solve_multi(s)
    assert_same_report(s, eq.profile)
    assert_same_report(with_options(s, grid_step=0.01), eq.profile)
    assert poa.social_cost(s, eq.profile) == social_cost_pairwise(s, eq.profile)
    optimal, _ = poa.optimal_profile(s)
    assert poa.social_cost(s, optimal) == social_cost_pairwise(s, optimal)


def test_verifier_matches_the_oracle_off_equilibrium():
    # one population shifted late on one queue: negative gaps, uneven support
    s = ragged_scenario()
    segs = list(cq.solve_multi(s).profile.segments)
    segs[0] = cq.Segment(segs[0].population, segs[0].queue, segs[0].start + 0.1,
                         segs[0].end + 0.1, segs[0].density)
    profile = cq.ArrivalProfile(tuple(segs))
    report = cq.verify_equilibrium(s, profile)
    assert not report.is_equilibrium
    assert report == verify_pairwise(s, profile)
    assert poa.social_cost(s, profile) == social_cost_pairwise(s, profile)


@st.composite
def scenarios_with_profiles(draw):
    """Up to four queues and three populations, with either the solver's
    profile or arbitrary segments: several per (population, queue) pair,
    zero densities, zero lengths and a population the scenario lacks."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    starts = [0.0] + sorted(draw(st.lists(st.floats(0.01, 1.5), min_size=k - 1, max_size=k - 1)))
    queues = [(draw(st.floats(0.3, 3.0)), t) for t in starts]
    pops = [
        {"alpha": draw(st.floats(0.1, 3.0)), "beta": draw(st.floats(0.1, 3.0)),
         "mass": draw(st.floats(0.2, 2.0))}
        for _ in range(n)
    ]
    s = make_scenario(queues, pops)
    if draw(st.booleans()):
        try:
            return s, cq.solve_multi(cq.pruned_scenario(s)[0]).profile
        except cq.DomainError:
            pass

    def segments(pops, lengths, densities):
        return st.builds(
            lambda p, q, a, length, d: cq.Segment(p, q, a, a + length, d),
            pops, st.integers(1, k), st.floats(-1.0, 2.0), lengths, densities,
        )

    # one positive segment per population, so most profiles are verifiable
    covering = [draw(segments(st.just(p), st.floats(0.1, 1.5), st.floats(0.05, 3.0)))
                for p in range(1, n + 1)]
    extra = draw(st.lists(
        segments(st.integers(1, n + 1), st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.5),
                 st.sampled_from([0.0]) | st.floats(0.05, 3.0)),
        max_size=10,
    ))
    return s, cq.ArrivalProfile(tuple(draw(st.permutations(covering + extra))))


def outcome(fn, *args):
    try:
        return fn(*args)
    except cq.DomainError as exc:
        return str(exc)


@given(scenarios_with_profiles())
@settings(max_examples=150, deadline=None)
def test_batched_forms_match_the_oracle_on_generated_profiles(case):
    s, profile = case
    assert outcome(cq.verify_equilibrium, s, profile) == outcome(verify_pairwise, s, profile)
    assert poa.social_cost(s, profile) == social_cost_pairwise(s, profile)


@st.composite
def verifier_cases(draw):
    """A scenario, a profile and a grid step that test the verifier's
    shortcuts.  The step is the default, coarse, dyadic (every opening and
    segment end on the grid) or within a few points of the cap.  alpha = 0
    keeps a cost flat until its queue opens, zero-density rows add
    off-support breakpoints, and densities of gamma * mu hold another
    population's cost flat off its support, so off-support costs tie.
    Densities below and above the flat one make costs fall and rise."""
    unit = 2.0 ** -draw(st.integers(0, 4))
    ticks = st.integers(0, 12).map(lambda i: i * unit)
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    queues = [(draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.3, 3.0)), draw(ticks)) for _ in range(k)]
    pops = [{"alpha": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.1, 3.0)),
             "beta": draw(st.sampled_from([1.0]) | st.floats(0.1, 3.0)),
             "mass": draw(st.floats(0.2, 2.0))} for _ in range(n)]
    s = make_scenario(queues, pops)
    gammas = [p.gamma for p in s.populations]
    profile = None
    if draw(st.booleans()):
        try:
            segs = cq.solve_multi(cq.pruned_scenario(s)[0]).profile.segments
        except cq.DomainError:
            pass
        else:
            factors = st.sampled_from([1.0, 0.5, 2.0, 1 - 2.0**-10, 1 + 2.0**-10])
            profile = cq.ArrivalProfile(tuple(
                replace(g, density=g.density * draw(factors)) for g in segs))
    if profile is None:
        def segment(pop, lengths, densities):
            q, start = draw(st.sampled_from(s.queues)), draw(ticks) - 4.0
            return cq.Segment(pop, q.id, start, start + draw(lengths), draw(densities(q.mu)))

        def flat(mu):
            return st.sampled_from([g * mu for g in gammas]) | st.floats(0.05, 3.0)

        # one positive segment per population, then any rows, zero-density
        # ones and a population the scenario lacks too
        segs = [segment(p, ticks.filter(bool), flat) for p in range(1, n + 1)]
        segs += [segment(draw(st.integers(1, n + 1)), ticks, lambda mu: st.just(0.0) | flat(mu))
                 for _ in range(draw(st.integers(0, 6)))]
        profile = cq.ArrivalProfile(tuple(draw(st.permutations(segs))))
    lo, hi = profile.support_bounds()
    step = draw(st.sampled_from(["default", "coarse", "dyadic", "cap"]))
    if step == "coarse":
        s = with_options(s, grid_step=draw(st.floats(0.25, 4.0)))
    elif step == "dyadic":
        s = with_options(s, grid_step=unit * 2.0 ** -draw(st.integers(0, 3)))
    elif step == "cap":
        span = hi - lo + 2.0
        s = with_options(s, grid_step=span / (cq.equilibrium.MAX_GRID_POINTS - 2) * draw(st.floats(1.0, 1.01)))
    return s, profile


@given(verifier_cases())
@settings(max_examples=150, deadline=None)
def test_verifier_is_the_grid_oracle_on_drawn_grid_steps(case):
    s, profile = case
    assert outcome(cq.verify_equilibrium, s, profile) == outcome(verify_pairwise, s, profile)


@given(
    st.floats(-5.0, 5.0),
    st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30),
    st.lists(st.floats(0.0, 1.0), max_size=60),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_interp_at_is_np_interp_bit_for_bit(first, gaps, fractions, n_rows, seed):
    xp = first + np.concatenate(([0.0], np.cumsum(gaps)))
    fp = np.random.default_rng(seed).standard_normal((n_rows, xp.size)) * 10.0 ** (seed % 7 - 3)
    # breakpoints themselves, both ends included, plus points in between
    x = np.sort(np.concatenate((xp, xp[0] + np.asarray(fractions) * (xp[-1] - xp[0]))))
    j = np.searchsorted(xp, x, side="right") - 1  # xp[j] <= x < xp[j + 1]
    got = fluid.interp_at(x, xp, fp, j, j == xp.size - 1)
    for row, values in zip(fp, got):
        assert np.interp(x, xp, row).tobytes() == values.tobytes()


@given(
    st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0),
                      max_size=12), min_size=1, max_size=3)
)
@settings(max_examples=200, deadline=None)
def test_sorted_unique_is_np_union1d(arrays):
    expected = np.unique(np.concatenate(arrays, axis=None))
    if len(arrays) == 2:
        expected = np.union1d(*arrays)
    got = fluid.sorted_unique(*arrays)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_analytic_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, some 20 ms per command
    script = (
        "import sys\n"
        "from concertq.cli import main\n"
        f"d = {str(tmp_path)!r}\n"
        "open(d + '/s.json', 'w').write('{\"queues\":[{\"mu\":1,\"t_start\":0},"
        "{\"mu\":1,\"t_start\":0.5}],\"populations\":[{\"alpha\":1,\"beta\":1}]}')\n"
        "for argv in (['eq-single', '--format', 'csv', '--out', d + '/p.csv'],\n"
        "             ['verify', '--profile', d + '/p.csv', '--out', d + '/v.json'],\n"
        "             ['poa', '--out', d + '/poa.json'],\n"
        "             ['fluid', '--profile', d + '/p.csv', '--out', d + '/f.csv']):\n"
        "    assert main([argv[0], '--scenario', d + '/s.json', *argv[1:]]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr


# sha256 of every fluid path (times, values, extension mode) of every queue
# of the solver's profile, in the order cdf, netflow, queue length,
# regulator, busy time, wait, recorded before the fluid kernel was batched
# and again when ``wait`` took the "wait" extension mode and ``regulator`` the
# "idle" mode (times and values hashed as before: with the mode string
# "const" for each, the new code reproduced the earlier digests);
# "queue" gives each queue its own default horizon, "shared" one horizon for all
QUEUE_FLUID_DIGESTS = {
    ("wide", "queue"): "68b7b90f3726bdaeef3e75b2de8cd35564e9d315e8df6e57b5128eece20a22b0",
    ("wide", "shared"): "bd30ccf5fc249f1519dffaa9b8bca41f4fcc15a8769ade8ac6d7f467f4e8017b",
    ("worked", "queue"): "d430cded750c2f565c92a7cbee491ca0baff332efb8fe1503a98cdb94e58618f",
    ("worked", "shared"): "aeec8dfc8f20138c8171b8c87fefa437bd9637d942eedba7d790716ccb377716",
    ("ragged", "queue"): "ae59e26121b63ce20ecce2dad737337466a2855b7190258828b3dd3bc19a46e8",
    ("ragged", "shared"): "60b04c4dd00dca5bffb66d80ce720cf0bbcf549f4e03ef5e94b521a4ba6f4956",
}
BUILDERS = {"wide": wide_scenario, "worked": two_queue_worked_scenario, "ragged": ragged_scenario}
ACCESSORS = (cq.fluid_queue, cq.fluid_regulator, cq.fluid_busy, cq.fluid_wait)


@pytest.mark.parametrize("name, horizon", sorted(QUEUE_FLUID_DIGESTS))
def test_queue_fluid_fields_match_recorded_paths(name, horizon):
    s = BUILDERS[name]()
    profile = cq.solve_multi(s).profile
    shared = fluid.default_horizon(profile, s.queues) if horizon == "shared" else None
    digest = hashlib.sha256()
    for q in s.queues:
        cdf = profile.queue_cdf(q.id)
        netflow = fluid.netflow(cdf, q, shared or fluid.default_horizon(profile, [q]))
        for path in (cdf, netflow, *(accessor(profile, q, shared) for accessor in ACCESSORS)):
            digest.update(path.times.tobytes())
            digest.update(path.values.tobytes())
            digest.update(path.extend.encode())
    assert digest.hexdigest() == QUEUE_FLUID_DIGESTS[name, horizon]


def path_bytes(path):
    return path.times.tobytes(), path.values.tobytes(), path.extend


@st.composite
def profiles_with_queues(draw):
    """Up to five queues, openings often tied, and up to twelve rows on a
    coarse time lattice (shared ends, gaps that make the netflow fall back
    to an earlier minimum) or anywhere: zero densities and zero lengths,
    queues with no rows and rows at a queue outside the table.  The horizon
    is the default one or an explicit one, often inside the support."""
    k = draw(st.integers(1, 5))
    queues = [
        cq.QueueSpec(id=i + 1, mu=draw(st.sampled_from([1.0, 2.0]) | st.floats(0.2, 4.0)),
                     t_start=draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.5)))
        for i in range(k)
    ]
    # no time is -0.0: of a tie of 0.0 and -0.0, which one stays was np.sort's choice
    times = (st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(-1.0, 2.0)).map(lambda t: t + 0.0)
    rows = draw(st.lists(st.tuples(
        st.integers(1, 3), st.integers(1, k + 1), times,
        st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.5),
        st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.01, 3.0),
    ), max_size=12))
    profile = cq.ArrivalProfile.from_rows([(p, q, a, a + length, d) for p, q, a, length, d in rows])
    horizon = fluid.default_horizon(profile, queues)
    if draw(st.booleans()):
        lo = draw(st.floats(-1.0, 1.5)) + 0.0
        horizon = (lo, lo + draw(st.floats(0.05, 2.0)))
    return profile, queues, horizon


@given(profiles_with_queues())
@settings(max_examples=150, deadline=None)
def test_fluid_table_is_the_per_queue_kernel(case):
    profile, queues, horizon = case
    table = fluid.fluid_table(profile, queues, horizon)
    grid = np.linspace(*horizon, 33)
    at_grid = table.on_grid(grid)
    for k, q in enumerate(queues):
        want = queue_fluid_per_queue(profile, q, horizon)
        c, n, p = (slice(*b[k:k + 2].tolist())
                   for b in (table.cdf_bounds, table.netflow_bounds, table.bounds))
        got = {
            "cdf": (table.cdf_times[c], table.cdf_values[c]),
            "netflow": (table.netflow_times[n], table.netflow_values[n]),
            **{name: (table.times[p], getattr(table, name)[p])
               for name in ("queue_length", "regulator", "busy", "wait")},
        }
        for name, (times, values) in got.items():
            assert path_bytes(getattr(want, name))[:2] == (times.tobytes(), values.tobytes()), name
        refined = table.refined[n]
        refined_times = fluid.sorted_unique(want.cdf.times, horizon)  # the ``fluid`` command's arrivals
        assert table.netflow_times[n][refined].tobytes() == refined_times.tobytes()
        assert table.arrivals[n][refined].tobytes() == want.cdf(refined_times).tobytes()
        for name, values in zip(("cdf", "queue_length", "busy", "wait"), at_grid):
            assert values[k].tobytes() == getattr(want, name)(grid).tobytes(), name


@pytest.mark.parametrize("rows, mu, kernel_error", [
    # three rows of density 1e308 at queue 2: its arrivals reach inf at t=1,
    # which the per-queue kernel's CDF path refused with a ValueError
    ([(1, 2, 0.0, 1.0, 1e308), (1, 2, 0.0, 1.0, 1e308), (1, 2, 1.0, 2.0, 1e308)], 1.0, ValueError),
    ([(1, 2, 0.0, 1e10, 1.0), (1, 3, 0.0, 1.0, 1.0)], 1e300, cq.DomainError),
])
def test_fluid_table_refuses_the_first_queue_whose_netflow_overflows(rows, mu, kernel_error):
    profile = cq.ArrivalProfile.from_rows(rows)
    queues = [cq.QueueSpec(id=i, mu=mu, t_start=0.0) for i in (1, 2, 3)]
    horizon = (-1.0, 3.0)
    with pytest.raises(cq.DomainError, match=re.escape(f"queue 2: the netflow at rate {mu!r} is not finite")) as got:
        fluid.fluid_table(profile, queues, horizon)
    with pytest.raises(kernel_error) as want, np.errstate(over="ignore"):
        for q in queues:
            queue_fluid_per_queue(profile, q, horizon)
    assert kernel_error is ValueError or str(got.value) == str(want.value)


@st.composite
def netflow_paths(draw):
    """Paths whose values start at 0.0 or -0.0 and revisit both, with
    re-attained minima and runs of equal values."""
    n = draw(st.integers(1, 12))
    times = np.cumsum([draw(st.floats(-1.0, 1.0)) + 0.0] + draw(st.lists(
        st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1)))
    value = st.sampled_from([0.0, -0.0, 0.5, -0.5, -1.0]) | st.floats(-3.0, 3.0)
    values = [draw(st.sampled_from([0.0, -0.0]) | value)] + draw(st.lists(value, min_size=n - 1, max_size=n - 1))
    return fluid.PiecewisePath(times, values, extend=draw(st.sampled_from(["const", "slope"])))


@given(netflow_paths(), st.floats(0.2, 4.0), st.floats(0.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_reflect_and_netflow_are_the_per_queue_kernel(x, mu, t_start):
    for got, want in zip(fluid.reflect(x), reflect_by_loop(x)):
        assert path_bytes(got) == path_bytes(want)
    q = cq.QueueSpec(id=1, mu=mu, t_start=t_start)
    for horizon in (None, (t_start - 1.0, t_start + 2.0)):
        assert outcome(lambda: path_bytes(fluid.netflow(x, q, horizon))) \
            == outcome(lambda: path_bytes(netflow_of_path(x, q, horizon)))


def traced_verify(s, profile):
    """The verifier's report and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        report = cq.verify_equilibrium(s, profile)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifier_memory_is_bounded_per_population():
    # K=126, N=20: a population-by-point cost matrix over the 2,623,100
    # points would take about 21 MB; the verifier holds the table and one
    # population's costs at the 2,257 breakpoints and at its support points
    # (at most about 2,900 here), near 0.7 MiB
    s = wide_scenario()
    report, peak = traced_verify(s, cq.solve_multi(s).profile)
    assert report.is_equilibrium
    assert peak < 4 * 2**20


def test_verifier_memory_at_the_grid_cap():
    # the finest grid step the cap allows on the same scenario: 165,188,300
    # points, of which population 1 has about 188,000 on its support; one
    # population's support points at a time peak near 11 MiB, where per-queue
    # cost matrices over every point took 50.7 MiB
    s = wide_scenario()
    profile = cq.solve_multi(s).profile
    lo, hi = profile.support_bounds()
    s = with_options(s, grid_step=(hi - lo + 2.0) / (cq.equilibrium.MAX_GRID_POINTS - 2))
    report, peak = traced_verify(s, profile)
    assert report.is_equilibrium and report.grid_points == 165_188_300
    assert peak < 24 * 2**20


def test_grid_above_the_cap_is_refused_before_allocation():
    s = two_queue_worked_scenario()
    profile = cq.solve_single(s).profile
    with pytest.raises(cq.DomainError, match="grid step"):
        cq.verify_equilibrium(with_options(s, grid_step=1e-12), profile)
    with pytest.raises(cq.DomainError, match="grid step"):
        cq.verify_equilibrium(with_options(s, grid_step=5e-324), profile)
    lo, hi = profile.support_bounds()
    span = hi - lo + 2.0
    fine_step = span / (cq.equilibrium.MAX_GRID_POINTS - 2)
    fine = cq.verify_equilibrium(with_options(s, grid_step=fine_step), profile)
    assert fine.is_equilibrium


def test_columns_group_rows_by_queue_in_profile_order():
    segs = (
        cq.Segment(2, 3, 0.0, 1.0, 0.5),
        cq.Segment(1, 1, 0.0, 1.0, 0.5),
        cq.Segment(2, 3, 2.0, 3.0, 0.25),
        cq.Segment(2, 1, 0.0, 1.0, 1.0),
    )
    profile = cq.ArrivalProfile(segs)
    assert profile.queue_rows(3).tolist() == [0, 2]
    assert profile.queue_rows(1).tolist() == [1, 3]
    assert profile.queue_rows(2).tolist() == []
    assert np.array_equal(profile.row_mass, [s.mass for s in segs])
    assert not profile.start.flags.writeable
