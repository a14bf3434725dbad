import cmath
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcomb.twisted import (
    kostant_theta_invariance,
    norm_map,
    theta_invariant_dominant_weights,
    theta_perm,
    theta_weight,
    verify_transfer_identities,
)
from arthurcomb.weyl import weight


# --- theta on S_n ---------------------------------------------------------------


def test_theta_perm_is_involution():
    for p in itertools.permutations(range(4)):
        assert theta_perm(theta_perm(p)) == p


# --- the norm map --------------------------------------------------------------


def test_norm_map_example():
    (v,) = norm_map((2, 1, 3))
    assert abs(v - 2 / 3) < 1e-15


def test_norm_map_theta_fixed_points():
    # entries with t_i * t_{n+1-i}^{-1} = 1 map to the identity
    assert all(abs(v - 1) < 1e-15 for v in norm_map((2, 5, 5, 2)))


def test_norm_map_invariant_under_twisted_conjugation():
    # N(x theta(x)^{-1} t) = N(t): the twist contributes x_i * x_{n+1-i}
    rng = random.Random(23)
    for n in (3, 4, 5, 6):
        for _ in range(25):
            t = tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n))
            x = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
            twisted = tuple(x[i] * x[n - 1 - i] * t[i] for i in range(n))
            for a, b in zip(norm_map(t), norm_map(twisted)):
                assert abs(a - b) < 1e-12


# --- twisted traces -------------------------------------------------------------


def _twisted_trace(x, t):
    """The twisted side of a one-weight sweep over the theta-invariant
    dominant x, at the torus element with entries t: the sum of the
    theta-fixed extremal characters, in the sweep's order."""
    from arthurcomb.twisted import _columns, _power_table, _sums, _sweep_steps

    bound = max(map(abs, x), default=0)
    twisted, _endoscopic = _sweep_steps([x], bound)
    ((trace,),) = _sums(twisted, _columns([_power_table(t, bound)]), 1, 1)
    return trace


def test_twisted_trace_n3():
    val = _twisted_trace((1, 0, -1), (2, 1, 3))
    assert abs(val - (2 / 3 + 3 / 2)) < 1e-12


def test_twisted_trace_trivial_weight():
    for entries in ((2, 3, 4, 5), (1j, 2, 3, -1j)):
        assert abs(_twisted_trace((0, 0, 0, 0), entries) - 1) < 1e-15


def test_twisted_trace_n2_closed_form():
    rng = random.Random(4)
    for _ in range(20):
        a = cmath.exp(2j * cmath.pi * rng.random())
        b = cmath.exp(2j * cmath.pi * rng.random())
        val = _twisted_trace((1, -1), (a, b))
        assert abs(val - (a / b + b / a)) < 1e-12


def test_twisted_trace_invariant_under_fixed_weyl():
    # conjugating t by a theta-fixed permutation leaves the trace unchanged
    rng = random.Random(31)
    for x in ((1, 0, -1), (2, 1, -1, -2)):
        n = len(x)
        fixed = [p for p in itertools.permutations(range(n)) if theta_perm(p) == p]
        for _ in range(10):
            t = tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n))
            base = _twisted_trace(x, t)
            for p in fixed:
                moved = tuple(t[p[i]] for i in range(n))
                assert abs(_twisted_trace(x, moved) - base) < 1e-12


def test_extremal_rep_validation():
    # an extremal-weight representation needs an integral, dominant,
    # theta-invariant weight; both verifiers check it
    for n, mu in (
        (3, weight([1, 0, 0])),  # not theta-invariant
        (3, weight([-1, 0, 1])),  # not dominant
        (2, weight(["1/2", "-1/2"])),  # not integral
    ):
        with pytest.raises(ValueError):
            kostant_theta_invariance(n, mu)
        with pytest.raises(ValueError):
            verify_transfer_identities([mu])


# --- transfer identity ----------------------------------------------------------


def test_transfer_identity_n3_principal():
    (residual,) = verify_transfer_identities([weight([1, 0, -1])], trials=100, seed=7)
    assert residual <= 1e-9


def test_transfer_identity_n4_principal():
    (residual,) = verify_transfer_identities([weight([2, 1, -1, -2])], trials=100, seed=7)
    assert residual <= 1e-9


def test_transfer_identity_singular_weight():
    # stabilizer multiplicities must not double-count the extremal lines
    (residual,) = verify_transfer_identities([weight([1, 1, -1, -1])], trials=100, seed=7)
    assert residual <= 1e-9


def test_transfer_identity_trivial_weight_is_exact():
    (residual,) = verify_transfer_identities([weight([0, 0, 0])], trials=10, seed=1)
    assert residual == 0.0


# --- Kostant theta-invariance ------------------------------------------------------


def test_kostant_examples():
    assert kostant_theta_invariance(3, weight([1, 0, -1]))
    assert kostant_theta_invariance(4, weight([1, 1, -1, -1]))
    assert kostant_theta_invariance(2, weight([1, -1]))


def _signed_orbit_oracle(head):
    """Every sign pattern on every rearrangement of head."""
    out = set()
    for p in itertools.permutations(head):
        for signs in itertools.product((1, -1), repeat=len(head)):
            out.add(tuple(s * v for s, v in zip(signs, p)))
    return sorted(out)


def test_extremal_coset_count_matches_restricted_orbit():
    # |theta-fixed cosets| equals the hyperoctahedral orbit of the head
    from arthurcomb.twisted import _theta_fixed_targets

    for n in (2, 3, 4, 5, 6):
        for mu in theta_invariant_dominant_weights(n, 2):
            x = tuple(d // 2 for d in mu.doubled)
            head = x[: n // 2]
            assert len(_theta_fixed_targets(x)) == len(_signed_orbit_oracle(head))


def test_signed_orbit_matches_brute_force():
    from arthurcomb.twisted import _signed_orbit

    for length in range(5):
        # negative entries too
        for head in itertools.product(range(-2, 4), repeat=length):
            assert _signed_orbit(head) == _signed_orbit_oracle(head), head


def test_signed_orbit_of_equal_entries_is_every_sign_choice():
    # one rearrangement, 2**12 sign choices; the oracle's 12! orderings
    # would take hours
    from arthurcomb.twisted import _signed_orbit

    heads = sorted(itertools.product((2, -2), repeat=12))
    assert len(heads) == 4096
    assert _signed_orbit((2,) * 12) == heads
    assert _signed_orbit((-2,) * 12) == heads


def _old_kostant_rep(target):
    return tuple(sorted(range(len(target)), key=lambda j: -target[j]))


def test_kostant_rep_matches_the_negated_key_sort():
    from arthurcomb.twisted import _kostant_rep, _theta_fixed_targets

    count = 0
    for n in range(9):
        for mu in theta_invariant_dominant_weights(n, 3):
            for target in _theta_fixed_targets(tuple(d // 2 for d in mu.doubled)):
                assert _kostant_rep(target) == _old_kostant_rep(target), target
                count += 1
    # every head with entries in [-3, 3]: 7**(n // 2) targets per n
    assert count == 3_201


def test_theta_invariant_weight_generator():
    mus = list(theta_invariant_dominant_weights(4, 1))
    assert weight([1, 1, -1, -1]) in mus
    assert weight([1, 0, 0, -1]) in mus
    assert weight([0, 0, 0, 0]) in mus
    for mu in mus:
        x = tuple(d // 2 for d in mu.doubled)
        assert theta_weight(x) == x


# --- theta-fixed cosets against the full-orbit enumerator -------------------------


def _coset_rep_for_weight(mu, target):
    """Oracle: minimal-length w with w.mu = target; positions of equal
    values are matched in increasing order."""
    n = len(mu)
    slots = {}
    for j in range(n):
        slots.setdefault(target[j], []).append(j)
    taken = {v: 0 for v in slots}
    w = [0] * n
    for i in range(n):
        v = mu[i]
        w[i] = slots[v][taken[v]]
        taken[v] += 1
    return tuple(w)


@functools.cache
def _oracle_cosets(x):
    """Oracle: every theta-fixed rearrangement of x, descending, by
    walking all n! orders, with its minimal-length coset representative."""
    return tuple(
        (_coset_rep_for_weight(x, target), target)
        for target in sorted(set(itertools.permutations(x)), reverse=True)
        if theta_weight(target) == target
    )


def test_theta_fixed_cosets_match_full_orbit_oracle():
    from arthurcomb.twisted import _kostant_rep, _theta_fixed_targets

    weights = [mu for n in range(1, 9) for mu in theta_invariant_dominant_weights(n, 3)]
    assert len(weights) == 104
    for mu in weights:
        n = len(mu)
        x = tuple(d // 2 for d in mu.doubled)
        cosets = _oracle_cosets(x)
        assert [(_kostant_rep(t), t) for t in _theta_fixed_targets(x)] == list(cosets), x
        assert kostant_theta_invariance(n, mu) == all(theta_perm(r) == r for r, _t in cosets)


# --- table evaluation against the direct per-coset loop -------------------------


def _direct_product(table, idx):
    """Oracle: one monomial's table entries multiplied left to right."""
    value = 1.0 + 0.0j
    for i in idx:
        value *= table[i]
    return value


def _nonzero(exponents):
    """A monomial's non-zero exponents, with their coordinates."""
    return tuple((i, k) for i, k in enumerate(exponents) if k)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_values_equal_the_direct_products(data):
    from arthurcomb.twisted import _columns, _sums

    n = data.draw(st.integers(1, 4))
    bound = data.draw(st.integers(0, 2))
    owners = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    width = 2 * bound + 1
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    tables = [
        [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n * width)] for _ in range(count)
    ]
    # few exponents make shared prefixes; some monomials come twice, in any order
    exponents = st.lists(st.integers(-bound, bound), min_size=n, max_size=n).map(tuple)
    monomials = data.draw(st.lists(st.tuples(exponents, st.integers(0, owners - 1)), max_size=10))
    if monomials:
        monomials += data.draw(st.lists(st.sampled_from(monomials), max_size=3))
    monomials = data.draw(st.permutations(monomials))
    for order in (monomials, sorted(monomials, reverse=data.draw(st.booleans()))):
        steps = _old_steps(order, bound)
        totals = _sums(steps, _columns(tables), count, owners)
        for trial, table in enumerate(tables):
            for owner in range(owners):
                total = 0.0 + 0.0j
                for e, j in order:
                    if j == owner:
                        total += _direct_product(
                            table, [i * width + bound + k for i, k in _nonzero(e)]
                        )
                assert repr(totals[owner][trial]) == repr(total)
    # sorted, every distinct non-empty prefix is multiplied once
    prefixes = {_nonzero(e)[:d] for e, _j in order for d in range(1, len(_nonzero(e)) + 1)}
    assert sum(len(rest) for _shared, rest, _owner in steps) == len(prefixes)


def _old_steps(monomials, bound):
    """Oracle: compile (exponents, owner) pairs, in the given order, into
    steps, reading each monomial's full index list and comparing it with
    the one before."""
    width = 2 * bound + 1
    steps = []
    prev = ()
    for e, owner in monomials:
        idx = tuple(i * width + bound + k for i, k in enumerate(e) if k)
        shared = 0
        for a, b in zip(prev, idx):
            if a != b:
                break
            shared += 1
        steps.append((shared, idx[shared:], owner))
        prev = idx
    return steps


def _old_sweep_steps(xs, bound):
    """Oracle: every weight's targets, tagged with its position and sorted
    descending, and its endoscopic heads, tagged and sorted ascending."""
    n = len(xs[0])
    m = n // 2
    lhs, rhs = [], []
    for j, x in enumerate(xs):
        lhs += ((h + x[m : n - m] + theta_weight(h), j) for h in _signed_orbit_oracle(x[:m]))
        rhs += ((h, j) for h in _signed_orbit_oracle(x[:m]))
    return _old_steps(sorted(lhs, reverse=True), bound), _old_steps(sorted(rhs), bound)


def test_sweep_steps_match_the_target_compiler():
    from arthurcomb.twisted import _sweep_steps

    cases = 0
    for n in range(1, 9):
        for max_entry in range(4):
            weights = list(theta_invariant_dominant_weights(n, max_entry))
            random.Random(n * 4 + max_entry).shuffle(weights)
            xs = [tuple(d // 2 for d in mu.doubled) for mu in weights]
            bound = max((abs(v) for x in xs for v in x), default=0)
            assert _sweep_steps(xs, bound) == _old_sweep_steps(xs, bound), (n, max_entry)
            cases += 1
    assert cases == 32


def test_repeated_weights_keep_their_residuals():
    """Shuffled sweeps with repeated weights: every residual, by
    ``float.hex``, is the one a compiler that gave each repeat its own
    steps produced (the digest of all 294 was recorded with it), and a
    repeat's residual is its first copy's."""
    hexes = []
    for n in range(1, 9):
        for max_entry in range(4):
            weights = list(theta_invariant_dominant_weights(n, max_entry))
            repeated = weights + weights[::2]
            random.Random(n * 4 + max_entry).shuffle(repeated)
            residuals = verify_transfer_identities(repeated, trials=100, seed=n)
            first = dict(zip(reversed(repeated), reversed(residuals)))
            assert residuals == [first[mu] for mu in repeated], (n, max_entry)
            hexes += [r.hex() for r in residuals]
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert len(hexes) == 294
    assert digest == "8549ec884199505d5298fe7bfe398f94f91fa6b6ed483a4102d99f5ddffb492b"


def _char_value(entries, exponents):
    """Oracle: a Laurent character evaluated coordinate by coordinate."""
    out = 1.0 + 0.0j
    for e, k in zip(entries, exponents):
        if k:
            out *= e**k
    return out


def _oracle_trace(x, t):
    """Oracle: the theta-fixed extremal characters of x at t, added in
    coset order."""
    total = 0.0 + 0.0j
    for _rep, target in _oracle_cosets(x):
        total += _char_value(t, target)
    return total


def _oracle_regular(vals, tol):
    """Oracle: the norm coordinates are pairwise distinct and differ
    from +-1."""
    for i, v in enumerate(vals):
        if abs(v - 1) < tol or abs(v + 1) < tol:
            return False
        for w in vals[i + 1 :]:
            if abs(v - w) < tol:
                return False
    return True


def _oracle_residual(mu, trials, seed):
    """Oracle: a fresh draw per trial and every character evaluated directly."""
    n = len(mu)
    x = tuple(d // 2 for d in mu.doubled)
    orbit_exps = _signed_orbit_oracle(x[: n // 2])
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        while True:
            t = tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n))
            nt = norm_map(t)
            if _oracle_regular(nt, 1e-6):
                break
        rhs = sum(_char_value(nt, e) for e in orbit_exps)
        worst = max(worst, abs(_oracle_trace(x, t) - rhs))
    return worst


def test_transfer_identity_matches_oracle_on_every_small_weight():
    weights = [mu for n in range(9) for mu in theta_invariant_dominant_weights(n, 3)]
    assert len(weights) == 105
    for mu in weights:
        (residual,) = verify_transfer_identities([mu], trials=100, seed=7)
        assert residual == _oracle_residual(mu, 100, 7), mu


# (n, seed, trials), at the one endoscopic rank n // 2; each one-weight
# call here fits in one block at the default budget, so the block edges
# are covered by BLOCK_CASES
ENDO_RANK_CASES = [
    (n, seed, trials) for n in range(7) for seed in (0, 3) for trials in (1, 37)
] + [(7, 3, 37), (8, 3, 37)]


def test_transfer_identity_matches_oracle_for_every_endo_rank():
    for n, seed, trials in ENDO_RANK_CASES:
        for mu in theta_invariant_dominant_weights(n, 3):
            (residual,) = verify_transfer_identities([mu], trials, seed)
            assert residual == _oracle_residual(mu, trials, seed), (mu, seed, trials)


# (n, max entry, trials); the n = 8 sweep spans many blocks at 1 and 300
# values, and two at the default budget
BLOCK_CASES = [(6, 2, 23), (8, 2, 334)]


@pytest.mark.parametrize("block_values", [1, 300, None])
@pytest.mark.parametrize("seed", [0, 12_000])
def test_transfer_identity_is_the_same_in_every_block_size(monkeypatch, block_values, seed):
    from arthurcomb import twisted

    if block_values is not None:
        monkeypatch.setattr(twisted, "_BLOCK_VALUES", block_values)
    for n, max_entry, trials in BLOCK_CASES:
        weights = list(theta_invariant_dominant_weights(n, max_entry))
        sweep = verify_transfer_identities(weights, trials, seed)
        assert sweep == [verify_transfer_identities([mu], trials, seed)[0] for mu in weights]
        for mu, residual in zip(weights, sweep):
            assert residual == _oracle_residual(mu, trials, seed), mu


def test_block_cases_span_two_blocks_at_the_default_budget(monkeypatch):
    from arthurcomb import twisted

    tables = []
    real = twisted._columns
    monkeypatch.setattr(twisted, "_columns", lambda t: tables.append(None) or real(t))
    n, max_entry, trials = BLOCK_CASES[-1]
    verify_transfer_identities(list(theta_invariant_dominant_weights(n, max_entry)), trials)
    # two sides per block
    assert len(tables) >= 4


def test_sweep_order_cannot_leak_into_a_residual():
    weights = list(theta_invariant_dominant_weights(6, 3))
    weights += weights[::7]
    random.Random(2).shuffle(weights)
    sweep = verify_transfer_identities(weights, trials=37, seed=4)
    assert sweep == [verify_transfer_identities([mu], 37, 4)[0] for mu in weights]


def test_sweep_multiplies_each_shared_prefix_once(monkeypatch):
    from arthurcomb import twisted

    calls = []
    monkeypatch.setattr(twisted, "mul", lambda a, b: calls.append(None) or a * b)
    verify_transfer_identities(list(theta_invariant_dominant_weights(8, 3)), trials=1)
    # 10,632 on the twisted side and 2,400 on the endoscopic side
    assert len(calls) == 13_032


def test_sweep_memory_stays_flat_in_trials(monkeypatch):
    import tracemalloc

    from arthurcomb import twisted

    weights = list(theta_invariant_dominant_weights(4, 3))
    # one block holds 100 trials: 67 values per trial are 42 table values,
    # a 5-row prefix stack and 2 sums for each of 10 weights
    monkeypatch.setattr(twisted, "_BLOCK_VALUES", 67 * 100)
    # a first pass fills the interpreter's tuple free lists, which would
    # otherwise read as growth in the traced peak
    verify_transfer_identities(weights, trials=1000)
    peaks = []
    for trials in (100, 1000):
        tracemalloc.start()
        verify_transfer_identities(weights, trials=trials)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # measured 1.32 under Python 3.10-3.13; one block of 1,000 trials reads 9.2
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_transfer_identities_reject_mixed_lengths():
    with pytest.raises(ValueError, match="weight length must equal n"):
        verify_transfer_identities([weight([1, -1]), weight([1, 0, -1])])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_twisted_trace_matches_oracle_on_random_elements(data):
    n = data.draw(st.integers(1, 8))
    mu = data.draw(st.sampled_from(list(theta_invariant_dominant_weights(n, 3))))
    angles = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    t = tuple(cmath.exp(2j * cmath.pi * a) for a in angles)
    x = tuple(d // 2 for d in mu.doubled)
    assert _twisted_trace(x, t) == _oracle_trace(x, t)


def test_transfer_identity_builds_one_orbit_per_distinct_weight(monkeypatch):
    from arthurcomb import twisted

    calls = []
    real = twisted._signed_orbit
    monkeypatch.setattr(twisted, "_signed_orbit", lambda *a: calls.append(a) or real(*a))
    a, b = weight([2, 1, 0, 0, -1, -2]), weight([1, 1, 0, 0, -1, -1])
    verify_transfer_identities([a, b, a], trials=3)
    # the whole head, once per weight, for both sides
    assert calls == [((2, 1, 0),), ((1, 1, 0),)]
