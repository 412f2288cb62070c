"""Sweep policy: lexicographic witnesses at desk scale, seeded sampling above."""

import pytest

from idealbar.policy import EXHAUSTIVE, SAMPLE, Policy, sweep


def test_exhaustive_reports_lex_least_witness():
    xs = [0, 1, 2]
    res = sweep([xs, xs], lambda a, b: a + b != 3)
    assert not res.ok
    assert res.mode == "exhaustive"
    # (1, 2) is the first violating pair in lex order
    assert res.witness == (1, 2)


def test_exhaustive_pass_counts_every_tuple():
    res = sweep([[0, 1], [0, 1, 2]], lambda a, b: True)
    assert res.ok and res.checked == 6
    assert res.witness is None


def test_empty_space_passes_vacuously():
    res = sweep([[0, 1], []], lambda a, b: False)
    assert res.ok and res.checked == 0


def test_sample_mode_is_seed_deterministic():
    xs = list(range(50))
    pol = Policy(mode=SAMPLE, seed=11, sample_count=40)
    a = sweep([xs, xs], lambda x, y: (x * y) % 7 != 3, pol)
    b = sweep([xs, xs], lambda x, y: (x * y) % 7 != 3, pol)
    assert a.mode == "sampled" and a.seed == 11
    assert (a.ok, a.witness, a.checked) == (b.ok, b.witness, b.checked)


def test_sample_mode_still_exhausts_small_spaces():
    pol = Policy(mode=SAMPLE, sample_count=100)
    res = sweep([[0, 1], [0, 1]], lambda a, b: True, pol)
    assert res.mode == "exhaustive" and res.checked == 4


def test_auto_switches_to_sampling_over_bound():
    pol = Policy(seed=5, sample_count=25, exhaustive_bound=10)
    xs = list(range(6))
    res = sweep([xs, xs], lambda a, b: True, pol)
    assert res.mode == "sampled"
    assert res.checked == 25
    assert res.meta() == {"mode": "sampled", "checked": 25, "seed": 5}


def test_forced_exhaustive_ignores_bound():
    pol = Policy(mode=EXHAUSTIVE, exhaustive_bound=1)
    xs = list(range(4))
    res = sweep([xs, xs], lambda a, b: True, pol)
    assert res.mode == "exhaustive" and res.checked == 16


def test_meta_omits_seed_for_exhaustive():
    res = sweep([[0]], lambda a: True)
    assert res.meta() == {"mode": "exhaustive", "checked": 1}


def test_policy_refuses_a_sample_count_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError):
            Policy(mode=SAMPLE, sample_count=count)


def test_policy_refuses_an_unknown_mode():
    # a misspelt mode would otherwise run as auto, sampling over the bound
    for mode in ("exhuastive", "sampled", ""):
        with pytest.raises(ValueError, match="unknown policy mode"):
            Policy(mode=mode, exhaustive_bound=1)
