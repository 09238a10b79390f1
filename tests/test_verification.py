import json
from pathlib import Path

import pytest

from synchan import channels, oracle, verification

# (name, passed, detail) of every check, recorded before the enumeration
# kernels behind these scopes were rewritten; the verdicts must not move
RECORDED = json.loads((Path(__file__).parent / "verify_verdicts.json").read_text())

SCOPES = {
    "run_property_checks()": verification.run_property_checks,
    "run_oracle_checks((3, 6, 9, 12), (3, 6, 9))": lambda: verification.run_oracle_checks(
        (3, 6, 9, 12), (3, 6, 9)
    ),
    "run_chain_checks()": verification.run_chain_checks,
}


@pytest.mark.parametrize("call", sorted(SCOPES))
def test_verdicts_are_unchanged(call):
    got = [[c.name, c.passed, c.detail] for c in SCOPES[call]()]
    assert got == RECORDED[call]


def test_oracle_scope_makes_one_survivor_pass_per_block_length(monkeypatch):
    # the uniformity check reads the aggregates of the entropy-identity pass:
    # one _survivor_counts call per output length m <= n, where a second,
    # p_e-free pass would make it 2(n + 1)
    calls = []
    survivor_counts = oracle._survivor_counts

    def counted(n, m, inputs):
        calls.append(m)
        return survivor_counts(n, m, inputs)

    monkeypatch.setattr(oracle, "_survivor_counts", counted)
    oracle._deletion_sums.cache_clear()
    checks = verification.run_oracle_checks([5], [])
    assert sorted(calls) == list(range(6))
    assert all(c.passed for c in checks)


def test_oracle_scope_checks_uniformity_at_n12(monkeypatch):
    deletion_sums = oracle._deletion_sums

    def one_output_miscounted(n, p_es):
        sums, aggregates = deletion_sums(n, p_es)
        return sums, (*aggregates[:-1], aggregates[-1] + 1)

    monkeypatch.setattr(oracle, "_deletion_sums", one_output_miscounted)
    checks = {c.name: c.passed for c in verification.run_oracle_checks([12], [])}
    assert checks["deletion_per_length_uniformity"] is False


def test_survivor_row_sum_check_sees_one_miscounted_keep_set(monkeypatch):
    survivor_counts = oracle._survivor_counts

    def one_keep_set_too_many(n, m, inputs):
        for rows, counts in survivor_counts(n, m, inputs):
            if (n, m) == (8, 3) and rows.start == 0:
                counts = counts.copy()
                counts[0, 5] += 1
            yield rows, counts

    monkeypatch.setattr(oracle, "_survivor_counts", one_keep_set_too_many)
    checks = {c.name: c.passed for c in verification.run_property_checks()}
    assert checks["deletion_survivor_row_sums"] is False


def test_property_checks_ignore_the_seed():
    # they draw nothing; bench/child.py still passes one
    assert verification.run_property_checks(seed=3) == verification.run_property_checks()


@pytest.mark.parametrize("deviation, passed", [(3.2, True), (3.35, False), (3.9, False)])
def test_awgn_quadrature_check_decides_at_the_significance_level(monkeypatch, deviation, passed):
    # a deviation in standard errors passes where its two-sided normal p-value is at least
    # SIGNIFICANCE, |z| <= 3.2905 at 1e-3, as for every other simulator check
    monkeypatch.setattr(
        oracle, "mc_awgn_entropy_check", lambda *args, **kwargs: oracle.McCheck(1.0, 1.0, 0.1, deviation)
    )
    check = {c.name: c for c in verification.run_simulator_checks(scale=1e-3)}["awgn_quadrature_vs_mc"]
    assert check.passed is passed
    assert check.detail == f"|estimate - closed form| = {deviation:.2f} std errors over 100000 samples"


def test_every_recorded_chain_failure_is_the_known_insertion_weight_defect():
    checks = [verification.Check(*row) for row in RECORDED["run_chain_checks()"]]
    failing = [c for c in checks if not c.passed]
    assert len(failing) == 40
    assert all(verification._recorded_defect("chains", c) for c in failing)
    assert not any(verification._recorded_defect("chains", c) for c in checks if c.passed)


@pytest.mark.parametrize(
    "scope, name, known",
    [
        ("chains", "insertion_capacity_chain[n=5,pi=0.1]", True),
        ("chains", "insertion_conditional_entropy_bound[n=3,pi=0.01]", True),
        ("chains", "insertion_capacity_chain_exact_weight[n=2,pi=0.3]", True),
        ("chains", "insertion_conditional_entropy_bound_exact_weight[n=2,pi=0.01]", True),
        # the exact weight fails only at n = 2
        ("chains", "insertion_capacity_chain_exact_weight[n=3,pi=0.3]", False),
        ("chains", "insertion_conditional_entropy_bound_exact_weight[n=20,pi=0.1]", False),
        ("chains", "deletion_capacity_chain[n=2,pd=0.1,pe=0.0]", False),
        ("chains", "insertion_output_entropy_identity[n=2,pi=0.1]", False),
        ("oracle", "insertion_capacity_chain[n=5,pi=0.1]", False),
    ],
)
def test_a_failure_is_known_only_as_the_recorded_defect(scope, name, known):
    assert verification._recorded_defect(scope, verification.Check(name, False, "")) is known
    assert verification._recorded_defect(scope, verification.Check(name, True, "")) is False


@pytest.mark.parametrize(
    "simulator, mutated, intact",
    [
        ("simulate_deletion", "deletion_survivor_count_law", "insertion_event_count_law"),
        ("simulate_gallager_insertion", "insertion_event_count_law", "deletion_survivor_count_law"),
    ],
)
def test_each_length_law_catches_its_own_simulator_mutated(monkeypatch, simulator, mutated, intact):
    # both length laws run through one helper: a simulator whose error rate is 0.02 too high must
    # fail its own law at scale 0.05 and leave the other channel's law passing
    simulate = getattr(channels, simulator)
    monkeypatch.setattr(channels, simulator, lambda bits, p, rng: simulate(bits, p + 0.02, rng))
    checks = {c.name: c for c in verification.run_simulator_checks(scale=0.05)}
    assert checks[mutated].passed is False, checks[mutated]
    assert checks[intact].passed is True, checks[intact]
