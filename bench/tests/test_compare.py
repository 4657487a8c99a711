from bench.compare import (
    compare,
    failed_verdict,
    simulated_mismatches,
    verdict,
)

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_within_bound_is_ok():
    assert verdict(STEADY, [x * 1.05 for x in STEADY], 0.1, "lower") == "ok"
    assert verdict(STEADY, [x * 0.95 for x in STEADY], 0.1, "higher") == "ok"


def test_beyond_bound_is_worse():
    assert verdict(STEADY, [x * 1.2 for x in STEADY], 0.1, "lower") == \
        "worse"
    assert verdict(STEADY, [x * 0.8 for x in STEADY], 0.1, "higher") == \
        "worse"


def test_improvement_is_ok():
    assert verdict(STEADY, [x * 0.5 for x in STEADY], 0.1, "lower") == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert verdict(STEADY, noisy, 0.1, "lower") == "unresolved"
    assert verdict(noisy, STEADY, 0.1, "lower") == "unresolved"
    assert verdict(noisy, [x / 4 for x in noisy], 0.1, "lower") == "ok"


def test_failed_share_may_not_grow():
    clean = [{"attempted": 10, "failed": 0}]
    assert failed_verdict(clean, clean)[0] == "ok"
    assert failed_verdict(clean, [{"attempted": 10, "failed": 1}]) == \
        ("worse", 0.0, 0.1)


def _run(seed, value, simulated=0.5, correct=True, failed=0):
    return {"seed": seed, "correct": correct, "attempted": 4,
            "failed": failed,
            "metrics": {"op_min_ms": {"value": value, "unit": "ms"}},
            "simulated": {"simulated.ttft_p50_s": {"value": simulated,
                                                   "unit": "s"}}}


def test_simulated_quantities_must_match_per_seed():
    assert simulated_mismatches([_run(1, 1.0)], [_run(1, 2.0)]) == []
    assert simulated_mismatches([_run(1, 1.0)], [_run(2, 1.0, 0.7)]) == []
    assert len(simulated_mismatches([_run(1, 1.0)],
                                    [_run(1, 1.0, 0.7)])) == 1


def test_compare_rows():
    spec = {"workloads": [{"name": "w"}, {"name": "absent"}],
            "end_to_end": [{"name": "op_min_ms", "unit": "ms",
                            "better": "lower", "bound": 0.1}]}
    parent = {"w": [_run(seed, v) for seed, v in zip(range(5), STEADY)]}
    change = {"w": [_run(seed, v * 1.3, correct=seed != 3,
                         simulated=0.5 if seed else 0.6)
                    for seed, v in zip(range(5), STEADY)]}
    verdicts = {(w, what): state
                for w, what, _detail, state in compare(parent, change, spec)}
    assert verdicts == {("w", "op_min_ms"): "worse",
                        ("w", "failed_frac"): "ok",
                        ("w", "correct"): "incorrect",
                        ("w", "simulated"): "mismatch",
                        ("absent", "runs"): "missing"}
