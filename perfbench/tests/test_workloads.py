import math

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_invocation(name):
    assert workloads.dumps(workloads.generate(name, 7)) == workloads.dumps(workloads.generate(name, 7))
    assert workloads.dumps(workloads.generate(name, 7)) != workloads.dumps(workloads.generate(name, 8))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sample_count_does_not_depend_on_seed(name):
    counts = set()
    for seed in range(20):
        inv = workloads.generate(name, seed)
        cfg = inv["config"]
        steps = round((cfg["t_end"] - cfg["t_start"]) / cfg["dt"])
        values = len(inv["sweep"]["values"]) if inv["sweep"] else 1
        assert inv["samples"] == values * (steps + 1)
        counts.add(inv["samples"])
    assert len(counts) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_config_is_valid(name, tmp_path):
    from dysonflow import cli

    path = tmp_path / "config.json"
    path.write_text(workloads.dumps(workloads.generate(name, 3)["config"]))
    cli.load_config(path)


def test_parameters_stay_in_their_bands():
    for seed in range(50):
        for name in ("closed-emit", "numeric-verify"):
            cfg = workloads.generate(name, seed)["config"]
            assert 0.3 <= cfg["gamma"] <= 0.7 and 0.5 <= cfg["omega"] <= 1.5
        sweep = workloads.generate("sweep-gamma", seed)["sweep"]["values"]
        assert len(set(sweep)) == 6 and all(0.1 <= v <= 0.95 for v in sweep) and max(sweep) >= 0.9
        cfg = workloads.generate("generic-propagate", seed)["config"]
        k, l = cfg["kappa_vec"], cfg["lambda_vec"]
        lam = math.sqrt(sum(x * x for x in l))
        assert math.isclose(sum(x * x for x in k), 1.0) and 0.4 <= lam <= 0.6
        assert abs(sum(a * b for a, b in zip(k, l))) < 1e-12
        period = 2 * math.pi / math.sqrt(1 - lam**2)
        assert cfg["t_end"] - cfg["t_start"] >= 2 * period
