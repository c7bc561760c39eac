"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, 0, info]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("engine.simulate", 1.0, 9.0, 0),
        _span("policy.select_visits", 2.0, 6.0, 1, info=2),
        _span("policy.rollout_single", 2.5, 3.5, 2),
        _span("policy.rollout_single", 4.0, 5.0, 2),
        _span("policy.rollout_single", 5.0, 5.5, 2),
        _span("storage.write_results_csv", 9.0, 9.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 4.0, 1.5, 1.0, 1.0, 0.5, 0.5])
    metrics = spans.layer_metrics(tree, {"model.step_patient": 7})
    assert metrics["engine.simulate.s"] == pytest.approx(8.0)
    assert metrics["engine.simulate.self_s"] == pytest.approx(4.0)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["policy.rollout_single.calls"] == 3
    assert metrics["policy.rollout_useful_frac"] == pytest.approx(2 / 3)
    assert metrics["model.step_patient.calls"] == 7
    total, by_layer, _ = spans.layer_shares(tree)
    assert total == pytest.approx(10.0)
    assert by_layer[0] == ("engine", pytest.approx(4.0), pytest.approx(0.4))
    second = _span("cli.main", 20.0, 22.0, -1)
    second[spans.COMMAND] = 1
    total, by_layer, _ = spans.layer_shares(tree + [second], command=1)
    assert total == pytest.approx(2.0)
    assert by_layer == [("cli", pytest.approx(2.0), pytest.approx(1.0))]


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "chwplan" or name.startswith("chwplan.")}


def test_install_then_uninstall_restores_every_binding():
    import chwplan.cli  # noqa: F401  (loads every chwplan module)
    import chwplan.estimation
    import chwplan.qp
    before = _namespaces()
    original = chwplan.qp.solve_qp
    tracer = spans.Tracer()
    with tracer.installed():
        assert chwplan.estimation.solve_qp is not original
        assert chwplan.estimation.solve_qp.__wrapped__ is original
        result = chwplan.estimation.solve_qp([[2.0]], [-2.0], [[1.0]], [0.0], [5.0])
        assert result.status == "solved"
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert [rec[spans.NAME] for rec in tracer.spans] == ["qp.solve_qp"]
    assert tracer.spans[0][spans.INFO][:2] == ("solved", result.iterations)


@pytest.fixture(scope="module")
def sweep_output():
    from chwplan import cli
    work = os.path.join(ROOT, ".bench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    wl.build_inputs("sim", wl.DEFAULT_SEED, os.path.join(work, "inputs"))
    cmd, = (c for c in wl.commands("sim", wl.DEFAULT_SEED,
                                   os.path.join(work, "inputs"), work)
            if c.argv[0] == "simulate" and c.part == "sweep")
    assert cli.main(list(cmd.argv)) == 0
    yield cmd.out
    shutil.rmtree(work, ignore_errors=True)


def test_output_check_rejects_tampered_results(sweep_output):
    ok = wl.check_simulate("sweep", sweep_output, wl.DEFAULT_SEED)
    assert ok.failed_ops == 0 and not ok.errors

    path = os.path.join(sweep_output, "results.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + 1 if int(fields[4]) == 0 else int(fields[4]) - 1)
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

    pinned = wl.check_simulate("sweep", sweep_output, wl.DEFAULT_SEED)
    assert pinned.failed_ops == wl.SIM_PARTS["sweep"].cells()
    assert any("sha256" in e for e in pinned.errors)
    # without a pin (any other seed) the summary cross-check still catches it
    unpinned = wl.check_simulate("sweep", sweep_output, wl.DEFAULT_SEED + 1)
    assert unpinned.failed_ops > 0
    assert any("disagrees" in e for e in unpinned.errors)
