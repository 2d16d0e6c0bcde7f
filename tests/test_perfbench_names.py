"""The benchmark's tracer patches the program's methods by name.

``perfbench/run.py --trace 1`` wraps layer methods through each
class's ``__dict__``; neither this suite nor CI runs a traced pass, so
a renamed method would only show up as a ``KeyError`` in the next
traced benchmark run. These tests make every patch the benchmark makes
on a fresh tracer and put the originals back.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_every_workload_wraps_its_layers(perfbench, tmp_path):
    from repro.openwpm.task_manager import TaskManager

    tracer_module, workloads = perfbench
    assert set(workloads.WORKLOADS) == {"crawl_js", "crawl_lab", "scan"}
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(1, str(tmp_path),
                                  str(tmp_path / f"{name}.inputs"))
        begin, end = workload.item_calls()
        originals = {call: call[0].__dict__[call[1]]
                     for call in (begin, end)}
        tracer = tracer_module.Tracer()
        try:
            workload.wrap_layers(tracer)
            tracer.bracket_items(begin, end, lambda: None, lambda: None)
        finally:
            tracer.uninstall()
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is original, (name, attr)
    # The crawl workloads time this call around each pass.
    assert callable(TaskManager.__dict__["crawl_scheduled"])


def test_serve_names_wrap(perfbench):
    from repro.serve import aggregates
    from repro.serve.api import ResultServer

    tracer_module, _ = perfbench
    respond = ResultServer.__dict__["respond"]
    tracer = tracer_module.Tracer()
    try:
        tracer.wrap(ResultServer, "respond", "serve.api.respond")
        for name in ("sites_payload", "site_payload"):
            tracer.wrap_function(aggregates, name, "serve.aggregates")
        tracer.replace_in_dict(aggregates.AGGREGATE_BUILDERS,
                               "serve.aggregates")
        assert ResultServer.__dict__["respond"] is not respond
    finally:
        tracer.uninstall()
    assert ResultServer.__dict__["respond"] is respond
